"""The exact piecewise isometry carried by a generalized permutation.

Points live on two copies of [0, L), the top and bottom intervals, where
L is the common side length.  Each side is tiled by half-open subintervals
[a, b), one per band end, with both ends of a band sharing its width.  The
map sends a point through its band to the other end (reversing the
within-end offset when both ends are on the same side) and then swaps the
two sides while keeping the absolute offset.

All arithmetic is exact rational.  The induction steps subtract nearly
equal widths, so floating point would corrupt the combinatorics.

Half-open endpoint convention: offset 0 inside an end whose partner lies
on the same side has no half-open image (the reversal lands on the
excluded right endpoint), so the map raises EndpointHit there.  The
exceptional set is countable and all supported statements are
almost-everywhere statements.  Interval images normalize a reversed
(a, b] back to [a, b); this moves a single point per piece, again a null
set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import genperm
from .errors import (
    EndpointHit,
    InconsistentStage,
    InvalidInput,
    NonPositiveWidth,
    NotReturning,
    SwitchConditionViolated,
)
from .genperm import GeneralizedPermutation
from .rationals import common_denominator, format_fraction, one_norm, to_grid

DEFAULT_RETURN_BUDGET = 10**6


class Side(Enum):
    TOP = "Top"
    BOTTOM = "Bottom"

    def flipped(self) -> "Side":
        return Side.BOTTOM if self is Side.TOP else Side.TOP


class Point(NamedTuple):
    side: Side
    offset: Fraction

    def to_json_dict(self) -> dict:
        return {"side": self.side.value, "offset": format_fraction(self.offset)}


@dataclass(frozen=True)
class OrbitSegment:
    start: Point
    points: tuple[Point, ...]
    hit_endpoint: int | None = None


class ReturnPiece(NamedTuple):
    """One linearity piece of a first-return map.

    The source interval [src_lo, src_hi) on src_side returns after
    ``steps`` applications, landing on [out_lo, out_hi) of out_side with
    derivative ``slope`` (+1 or -1).
    """

    src_side: Side
    src_lo: Fraction
    src_hi: Fraction
    out_side: Side
    out_lo: Fraction
    out_hi: Fraction
    slope: int
    steps: int


def validate_widths(
    perm: GeneralizedPermutation, widths: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Check positivity and the switch condition; returns a sorted copy."""
    if set(widths) != set(perm.alphabet):
        raise InvalidInput(
            f"width labels {sorted(widths)} do not match alphabet {list(perm.alphabet)}"
        )
    cleaned = {label: Fraction(widths[label]) for label in perm.alphabet}
    for label, value in cleaned.items():
        if value <= 0:
            raise NonPositiveWidth(f"width of band {label} is {value}")
    top_sum = sum((cleaned[a] for a in perm.reversing_top_bands()), Fraction(0))
    bottom_sum = sum((cleaned[a] for a in perm.reversing_bottom_bands()), Fraction(0))
    if top_sum != bottom_sum:
        raise SwitchConditionViolated(
            f"reversing totals differ: top {top_sum} vs bottom {bottom_sum}"
        )
    return cleaned


class Exchange:
    """An immutable labeled exchange: permutation, widths, derived layout."""

    __slots__ = (
        "perm",
        "widths",
        "side_length",
        "_starts",
        "_positions",
        "_apply_side",
        "_apply_slope",
        "_apply_const",
        "_flow_side",
        "_pos_side",
        "_pos_start",
        "_pos_label",
        "_pos_width",
    )

    def __init__(self, perm: GeneralizedPermutation, widths: Mapping[str, Fraction]):
        self.perm = perm
        self.widths = validate_widths(perm, widths)
        # Both sides tile to the same total because each band contributes
        # its width twice overall and the switch condition balances the
        # reversing contributions.
        self.side_length = sum(self.widths.values(), Fraction(0))

        total = 2 * perm.band_count
        pos_side: list[Side] = [Side.TOP] * total
        pos_start: list[Fraction] = [Fraction(0)] * total
        pos_label: list[str] = [""] * total
        pos_width: list[Fraction] = [Fraction(0)] * total
        starts: dict[Side, list[Fraction]] = {Side.TOP: [], Side.BOTTOM: []}
        positions: dict[Side, list[int]] = {Side.TOP: [], Side.BOTTOM: []}

        cursor = Fraction(0)
        for i, label in enumerate(perm.top):
            pos_side[i] = Side.TOP
            pos_start[i] = cursor
            pos_label[i] = label
            pos_width[i] = self.widths[label]
            starts[Side.TOP].append(cursor)
            positions[Side.TOP].append(i)
            cursor += self.widths[label]
        top_total = cursor
        cursor = Fraction(0)
        for k, label in enumerate(perm.bottom):
            i = len(perm.top) + k
            pos_side[i] = Side.BOTTOM
            pos_start[i] = cursor
            pos_label[i] = label
            pos_width[i] = self.widths[label]
            starts[Side.BOTTOM].append(cursor)
            positions[Side.BOTTOM].append(i)
            cursor += self.widths[label]
        if top_total != cursor or top_total != self.side_length:
            raise InconsistentStage("layout does not tile both sides equally")

        apply_side: list[Side] = [Side.TOP] * total
        apply_slope: list[int] = [1] * total
        apply_const: list[Fraction] = [Fraction(0)] * total
        flow_side: list[Side] = [Side.TOP] * total
        for p in range(total):
            q = perm.involution[p]
            same_side = pos_side[p] is pos_side[q]
            flow_side[p] = pos_side[q]
            apply_side[p] = pos_side[q].flipped()
            if same_side:
                apply_slope[p] = -1
                apply_const[p] = pos_start[q] + pos_width[p] + pos_start[p]
            else:
                apply_slope[p] = 1
                apply_const[p] = pos_start[q] - pos_start[p]

        self._starts = {side: tuple(vals) for side, vals in starts.items()}
        self._positions = {side: tuple(vals) for side, vals in positions.items()}
        self._apply_side = tuple(apply_side)
        self._apply_slope = tuple(apply_slope)
        self._apply_const = tuple(apply_const)
        self._flow_side = tuple(flow_side)
        self._pos_side = tuple(pos_side)
        self._pos_start = tuple(pos_start)
        self._pos_label = tuple(pos_label)
        self._pos_width = tuple(pos_width)

    @property
    def total_measure(self) -> Fraction:
        return 2 * self.side_length

    def locate(self, side: Side, offset: Fraction) -> int:
        """Global position index of the end containing the offset."""
        if offset < 0 or offset >= self.side_length:
            raise InvalidInput(f"offset {offset} outside [0, {self.side_length})")
        idx = bisect_right(self._starts[side], offset) - 1
        return self._positions[side][idx]

    def band_at(self, side: Side, offset: Fraction) -> str:
        return self._pos_label[self.locate(side, offset)]

    def end_intervals(self, label: str) -> tuple[tuple[Side, Fraction, Fraction], ...]:
        """The one or two side intervals occupied by a band's ends."""
        out = []
        for p in self.perm.positions_of(label):
            lo = self._pos_start[p]
            out.append((self._pos_side[p], lo, lo + self._pos_width[p]))
        return tuple(out)

    def apply(self, point: Point) -> Point:
        p = self.locate(point.side, point.offset)
        if self._apply_slope[p] == -1 and point.offset == self._pos_start[p]:
            raise EndpointHit(point)
        return Point(
            self._apply_side[p],
            self._apply_const[p] + self._apply_slope[p] * point.offset,
        )

    def apply_inverse(self, point: Point) -> Point:
        # The inverse swaps sides first, then flows along the band.
        side = point.side.flipped()
        p = self.locate(side, point.offset)
        if self._apply_slope[p] == -1 and point.offset == self._pos_start[p]:
            raise EndpointHit(point)
        return Point(
            self._flow_side[p],
            self._apply_const[p] + self._apply_slope[p] * point.offset,
        )

    def orbit(self, start: Point, steps: int) -> OrbitSegment:
        if steps < 0:
            raise InvalidInput("orbit length must be nonnegative")
        points = [start]
        hit: int | None = None
        for k in range(steps):
            try:
                points.append(self.apply(points[-1]))
            except EndpointHit:
                hit = k
                break
        return OrbitSegment(start=start, points=tuple(points), hit_endpoint=hit)

    def image_of_interval(
        self, side: Side, lo: Fraction, hi: Fraction
    ) -> tuple[list[tuple[Side, Fraction, Fraction]], bool]:
        """Exact image of [lo, hi) under one application.

        Returns the image pieces and whether the interval had to be split
        across several ends (i.e. the map is not linear on it).
        """
        if not (0 <= lo < hi <= self.side_length):
            raise InvalidInput(f"bad interval [{lo}, {hi}) on {side}")
        pieces: list[tuple[Side, Fraction, Fraction]] = []
        cursor = lo
        split = False
        while cursor < hi:
            p = self.locate(side, cursor)
            end_hi = self._pos_start[p] + self._pos_width[p]
            seg_hi = min(hi, end_hi)
            if seg_hi < hi:
                split = True
            const, slope = self._apply_const[p], self._apply_slope[p]
            if slope == 1:
                pieces.append((self._apply_side[p], const + cursor, const + seg_hi))
            else:
                pieces.append((self._apply_side[p], const - seg_hi, const - cursor))
            cursor = seg_hi
        return pieces, split

    def _scaled(self, cut: Fraction) -> tuple[int, dict[str, int], int]:
        """Widths and cut on their common grid: (denominator, widths, cut)."""
        if not (0 < cut <= self.side_length):
            raise InvalidInput(f"cut {cut} outside (0, {self.side_length}]")
        denom = common_denominator([cut, *self.widths.values()])
        return denom, to_grid(self.widths, denom), cut.numerator * (denom // cut.denominator)

    def first_return_pieces(
        self, cut: Fraction, budget: int = DEFAULT_RETURN_BUDGET
    ) -> list[ReturnPiece]:
        """Chase subintervals of the truncated domain until first return.

        The truncated domain is [0, cut) on each side.  Work items carry a
        source interval together with its current affine image; items are
        split exactly at layout breakpoints and at the cut, so every
        recorded piece has a constant return time and slope +-1.
        """
        denom, widths, cut_int = self._scaled(Fraction(cut))
        raw = _chase(_grid_layout(self.perm, widths), cut_int, budget)
        sides = (Side.TOP, Side.BOTTOM)
        return [
            ReturnPiece(
                sides[s0],
                Fraction(a, denom),
                Fraction(b, denom),
                sides[s1],
                Fraction(c, denom),
                Fraction(d, denom),
                slope,
                steps,
            )
            for s0, a, b, s1, c, d, slope, steps in raw
        ]

    def first_return_map(
        self, cut: Fraction, budget: int = DEFAULT_RETURN_BUDGET
    ) -> "Exchange":
        """The induced exchange on the truncated domain, by orbit chasing.

        Band labels are inherited from this exchange wherever an induced
        band keeps one of its ends bitwise equal to an original end, which
        reproduces the usual induction labels at a Rauzy cut.  Otherwise
        all bands get fresh canonical names.
        """
        denom, widths, cut_int = self._scaled(Fraction(cut))
        induced, induced_widths = first_return_on_grid(self.perm, widths, cut_int, budget)
        return Exchange(
            induced, {label: Fraction(v, denom) for label, v in induced_widths.items()}
        )

    def integer_layout(self) -> "IntegerLayout":
        """The layout scaled to a common denominator, for fast exact orbits."""
        return IntegerLayout(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Exchange):
            return NotImplemented
        return self.perm == other.perm and self.widths == other.widths

    def __hash__(self):
        return hash((self.perm, tuple(sorted(self.widths.items()))))

    def __repr__(self) -> str:
        ws = ", ".join(f"{a}:{self.widths[a]}" for a in self.perm.alphabet)
        return f"Exchange({self.perm} ; {ws})"


def build(perm: GeneralizedPermutation, widths: Mapping[str, Fraction]) -> Exchange:
    return Exchange(perm, widths)


class _GridLayout(NamedTuple):
    """Integer layout of a permutation with integer widths.

    Sides are 0 (top) and 1 (bottom); the end at index ``idx`` of side
    ``s`` is global position ``offset[s] + idx``, and the map sends offset
    t of position p to ``const[p] + slope[p] * t`` on ``out_side[p]``.
    """

    starts: tuple[list[int], list[int]]
    offset: tuple[int, int]
    out_side: list[int]
    slope: list[int]
    const: list[int]
    length: int


def _grid_layout(perm: GeneralizedPermutation, widths: Mapping[str, int]) -> _GridLayout:
    rows = (perm.top, perm.bottom)
    starts: tuple[list[int], list[int]] = ([], [])
    totals = []
    for side, row in enumerate(rows):
        cursor = 0
        side_starts = starts[side]
        for label in row:
            side_starts.append(cursor)
            cursor += widths[label]
        totals.append(cursor)
    if totals[0] != totals[1]:
        raise InconsistentStage("layout does not tile both sides equally")
    n_top = len(perm.top)
    labels = perm.top + perm.bottom
    pos_start = starts[0] + starts[1]
    total = len(labels)
    out_side = [0] * total
    slope = [1] * total
    const = [0] * total
    involution = perm.involution
    for p in range(total):
        q = involution[p]
        q_bottom = q >= n_top
        out_side[p] = 0 if q_bottom else 1
        if (p >= n_top) == q_bottom:
            slope[p] = -1
            const[p] = pos_start[q] + widths[labels[p]] + pos_start[p]
        else:
            const[p] = pos_start[q] - pos_start[p]
    return _GridLayout(starts, (0, n_top), out_side, slope, const, totals[0])


def _split_item(side, slo, shi, cs, clo, chi, slope, steps, at):
    """Split a work item at image ordinate ``at`` in (clo, chi)."""
    if slope == 1:
        mid = slo + (at - clo)
        return [
            (side, slo, mid, cs, clo, at, slope, steps),
            (side, mid, shi, cs, at, chi, slope, steps),
        ]
    mid = slo + (chi - at)
    return [
        (side, slo, mid, cs, at, chi, slope, steps),
        (side, mid, shi, cs, clo, at, slope, steps),
    ]


def _chase(layout: _GridLayout, cut: int, budget: int) -> list[tuple]:
    """Integer first-return chase to the cut; sides are 0 (top) and 1 (bottom).

    Returns pieces (src_side, src_lo, src_hi, out_side, out_lo, out_hi,
    slope, steps) on the layout's grid.
    """
    starts, offset, out_side, slopes, consts, length = layout
    work: deque = deque()
    for side_idx in (0, 1):
        edges = [0]
        edges.extend(s for s in starts[side_idx] if 0 < s < cut)
        edges.append(cut)
        for lo, hi in zip(edges, edges[1:]):
            work.append((side_idx, lo, hi, side_idx, lo, hi, 1, 0))

    done: list[tuple] = []
    while work:
        item = work.popleft()
        side, slo, shi, cs, clo, chi, slope, steps = item
        if steps > 0:
            if chi <= cut:
                done.append(item)
                continue
            if clo < cut:
                work.extend(_split_item(*item, at=cut))
                continue
        if steps >= budget:
            raise NotReturning(
                f"piece [{slo}, {shi}) on side {side} exceeded {budget} steps"
            )
        side_starts = starts[cs]
        idx = bisect_right(side_starts, clo) - 1
        end_hi = side_starts[idx + 1] if idx + 1 < len(side_starts) else length
        if chi > end_hi:
            work.extend(_split_item(*item, at=end_hi))
            continue
        p = offset[cs] + idx
        const, pslope = consts[p], slopes[p]
        if pslope == 1:
            nlo, nhi = const + clo, const + chi
        else:
            nlo, nhi = const - chi, const - clo
        work.append(
            (side, slo, shi, out_side[p], nlo, nhi, slope * pslope, steps + 1)
        )
    return done


def first_return_on_grid(
    perm: GeneralizedPermutation,
    widths: Mapping[str, int],
    cut: int,
    budget: int = DEFAULT_RETURN_BUDGET,
) -> tuple[GeneralizedPermutation, dict[str, int]]:
    """The induced permutation and integer widths on [0, cut) of each side.

    The integer core of ``Exchange.first_return_map``: widths and cut live
    on one grid, and the induced widths stay on it.  The return pieces are
    checked to tile both sides up to the cut, to be isometries, and to pair
    up under the induced flow as a fixed-point-free involution; a failure
    raises InconsistentStage.  Tiling both sides to the same length also
    gives the induced switch condition, and every piece is nonempty.
    """
    layout = _grid_layout(perm, widths)
    pieces = _chase(layout, cut, budget)
    by_side: dict[int, list[tuple]] = {0: [], 1: []}
    for piece in pieces:
        by_side[piece[0]].append(piece)
    index: dict[tuple[int, int], tuple] = {}
    for side in (0, 1):
        by_side[side].sort(key=lambda r: r[1])
        cursor = 0
        for piece in by_side[side]:
            _, slo, shi, _, olo, ohi, _, _ = piece
            if slo != cursor:
                raise InconsistentStage("return pieces do not tile the domain")
            if ohi - olo != shi - slo:
                raise InconsistentStage("return piece is not an isometry")
            cursor = shi
            index[(side, slo)] = piece
        if cursor != cut:
            raise InconsistentStage("return pieces do not reach the cut")

    # Pair each piece with its partner under the flow part of the induced
    # map (the image with the side flipped back).  The induced map of an
    # exchange is again an exchange, so this pairing must be a
    # fixed-point-free involution on pieces.
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for piece in pieces:
        key = (piece[0], piece[1])
        pkey = (1 - piece[3], piece[4])
        mate = index.get(pkey)
        if mate is None or mate[2] != piece[5]:
            raise InconsistentStage("induced flow does not pair pieces")
        if pkey == key:
            raise InconsistentStage("a piece pairs with itself")
        partner[key] = pkey
    for key, pkey in partner.items():
        if partner.get(pkey) != key:
            raise InconsistentStage("induced flow pairing is not an involution")

    bands: list[tuple[tuple[int, int], tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()
    ordered_keys = [(side, piece[1]) for side in (0, 1) for piece in by_side[side]]
    for key in ordered_keys:
        if key in seen:
            continue
        mate = partner[key]
        seen.add(key)
        seen.add(mate)
        bands.append((key, mate))

    old_ends: dict[tuple[int, int, int], str] = {}
    for side, row in enumerate((perm.top, perm.bottom)):
        for lo, label in zip(layout.starts[side], row):
            old_ends[(side, lo, lo + widths[label])] = label

    claimed: dict[int, str] = {}
    used: dict[str, int] = {}
    inherited = True
    for i, (key, mate) in enumerate(bands):
        labels = set()
        for piece_key in (key, mate):
            piece = index[piece_key]
            found = old_ends.get((piece[0], piece[1], piece[2]))
            if found is not None:
                labels.add(found)
        if len(labels) > 1:
            inherited = False
            break
        if labels:
            label = labels.pop()
            if label in used:
                inherited = False
                break
            used[label] = i
            claimed[i] = label
    if inherited:
        leftover_bands = [i for i in range(len(bands)) if i not in claimed]
        leftover_labels = [a for a in perm.alphabet if a not in used]
        if len(leftover_bands) == len(leftover_labels) == 1:
            claimed[leftover_bands[0]] = leftover_labels[0]
        elif leftover_bands or leftover_labels:
            inherited = False
    if not inherited or len(claimed) != len(bands):
        claimed = {i: f"b{i + 1}" for i in range(len(bands))}

    label_of_key: dict[tuple[int, int], str] = {}
    induced_widths: dict[str, int] = {}
    for i, (key, mate) in enumerate(bands):
        label = claimed[i]
        label_of_key[key] = label
        label_of_key[mate] = label
        piece = index[key]
        induced_widths[label] = piece[2] - piece[1]

    top_row = [label_of_key[(0, piece[1])] for piece in by_side[0]]
    bottom_row = [label_of_key[(1, piece[1])] for piece in by_side[1]]
    return genperm.validate(top_row, bottom_row), induced_widths


class IntegerLayout:
    """Exact integer-scaled copy of an exchange's layout and flow maps.

    Every endpoint is a multiple of 1 / denominator, so orbits and
    interval images are plain integer arithmetic with no precision loss.
    """

    __slots__ = ("denominator", "length", "starts", "pos_of", "out_side", "slope", "const")

    def __init__(self, x: Exchange):
        denom = 1
        for w in x.widths.values():
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
        self.denominator = denom
        self.length = int(x.side_length * denom)
        self.starts: dict[Side, list[int]] = {}
        self.pos_of: dict[Side, list[int]] = {}
        for side in (Side.TOP, Side.BOTTOM):
            self.starts[side] = [int(s * denom) for s in x._starts[side]]
            self.pos_of[side] = list(x._positions[side])
        self.out_side = list(x._apply_side)
        self.slope = list(x._apply_slope)
        self.const = [int(c * denom) for c in x._apply_const]

    def locate(self, side: Side, offset: int) -> int:
        return self.pos_of[side][bisect_right(self.starts[side], offset) - 1]

    def step(self, side: Side, offset: int) -> tuple[Side, int] | None:
        """One application of the map; None signals an endpoint hit."""
        starts = self.starts[side]
        idx = bisect_right(starts, offset) - 1
        pos = self.pos_of[side][idx]
        if self.slope[pos] == -1 and offset == starts[idx]:
            return None
        return self.out_side[pos], self.const[pos] + self.slope[pos] * offset


def apply(x: Exchange, t: Point) -> Point:
    return x.apply(t)


def apply_inverse(x: Exchange, t: Point) -> Point:
    return x.apply_inverse(t)


def orbit(x: Exchange, t: Point, n: int) -> OrbitSegment:
    return x.orbit(t, n)


def first_return_map(x: Exchange, cut: Fraction, budget: int = DEFAULT_RETURN_BUDGET) -> Exchange:
    return x.first_return_map(cut, budget)


def norm(widths: Mapping[str, Fraction] | Iterable[Fraction]) -> Fraction:
    if isinstance(widths, Mapping):
        return one_norm(widths.values())
    return one_norm(widths)
