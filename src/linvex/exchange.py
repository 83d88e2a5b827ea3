"""The exact piecewise isometry carried by a generalized permutation.

Points live on two copies of [0, L), the top and bottom intervals, where
L is the common side length.  Each side is tiled by half-open subintervals
[a, b), one per band end, with both ends of a band sharing its width.  The
map sends a point through its band to the other end (reversing the
within-end offset when both ends are on the same side) and then swaps the
two sides while keeping the absolute offset.

An exchange carries one exact layout, its flat integer map: the widths
become integers on their common grid (step 1 / D, with D the lcm of their
denominators) and the two sides are laid end to end as [0, 2L).  The
first-return chase, tower verification, rigidity composition and orbit
statistics all run on integers.  Fractions appear only at the API and
JSON boundary: a point p / q is carried as an integer over the grid D q
and converted back once.  The induction steps subtract nearly equal
widths, so floating point would corrupt the combinatorics.

Half-open endpoint convention: offset 0 inside an end whose partner lies
on the same side has no half-open image (the reversal lands on the
excluded right endpoint), so the map raises EndpointHit there.  The
exceptional set is countable and all supported statements are
almost-everywhere statements.  Interval images normalize a reversed
(a, b] back to [a, b); this moves a single point per piece, again a null
set.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

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
    """An immutable labeled exchange: permutation, widths and flat integer map.

    ``_flat`` is (D, L, bounds, slopes, shifts): the grid denominator D
    (the lcm of the width denominators), the side length L on the grid,
    and the map with its two sides laid end to end.  Offset t of side s
    (0 top, 1 bottom) is the flat point s * L + t of [0, 2L).  Position p
    covers [bounds[p], bounds[p + 1]) and sends f to
    shifts[p] + slopes[p] * f; ``bounds`` ends with 2L.
    """

    __slots__ = ("perm", "widths", "side_length", "_flat")

    def __init__(self, perm: GeneralizedPermutation, widths: Mapping[str, Fraction]):
        self.perm = perm
        self.widths = validate_widths(perm, widths)
        denom = common_denominator(self.widths.values())
        starts, _, out_side, slopes, consts, length = _grid_layout(
            perm, to_grid(self.widths, denom)
        )
        n_top = len(starts[0])
        bounds = starts[0] + [length + s for s in starts[1]] + [2 * length]
        shifts = [
            out_side[p] * length + consts[p] - slopes[p] * (length if p >= n_top else 0)
            for p in range(len(consts))
        ]
        # Both sides tile to the sum of the widths: each band contributes
        # its width twice overall, and the switch condition balances the
        # reversing contributions.
        self.side_length = Fraction(length, denom)
        self._flat = (denom, length, bounds, slopes, shifts)

    @property
    def total_measure(self) -> Fraction:
        return 2 * self.side_length

    def _flat_point(self, side: Side, offset: Fraction) -> tuple[int, int, int]:
        """(t, q, p): the point as the flat integer t over the grid D q, and
        the position p containing it."""
        denom, length, bounds, _, _ = self._flat
        n, q = offset.numerator, offset.denominator
        if n < 0 or n * denom >= length * q:
            raise InvalidInput(f"offset {offset} outside [0, {self.side_length})")
        t = n * denom
        if side is Side.BOTTOM:
            t += length * q
        elif side is not Side.TOP:
            raise InvalidInput(f"side {side!r} is not a Side")
        return t, q, bisect_right(bounds, t, key=q.__mul__) - 1

    def locate(self, side: Side, offset: Fraction) -> int:
        """Global position index of the end containing the offset."""
        return self._flat_point(side, offset)[2]

    def end_intervals(self, label: str) -> tuple[tuple[Side, Fraction, Fraction], ...]:
        """The one or two side intervals occupied by a band's ends."""
        denom, length, bounds, _, _ = self._flat
        n_top = len(self.perm.top)
        out = []
        for p in self.perm.positions_of(label):
            side, base = (Side.TOP, 0) if p < n_top else (Side.BOTTOM, length)
            out.append(
                (side, Fraction(bounds[p] - base, denom), Fraction(bounds[p + 1] - base, denom))
            )
        return tuple(out)

    def apply(self, point: Point) -> Point:
        denom, length, bounds, slopes, shifts = self._flat
        t, q, p = self._flat_point(point.side, point.offset)
        if slopes[p] == 1:
            f = shifts[p] * q + t
        elif t == bounds[p] * q:
            raise EndpointHit(point)
        else:
            f = shifts[p] * q - t
        if f < length * q:
            return Point(Side.TOP, Fraction(f, denom * q))
        return Point(Side.BOTTOM, Fraction(f - length * q, denom * q))

    def apply_inverse(self, point: Point) -> Point:
        # T = sigma o F with F an involution, so T^-1 = F o sigma = sigma o T o sigma.
        try:
            side, offset = self.apply(Point(point.side.flipped(), point.offset))
        except EndpointHit:
            raise EndpointHit(point) from None
        return Point(side.flipped(), offset)

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

    def first_return_map(
        self, cut: Fraction, budget: int = DEFAULT_RETURN_BUDGET
    ) -> "Exchange":
        """The induced exchange on the truncated domain, by orbit chasing.

        Band labels are inherited from this exchange wherever an induced
        band keeps one of its ends bitwise equal to an original end, which
        reproduces the usual induction labels at a Rauzy cut.  Otherwise
        all bands get fresh canonical names.
        """
        cut = Fraction(cut)
        if not (0 < cut <= self.side_length):
            raise InvalidInput(f"cut {cut} outside (0, {self.side_length}]")
        denom = common_denominator([cut, *self.widths.values()])
        cut_int = cut.numerator * (denom // cut.denominator)
        induced, induced_widths = first_return_on_grid(
            self.perm, to_grid(self.widths, denom), cut_int, budget
        )
        return Exchange(
            induced, {label: Fraction(v, denom) for label, v in induced_widths.items()}
        )

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


def norm(widths: Mapping[str, Fraction] | Iterable[Fraction]) -> Fraction:
    if isinstance(widths, Mapping):
        return one_norm(widths.values())
    return one_norm(widths)
