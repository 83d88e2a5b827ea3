"""The exact piecewise isometry carried by a generalized permutation.

Points live on two copies of [0, L), the top and bottom intervals, where
L is the common side length.  Each side is tiled by half-open subintervals
[a, b), one per band end, with both ends of a band sharing its width.  The
map sends a point through its band to the other end (reversing the
within-end offset when both ends are on the same side) and then swaps the
two sides while keeping the absolute offset.

An exchange carries one exact layout, its flat integer map: the widths
become integers on their common grid (step 1 / D, with D the lcm of their
denominators) and the two sides are laid end to end as [0, 2L).
``_grid_layout`` is the one builder of that map, and ``_compose`` is the
one kernel that pushes pieces (lo, hi, slope, const) a step through it:
the first-return chase, tower images and rigidity composition all use
it, and orbit statistics run on the same integers.  Fractions appear
only at the API and JSON boundary: a point p / q is carried as an integer
over the grid D q and converted back once.  The induction steps subtract
nearly equal widths, so floating point would corrupt the combinatorics.

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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from . import genperm
from .errors import (
    BudgetExceeded,
    EndpointHit,
    InconsistentStage,
    InvalidInput,
    NonPositiveWidth,
    SwitchConditionViolated,
)
from .genperm import GeneralizedPermutation
from .rationals import common_denominator, format_fraction, to_grid

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


@dataclass(frozen=True, slots=True)
class OrbitSegment:
    start: Point
    points: tuple[Point, ...]
    hit_endpoint: int | None = None


def _exact(value, what: str) -> Fraction:
    """``value`` as a Fraction if it is an int (not a bool) or a Fraction,
    else InvalidInput naming ``what``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise InvalidInput(f"{what} must be an int or a Fraction, got {value!r}")


def _check_size(value, what: str, least: int = 0) -> None:
    """InvalidInput naming ``what`` unless ``value`` is an int (not a
    bool) of at least ``least``, 0 or 1: a size, a depth or a budget."""
    if type(value) is not int or value < least:
        kind = "positive" if least else "nonnegative"
        raise InvalidInput(f"{what} must be a {kind} int, got {value!r}")


def _check_widths(perm: GeneralizedPermutation, widths: Mapping[str, int], denom: int = 1) -> None:
    """Check positivity and the switch condition on the grid of step 1 / denom."""
    for label in perm.alphabet:
        if widths[label] <= 0:
            raise NonPositiveWidth(f"width of band {label} is {Fraction(widths[label], denom)}")
    top_sum = bottom_sum = 0  # plain loops: a generator costs more than these few adds
    for a in perm.reversing_top:
        top_sum += widths[a]
    for a in perm.reversing_bottom:
        bottom_sum += widths[a]
    if top_sum != bottom_sum:
        top, bottom = Fraction(top_sum, denom), Fraction(bottom_sum, denom)
        raise SwitchConditionViolated(f"reversing totals differ: top {top} vs bottom {bottom}")


class Exchange:
    """An immutable labeled exchange: permutation, widths and flat integer map.

    ``_flat`` is (D, L, bounds, slopes, shifts): the grid denominator D
    (the lcm of the width denominators) followed by ``_grid_layout`` of
    the widths on that grid, the side length L and the map with its two
    sides laid end to end.  Offset t of side s (0 top, 1 bottom) is the
    flat point s * L + t of [0, 2L).  Position p covers [bounds[p],
    bounds[p + 1]) and sends f to shifts[p] + slopes[p] * f; ``bounds``
    ends with 2L.  The constructor converts the widths to the grid once
    and checks them there.
    """

    __slots__ = ("perm", "widths", "side_length", "_flat")

    def __init__(self, perm: GeneralizedPermutation, widths: Mapping[str, int | Fraction]):
        if set(widths) != set(perm.alphabet):
            raise InvalidInput(
                f"width labels {sorted(widths)} do not match alphabet {list(perm.alphabet)}"
            )
        self.perm = perm
        self.widths = {a: _exact(widths[a], f"width of band {a}") for a in perm.alphabet}
        denom = common_denominator(self.widths.values())
        grid = to_grid(self.widths, denom)
        _check_widths(perm, grid, denom)
        self._flat = (denom, *_grid_layout(perm, grid))
        self.side_length = Fraction(self._flat[1], denom)

    @property
    def total_measure(self) -> Fraction:
        return 2 * self.side_length

    def _flat_point(self, side: Side, offset: Fraction) -> tuple[int, int, int]:
        """(t, q, p): the point as the flat integer t over the grid D q, and
        the position p containing it.  The offset must be an int or a
        Fraction (not a bool), else InvalidInput."""
        denom, length, bounds, _, _ = self._flat
        offset = _exact(offset, "offset")
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
        if not isinstance(point.side, Side):
            raise InvalidInput(f"side {point.side!r} is not a Side")
        try:
            side, offset = self.apply(Point(point.side.flipped(), point.offset))
        except EndpointHit:
            raise EndpointHit(point) from None
        return Point(side.flipped(), offset)

    def orbit(self, start: Point, steps: int) -> OrbitSegment:
        _check_size(steps, "orbit length")
        self._flat_point(*start)  # a bad start fails even with no steps
        points = [start]
        hit: int | None = None
        for k in range(steps):
            try:
                points.append(self.apply(points[-1]))
            except EndpointHit:
                hit = k
                break
        return OrbitSegment(start=start, points=tuple(points), hit_endpoint=hit)

    def first_return_map(self, cut: Fraction) -> "Exchange":
        """The induced exchange on the truncated domain, by orbit chasing.

        An induced band takes the label of an original end that one of
        its pieces equals bitwise, and a band left without one takes the
        one label left unused, which reproduces the usual induction labels
        at a Rauzy cut.  The labels are inherited only if no band's pieces
        equal the ends of two labels, no label is claimed twice, and the
        bands without a label and the unused labels are both none or both
        exactly one; otherwise the bands are named b1, b2, ... in the
        order of their first pieces, top then bottom.  A chase longer than
        ``DEFAULT_RETURN_BUDGET`` steps raises BudgetExceeded.
        """
        cut = _exact(cut, "cut")
        if not (0 < cut <= self.side_length):
            raise InvalidInput(f"cut {cut} outside (0, {self.side_length}]")
        denom = common_denominator([cut, *self.widths.values()])
        cut_int = cut.numerator * (denom // cut.denominator)
        induced, induced_widths = first_return_on_grid(
            self.perm, to_grid(self.widths, denom), cut_int
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


def _grid_layout(
    perm: GeneralizedPermutation, widths: Mapping[str, int]
) -> tuple[int, list[int], list[int], list[int]]:
    """The flat integer map of a permutation with integer widths.

    Returns (L, bounds, slopes, shifts): the side length and the map with
    both sides laid end to end as [0, 2L), the layout ``Exchange._flat``
    carries after its denominator.  Position p covers [bounds[p],
    bounds[p + 1]) and sends f to shifts[p] + slopes[p] * f: through the
    band to its other end q, then across to the other side.
    """
    bounds = [0]
    for label in perm.top + perm.bottom:
        bounds.append(bounds[-1] + widths[label])
    n_top = len(perm.top)
    length = bounds[n_top]
    if 2 * length != bounds[-1]:
        raise InconsistentStage("layout does not tile both sides equally")
    slopes = []
    shifts = []
    for p, q in enumerate(perm.involution):
        # where the partner end q starts once swapped to the other side
        swapped = bounds[q] + length if q < n_top else bounds[q] - length
        if (p < n_top) == (q < n_top):
            slopes.append(-1)
            shifts.append(swapped + bounds[p + 1])
        else:
            slopes.append(1)
            shifts.append(swapped - bounds[p])
    return length, bounds, slopes, shifts


def _image(lo: int, hi: int, slope: int, const: int) -> tuple[int, int]:
    """The flat interval a piece (lo, hi, slope, const) maps [lo, hi) onto."""
    if slope == 1:
        return const + lo, const + hi
    return const - hi, const - lo


def _compose(
    pieces: Iterable[tuple[int, int, int, int]],
    bounds: list[int],
    slopes: list[int],
    shifts: list[int],
) -> list[tuple[int, int, int, int]]:
    """One more step of the flat map after each piece.

    A piece (lo, hi, slope, const) sends [lo, hi) to const + slope * f.
    Each piece's image is located once and walked forward through the
    breakpoints, so a piece splits into one piece per position its image
    meets, each carrying the composed affine map.
    """
    out = []
    append = out.append
    for lo, hi, slope, const in pieces:
        if slope == 1:
            cursor, end = const + lo, const + hi
        else:
            cursor, end = const - hi, const - lo
        p = bisect_right(bounds, cursor) - 1
        while True:
            seg = bounds[p + 1] if bounds[p + 1] < end else end
            pslope, pshift = slopes[p], shifts[p]
            if slope == 1:
                append((cursor - const, seg - const, pslope, pshift + pslope * const))
            else:
                append((const - seg, const - cursor, -pslope, pshift + pslope * const))
            if seg == end:
                break
            cursor = seg
            p += 1
    return out


def _chase(
    flat: tuple[int, list[int], list[int], list[int]], cut: int, budget: int
) -> list[tuple[int, int, int, int]]:
    """Integer first-return chase to [0, cut) on each side of a flat map.

    ``flat`` is (L, bounds, slopes, shifts) from ``_grid_layout``; the
    domain is [0, cut) and [L, L + cut).  Returns the pieces (lo, hi,
    slope, const) of the return map, each sending [lo, hi) to
    const + slope * f.  Every round composes the pieces still out with
    one more step.  An image lies on one side, so it meets the domain in
    a prefix: that part returns and the rest goes round again.
    """
    length, bounds, slopes, shifts = flat
    pieces = [(0, cut, 1, 0), (length, length + cut, 1, 0)]
    done = []
    for _ in range(budget):
        out = []
        for piece in _compose(pieces, bounds, slopes, shifts):
            lo, hi, slope, const = piece
            if slope == 1:
                a, b = const + lo, const + hi
            else:
                a, b = const - hi, const - lo
            end = (length if a >= length else 0) + cut
            if b <= end:
                done.append(piece)
            elif a >= end:
                out.append(piece)
            elif slope == 1:
                done.append((lo, end - const, slope, const))
                out.append((end - const, hi, slope, const))
            else:
                done.append((const - end, hi, slope, const))
                out.append((lo, const - end, slope, const))
        if not out:
            return done
        pieces = out
    lo, hi = pieces[0][:2]
    side = 1 if lo >= length else 0
    raise BudgetExceeded(
        f"piece [{lo - side * length}, {hi - side * length}) on side {side} "
        f"exceeded {budget} steps"
    )


def first_return_on_grid(
    perm: GeneralizedPermutation,
    widths: Mapping[str, int],
    cut: int,
) -> tuple[GeneralizedPermutation, dict[str, int]]:
    """The induced permutation and integer widths on [0, cut) of each side.

    The integer core of ``Exchange.first_return_map``: widths and cut live
    on one grid, and the induced widths stay on it.  The return pieces are
    checked to tile both sides up to the cut and to pair up under the
    induced flow as a fixed-point-free involution; a failure raises
    InconsistentStage.  A piece has slope +1 or -1, so its image has its
    length by construction.  Tiling both sides to the same length also
    gives the induced switch condition, and every piece is nonempty.
    A chase past ``DEFAULT_RETURN_BUDGET`` steps raises BudgetExceeded.
    """
    flat = _grid_layout(perm, widths)
    length, bounds = flat[0], flat[1]
    pieces = sorted(_chase(flat, cut, DEFAULT_RETURN_BUDGET))
    index: dict[int, tuple[int, int, int, int]] = {}
    cursor = 0
    for piece in pieces:
        if cursor == cut:
            # the top side is tiled; the bottom one starts at flat L
            cursor = length
        if piece[0] != cursor:
            raise InconsistentStage("return pieces do not tile the domain")
        cursor = piece[1]
        index[piece[0]] = piece
    if cursor != length + cut:
        raise InconsistentStage("return pieces do not reach the cut")

    # Pair each piece with its partner under the flow part of the induced
    # map (the image with the side flipped back).  The induced map of an
    # exchange is again an exchange, so this pairing must be a
    # fixed-point-free involution on pieces: a key's mate must be the one
    # an earlier piece paired it with, and no earlier piece's.
    partner: dict[int, int] = {}
    for key, piece in index.items():
        lo, hi = _image(*piece)
        flip = -length if lo >= length else length
        mate = index.get(lo + flip)
        if mate is None or mate[1] != hi + flip:
            raise InconsistentStage("induced flow does not pair pieces")
        if mate[0] == key:
            raise InconsistentStage("a piece pairs with itself")
        if partner.setdefault(key, mate[0]) != mate[0] or partner.setdefault(mate[0], key) != key:
            raise InconsistentStage("induced flow pairing is not an involution")
    bands = [(key, mate) for key, mate in partner.items() if key < mate]

    # The labels of the old ends each band's pieces equal; inherited only
    # when every band names at most one, no label is named twice, and at
    # most one band and one label are left over, to pair.
    old_ends = {
        (bounds[p], bounds[p + 1]): label for p, label in enumerate(perm.top + perm.bottom)
    }
    found = [{old_ends.get(index[key][:2]) for key in band} - {None} for band in bands]
    claimed = [label for labels in found for label in labels]
    unused = [label for label in perm.alphabet if label not in claimed]
    unlabelled = sum(not labels for labels in found)
    if (
        all(len(labels) <= 1 for labels in found)
        and len(set(claimed)) == len(claimed)
        and unlabelled == len(unused) <= 1
    ):
        names = [labels.pop() if labels else unused[0] for labels in found]
    else:
        names = [f"b{i + 1}" for i in range(len(bands))]

    label_of_key: dict[int, str] = {}
    induced_widths: dict[str, int] = {}
    for (key, mate), label in zip(bands, names):
        label_of_key[key] = label_of_key[mate] = label
        induced_widths[label] = index[key][1] - key

    top_row = [label_of_key[key] for key in index if key < length]
    bottom_row = [label_of_key[key] for key in index if key >= length]
    return genperm.validate(top_row, bottom_row), induced_widths
