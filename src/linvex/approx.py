"""Cyclic tower certificates and rigidity times, checked by exact dynamics.

A cyclic tower certificate names a band at some induction depth, the two
base subintervals its ends occupy, and the tower height (the band's
column norm, equal to the first-return time).  The verifier recomputes
the tower's levels by exact interval images of the original map and
grades the four tower properties: level disjointness from the base,
linearity on every level, the fraction of total measure covered by the
levels, and the overlap of the base with its height-iterate.  It works on
the exchange's flat integer map, the two sides laid end to end as
[0, 2L) on the grid of the widths: the base becomes sorted flat
intervals once, and each base interval's orbit is chased on its own, one
bisect and one affine update per level, with the remainder of an image
that crosses a breakpoint left on a stack.  A base must have height at
least 1 and intervals on the grid with 0 <= lo < hi <= L, pairwise
disjoint on each side; anything else is InvalidInput.

The searcher walks the expansion and screens candidates with two exact
measures that need no orbit iteration: the covered fraction is
``height * base width / total`` and the base-overlap of an orientation
preserving band is the intersection length of its two end intervals
(the height-iterate of the base is the side swap of the base).  The
verifier remains authoritative; every returned tower has been verified.

Rigidity defects integrate the displacement of an iterated map exactly:
the n-th power is built as a refined piecewise isometry and each piece
contributes a closed-form integral.  Across-side pieces are charged the
full side length, a constant penalty that dominates any within-side
displacement, so a vanishing defect still characterizes rigidity.  The
pieces are composed by the exchange's one composition kernel,
``exchange._compose``, in plain integers on the grid of the widths (the
lcm D of their denominators), and each iterate's integral is one integer
over 4 D^2, converted to a Fraction once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import rauzy
from .errors import (
    BudgetExceeded,
    ExpansionHalted,
    InconsistentStage,
    InvalidInput,
    PartitionBlowup,
    SplitUndefined,
)
from .exchange import Exchange, Side, _compose, _image
from .genperm import GeneralizedPermutation
from .rationals import common_denominator, format_fraction, to_grid

DEFAULT_SPLIT_BUDGET = 10_000
DEFAULT_PIECE_BUDGET = 10**6
DEFAULT_VERIFY_BUDGET = 10**7

BaseInterval = tuple[Side, Fraction, Fraction]


@dataclass(frozen=True)
class CyclicTower:
    """A tower certificate: band, depth, height, base set and quality.

    ``delta`` is the constant the certificate is verified against (the
    exact deficits are strictly below it); ``xi`` is the corner parameter
    1 - width / side_length realized at the certifying stage.
    """

    band: str
    depth: int
    height: int
    base: tuple[BaseInterval, ...]
    delta: Fraction
    xi: Fraction

    def base_measure(self) -> Fraction:
        return sum((hi - lo for _, lo, hi in self.base), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "band": self.band,
            "depth": self.depth,
            "height": self.height,
            "base_intervals": [
                {"side": side.value, "lo": format_fraction(lo), "hi": format_fraction(hi)}
                for side, lo, hi in self.base
            ],
            "delta": format_fraction(self.delta),
            "xi": format_fraction(self.xi),
        }


@dataclass(frozen=True)
class TowerVerification:
    """Exact measures and per-property verdicts for a tower certificate."""

    disjoint_levels: bool
    linear_on_levels: bool
    union_fraction: Fraction
    overlap_fraction: Fraction
    base_measure: Fraction
    total_measure: Fraction
    union_measure: Fraction
    overlap_measure: Fraction
    delta: Fraction

    @property
    def covers_enough(self) -> bool:
        return self.union_fraction > 1 - self.delta

    @property
    def returns_enough(self) -> bool:
        return self.overlap_fraction > 1 - self.delta

    @property
    def passed(self) -> bool:
        return (
            self.disjoint_levels
            and self.linear_on_levels
            and self.covers_enough
            and self.returns_enough
        )

    @property
    def achieved_delta(self) -> Fraction:
        return max(1 - self.union_fraction, 1 - self.overlap_fraction)

    def to_json_dict(self) -> dict:
        return {
            "p1_disjoint": self.disjoint_levels,
            "p2_linear": self.linear_on_levels,
            "p3_covers": self.covers_enough,
            "p4_returns": self.returns_enough,
            "measures": {
                "base": format_fraction(self.base_measure),
                "total": format_fraction(self.total_measure),
                "union": format_fraction(self.union_measure),
                "overlap": format_fraction(self.overlap_measure),
                "union_fraction": format_fraction(self.union_fraction),
                "overlap_fraction": format_fraction(self.overlap_fraction),
            },
            "passed": self.passed,
        }


@dataclass(frozen=True)
class RigidityRecord:
    n: int
    defect: Fraction
    flagged: bool

    def to_json_dict(self) -> dict:
        return {"n": self.n, "defect": format_fraction(self.defect), "flagged": self.flagged}


def verify_tower(
    x: Exchange, tower: CyclicTower, step_budget: int = DEFAULT_VERIFY_BUDGET
) -> TowerVerification:
    """Check the four tower properties by exact interval iteration.

    The base must be well formed: ``height`` >= 1, at least one interval,
    every interval on the grid of the widths with 0 <= lo < hi <= L, and
    the intervals pairwise disjoint on each side; otherwise InvalidInput.

    Levels are iterated on the flat integer map ``x._flat`` (both sides
    end to end on the grid of the widths), so the arithmetic stays
    exact at machine-integer speed.  Each base interval's orbit is chased
    on its own: an image that crosses a breakpoint leaves its remainder
    on a stack with its level.  The last level's image, for the return
    overlap, is taken by ``exchange._compose``.  Disjointness is
    measured over interval interiors, so single shared endpoints do not
    count.  ``step_budget`` bounds the pieces of levels 1 .. height - 1
    summed over the levels.  Property failures are reported in the
    verdicts, never raised; only exceeding the step budget raises.
    """
    denom, length, bounds, slopes, shifts = x._flat
    base = _flat_base(tower, denom, length)
    height = tower.height
    last = height - 1
    # Sorted, pairwise disjoint base intervals, with a 2L sentinel start:
    # a piece [lo, hi) meets the base iff the first base interval ending
    # after lo starts before hi.
    base_lo = [lo for lo, _ in base] + [2 * length]
    base_hi = [hi for _, hi in base]
    disjoint = True
    linear = True
    work = 0
    overlap_int = 0
    for blo, bhi in base:
        stack = [(blo, bhi, 0)]
        while stack:
            lo, hi, level = stack.pop()
            # this piece and its images fill one piece of each later level;
            # a tower of height 1 has no levels to count and never raises
            work += last - level
            if work > step_budget and level < last:
                raise BudgetExceeded(
                    f"tower verification exceeded {step_budget} interval steps"
                )
            for level in range(level, last):
                p = bisect_right(bounds, lo) - 1
                end = bounds[p + 1]
                if hi > end:
                    stack.append((end, hi, level))
                    linear = False
                    hi = end
                shift = shifts[p]
                if slopes[p] == 1:
                    lo, hi = shift + lo, shift + hi
                else:
                    lo, hi = shift - hi, shift - lo
                if disjoint and base_lo[bisect_right(base_hi, lo)] < hi:
                    disjoint = False
            for piece in _compose([(lo, hi, 1, 0)], bounds, slopes, shifts):
                flo, fhi = _image(*piece)
                j = bisect_right(base_hi, flo)
                while base_lo[j] < fhi:
                    overlap_int += min(fhi, base_hi[j]) - max(flo, base_lo[j])
                    j += 1

    base_measure_int = sum(hi - lo for lo, hi in base)
    if disjoint:
        # level-vs-base disjointness for every offset k < height implies
        # pairwise level disjointness (a collision of levels i < j pulls
        # back through the measure-preserving map to a collision of the
        # base with level j - i), so the union measure is additive
        union_int = height * base_measure_int
    else:
        union_int = _full_union_measure(bounds, slopes, shifts, base, height)
    base_measure = Fraction(base_measure_int, denom)
    union = Fraction(union_int, denom)
    overlap = Fraction(overlap_int, denom)
    total = x.total_measure
    return TowerVerification(
        disjoint_levels=disjoint,
        linear_on_levels=linear,
        union_fraction=union / total,
        overlap_fraction=overlap / base_measure,
        base_measure=base_measure,
        total_measure=total,
        union_measure=union,
        overlap_measure=overlap,
        delta=tower.delta,
    )


def _flat_base(tower: CyclicTower, denom: int, length: int) -> list[tuple[int, int]]:
    """The validated base of a certificate as sorted flat grid intervals."""
    if tower.height < 1:
        raise InvalidInput(f"tower height must be at least 1, got {tower.height}")
    if not tower.base:
        raise InvalidInput("tower base is empty")
    offsets = {Side.TOP: 0, Side.BOTTOM: length}
    base = []
    for side, lo, hi in tower.base:
        if side not in offsets:
            raise InvalidInput(f"tower base side {side!r} is not a Side")
        lo_int, hi_int = lo * denom, hi * denom
        if lo_int.denominator != 1 or hi_int.denominator != 1:
            raise InvalidInput("tower base does not live on the layout grid")
        if not 0 <= lo_int < hi_int <= length:
            raise InvalidInput(
                f"tower base interval [{lo}, {hi}) on {side.value} is not inside "
                f"[0, {Fraction(length, denom)}] with lo < hi"
            )
        base.append((offsets[side] + int(lo_int), offsets[side] + int(hi_int)))
    base.sort()
    for (_, prev_hi), (lo, _) in zip(base, base[1:]):
        if lo < prev_hi:
            raise InvalidInput("tower base intervals overlap")
    return base


def _full_union_measure(
    bounds: list[int],
    slopes: list[int],
    shifts: list[int],
    base: list[tuple[int, int]],
    height: int,
) -> int:
    """Union measure of all levels by explicit accumulation.

    Only needed when level disjointness fails, which degenerate towers do
    at small heights; tall verified towers take the additive path.  Each
    level is the images of the base's pieces composed once more by
    ``exchange._compose``.  The levels are flat intervals, so merging
    across the flat point L joins a top and a bottom interval without
    changing the measure.  Its pieces are those of levels 1 .. height - 1
    that ``verify_tower`` has already charged to its step budget.
    """
    union = list(base)
    pieces = [(lo, hi, 1, 0) for lo, hi in base]
    merge_cap = 4 * len(base) + 64
    for _ in range(1, height):
        pieces = _compose(pieces, bounds, slopes, shifts)
        union.extend(_image(*piece) for piece in pieces)
        if len(union) > merge_cap:
            union = _merge_intervals(union)
            merge_cap = max(merge_cap, 2 * len(union) + 64)
    return sum(hi - lo for lo, hi in _merge_intervals(union))


def _merge_intervals(intervals: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def find_cyclic_tower(
    x: Exchange,
    delta: Fraction,
    budget: int = DEFAULT_SPLIT_BUDGET,
    *,
    height_coprime_to: int | None = None,
    verify_budget: int = DEFAULT_VERIFY_BUDGET,
) -> CyclicTower:
    """Expand until a verified tower with constant ``delta`` appears.

    At each stage, every orientation preserving band is screened with the
    two exact tower measures; a band passing both screens is turned into a
    certificate and re-verified against the original map before being
    returned.  ``height_coprime_to`` restricts to heights coprime to the
    given prime.
    """
    delta = Fraction(delta)
    if not (0 < delta < 1):
        raise InvalidInput(f"delta must be in (0, 1), got {delta}")
    if budget < 0:
        raise InvalidInput("budget must be nonnegative")

    # The expansion runs on the integer grid of x; certificates convert
    # back to fractions.  Both screens compare exact integer cross products.
    denom = common_denominator(x.widths.values())
    widths = to_grid(x.widths, denom)
    start_length = sum(widths[a] for a in x.perm.top)
    d_num, d_den = delta.numerator, delta.denominator
    norms = {label: 1 for label in x.perm.alphabet}
    node = x.perm
    walk = rauzy._walk(x)
    depth = 0
    while True:
        for band in node.preserving_bands():
            height = norms[band]
            if height_coprime_to is not None and height % height_coprime_to == 0:
                continue
            width = widths[band]
            # The covered fraction 2 * height * width / total measure of x.
            if (start_length - height * width) * d_den >= d_num * start_length:
                continue
            (s1, lo1, hi1), (s2, lo2, hi2) = ends = _grid_ends(node, widths, band)
            if s1 is s2:
                raise InconsistentStage(f"preserving band {band} has same-side ends")
            # The height-iterate of the base is its own side swap, so the
            # return overlap is twice the intersection of the end spans.
            overlap = max(0, min(hi1, hi2) - max(lo1, lo2))
            if (width - overlap) * d_den >= d_num * width:
                continue
            if 2 * height > verify_budget:
                # Heights only grow along the expansion, so a qualifying
                # stage beyond the verification budget will not improve.
                raise BudgetExceeded(
                    f"qualifying tower height {height} exceeds the "
                    f"verification budget {verify_budget}"
                )
            tower = CyclicTower(
                band=band,
                depth=depth,
                height=height,
                base=tuple(
                    (side, Fraction(lo, denom), Fraction(hi, denom)) for side, lo, hi in ends
                ),
                delta=delta,
                xi=1 - Fraction(width, sum(widths[a] for a in node.top)),
            )
            report = verify_tower(x, tower, step_budget=verify_budget)
            if report.passed:
                return tower
        if depth >= budget:
            raise BudgetExceeded(f"no tower with delta {delta} within {budget} splits")
        try:
            node, widths, step = next(walk)
        except SplitUndefined as err:
            raise ExpansionHalted(err, depth) from err
        norms[step.loser] += norms[step.winner]
        depth += 1


def _grid_ends(
    node: GeneralizedPermutation, widths: dict[str, int], band: str
) -> tuple[tuple[Side, int, int], ...]:
    """The side intervals of a band's two ends, on the integer grid."""
    n_top = len(node.top)
    out = []
    for p in node.positions_of(band):
        if p < n_top:
            side, row, k = Side.TOP, node.top, p
        else:
            side, row, k = Side.BOTTOM, node.bottom, p - n_top
        lo = sum(widths[a] for a in row[:k])
        out.append((side, lo, lo + widths[band]))
    return tuple(out)


def _rigidity_defects(x: Exchange, ns: Sequence[int], max_pieces: int) -> list[Fraction]:
    """Exact defects of the iterates ``ns`` (increasing, all >= 1).

    One composition serves every requested iterate.  A piece of the n-th
    iterate is (lo, hi, slope, const) on the flat grid of ``x._flat``:
    the points [lo, hi) go to const + slope * f.  ``exchange._compose``
    takes the pieces of one iterate to the next.  A defect is one
    integer over 4 D^2.
    """
    denom, length, bounds, slopes, shifts = x._flat
    pieces = [
        (bounds[p], bounds[p + 1], slopes[p], shifts[p]) for p in range(len(slopes))
    ]
    scale = 4 * denom * denom
    defects = []
    n = 1
    for target in ns:
        while n < target:
            pieces = _compose(pieces, bounds, slopes, shifts)
            if len(pieces) > max_pieces:
                raise PartitionBlowup(f"iterated partition exceeded {max_pieces} pieces")
            n += 1
        defects.append(Fraction(_defect_numerator(pieces, length), scale))
    return defects


def _defect_numerator(pieces: list[tuple[int, int, int, int]], length: int) -> int:
    """The displacement integral of the pieces, times 4 D^2.

    A piece whose image lies on the other side is charged the side length.
    Within a side a slope +1 piece moves every point by |const|.  A slope
    -1 piece always lands on the other side, because every reversal of
    the map also swaps sides; one that stays raises InconsistentStage.
    """
    crossing = 0
    total = 0
    for lo, hi, slope, const in pieces:
        top = lo < length
        if slope == 1:
            if top != (const + lo < length):
                crossing += hi - lo
            else:
                total += 4 * abs(const) * (hi - lo)
        elif top != (const - hi < length):
            crossing += hi - lo
        else:
            raise InconsistentStage(f"slope -1 piece [{lo}, {hi}) stays on its side")
    return total + 4 * length * crossing


def rigidity_defect(
    x: Exchange, n: int, max_pieces: int = DEFAULT_PIECE_BUDGET
) -> Fraction:
    """Exact integral of the displacement of the n-th iterate."""
    if n < 1:
        raise InvalidInput("rigidity defect needs n >= 1")
    return _rigidity_defects(x, [n], max_pieces)[0]


def rigidity_profile(
    x: Exchange, n_max: int, max_pieces: int = DEFAULT_PIECE_BUDGET
) -> list[Fraction]:
    """Defects of all iterates 1 .. n_max, sharing the composed partition."""
    return _rigidity_defects(x, range(1, n_max + 1), max_pieces)


def find_rigidity_times(
    x: Exchange,
    xi: Fraction,
    candidates: Sequence[int],
    *,
    tower_budget: int = DEFAULT_SPLIT_BUDGET,
    max_pieces: int = DEFAULT_PIECE_BUDGET,
) -> list[RigidityRecord]:
    """Grade candidate iterates and tower heights by exact defect.

    Tower heights come from a ladder of tower constants shrinking toward
    the requested defect bound; the ladder stops quietly at the first
    depth the search cannot reach, candidate grading always completes.
    """
    xi = Fraction(xi)
    times = sorted(set(int(n) for n in candidates))
    if any(n < 1 for n in times):
        raise InvalidInput("candidates must be positive integers")
    heights: set[int] = set()
    ladder_delta = Fraction(1, 4)
    floor = xi / (4 * x.total_measure)
    while True:
        try:
            tower = find_cyclic_tower(x, ladder_delta, budget=tower_budget)
        except (BudgetExceeded, ExpansionHalted):
            break
        heights.add(tower.height)
        if ladder_delta <= floor:
            break
        ladder_delta = ladder_delta / 2
    ns = sorted(set(times) | heights)
    return [
        RigidityRecord(n=n, defect=defect, flagged=defect < xi)
        for n, defect in zip(ns, _rigidity_defects(x, ns, max_pieces))
    ]
