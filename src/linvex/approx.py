"""Cyclic tower certificates and rigidity times, checked by exact dynamics.

A cyclic tower certificate names a band at some induction depth, the two
base subintervals its ends occupy, and the tower height (the band's
column norm, equal to the first-return time).  The verifier grades the
four tower properties by exact interval images of the original map:
level disjointness from the base, linearity on every level, the fraction
of total measure covered by the levels, and the overlap of the base with
its height-iterate.  It works on the exchange's flat integer map, the
two sides laid end to end as [0, 2L) on the grid of the widths.  A base
must have height at least 1 and intervals on the grid with
0 <= lo < hi <= L, pairwise disjoint on each side; anything else is
InvalidInput.

The verifier has two paths with equal reports.  The replay, the
authority, chases each base interval's orbit through all height - 1
levels, one bisect and one affine update per level, with the remainder
of an image that crosses a breakpoint left on a stack.  The ladder has
one rung (``_rung``): the stage of the expansion that the certificate
names, laid out as its flat map with each position's return time.  The
walk's audits prove that map to be the exact first return of the
original map to the stage's side length, with each piece returning
after its band's column norm.  The base then takes a handful of steps
under that map instead of height steps under the original one.  A
search hands every certificate it verifies the rung it screened;
``verify_tower`` walks for one only when the tower is much taller than
its depth.  When the ladder cannot decide, the replay runs.

The searcher walks the expansion and screens candidates with two exact
measures that need no orbit iteration: the covered fraction is
``height * base width / total`` and the base-overlap of an orientation
preserving band is the intersection length of its two end intervals
(the height-iterate of the base is the side swap of the base), read
off the stage's rung.  The verifier remains authoritative; every
returned tower has been verified.

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

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import rauzy
from .errors import (
    BudgetExceeded,
    ExpansionHalted,
    InconsistentStage,
    InvalidInput,
    SplitUndefined,
)
from .exchange import Exchange, Side, _check_size, _compose, _exact, _grid_layout, _image
from .genperm import GeneralizedPermutation
from .rationals import format_fraction

DEFAULT_SPLIT_BUDGET = 10_000
DEFAULT_VERIFY_BUDGET = 10**7
# Pieces one rigidity composition may compose in all, over its iterates.
COMPOSE_BUDGET = 2 * 10**6

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

    The certificate must be well formed (``_flat_base``): ``depth`` a
    nonnegative int and ``height`` a positive int (not bools), ``band`` a
    band of x, ``delta`` an int or a Fraction (not a bool), at least one
    base interval, every bound an int or a Fraction (not a bool) on the
    grid of the widths with 0 <= lo < hi <= L, and the intervals pairwise
    disjoint on each side; otherwise InvalidInput.

    A tower taller than 64 (depth + 1) goes down the ladder first
    (``_verify_on_ladder``): one rung, the audited stage of x's expansion
    at the certificate's depth (or the last one whose sides still contain
    the base), which this call walks to.  Its base runs under the rung's
    map, the exact first return to the stage's side length, adding up
    column norms as return times.  The replay decides every other
    tower and every tower the ladder cannot decide, and the two give
    equal reports.  The replay iterates levels on the flat integer map
    ``x._flat`` (both sides end to end on the grid of the widths), so
    the arithmetic stays exact at machine-integer speed.  Each base
    interval's orbit is chased on its own: an image that crosses a
    breakpoint leaves its remainder on a stack with its level.  The last
    level's image, for the return overlap, is taken by
    ``exchange._compose``.  Disjointness is measured over interval
    interiors, so single shared endpoints do not count.

    ``step_budget`` bounds the replay's pieces of levels 1 .. height - 1
    summed over the levels.  The ladder charges the replay's work on a
    linear tower, len(base) * (height - 1), and raises the same
    BudgetExceeded when that is over budget; its only piece-steps, the
    base steps, must also fit the budget, or the replay runs.  Property
    failures are reported in the verdicts, never raised; only exceeding
    the step budget raises.  ``step_budget`` must be a nonnegative int
    (not a bool), else InvalidInput.
    """
    _check_size(step_budget, "step budget")
    return _verify(x, tower, step_budget, None)


def _verify(
    x: Exchange, tower: CyclicTower, step_budget: int, rung: _Rung | None
) -> TowerVerification:
    """``verify_tower`` with the ``_rung`` of x's expansion at the
    certificate's depth in hand, or None.  With a rung every certificate
    tries the ladder first; None walks for one only for a tower taller
    than ``_LADDER_HEIGHT_PER_DEPTH`` times its depth plus one."""
    base = _flat_base(x, tower)
    length, bounds, slopes, shifts = x._flat[1:]
    height = tower.height
    last = height - 1
    if rung is not None or height > _LADDER_HEIGHT_PER_DEPTH * (tower.depth + 1):
        # Every base interval fills at least one piece of each level, so
        # the replay would spend at least this much and raise.
        if len(base) * last > step_budget:
            raise _over_budget(step_budget)
        report = _verify_on_ladder(x, tower, base, step_budget, rung)
        if report is not None:
            return report
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
                raise _over_budget(step_budget)
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
                overlap_int += _base_overlap(flo, fhi, base_lo, base_hi)

    if disjoint:
        # level-vs-base disjointness for every offset k < height implies
        # pairwise level disjointness (a collision of levels i < j pulls
        # back through the measure-preserving map to a collision of the
        # base with level j - i), so the union measure is additive
        union_int = height * sum(hi - lo for lo, hi in base)
    else:
        union_int = _full_union_measure(bounds, slopes, shifts, base, height)
    return _verification(x, tower, base, disjoint, linear, union_int, overlap_int)


def _over_budget(step_budget: int) -> BudgetExceeded:
    return BudgetExceeded(f"tower verification exceeded {step_budget} interval steps")


def _base_overlap(lo: int, hi: int, base_lo: list[int], base_hi: list[int]) -> int:
    """The measure of [lo, hi) inside the base, given as sorted starts
    with a sentinel and ends."""
    overlap = 0
    j = bisect_right(base_hi, lo)
    while base_lo[j] < hi:
        overlap += min(hi, base_hi[j]) - max(lo, base_lo[j])
        j += 1
    return overlap


def _verification(
    x: Exchange,
    tower: CyclicTower,
    base: list[tuple[int, int]],
    disjoint: bool,
    linear: bool,
    union_int: int,
    overlap_int: int,
) -> TowerVerification:
    """The report for a flat base and measures on the grid of x."""
    denom = x._flat[0]
    base_measure = Fraction(sum(hi - lo for lo, hi in base), denom)
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


# Below this height per unit of depth the walk to the certificate's depth
# costs more than the replay, so public ``verify_tower`` walks for the
# ladder only above it.  A search hands its own verification the stage it
# has walked, where only the base steps cost, so there every certificate
# tries the ladder.
_LADDER_HEIGHT_PER_DEPTH = 64

# A stage of x's expansion on x's integer grid: (cut, bounds, slopes,
# shifts, times), its flat map and each position's return time.
_Rung = tuple[int, list[int], list[int], list[int], list[int]]


def _rung(node: GeneralizedPermutation, widths: dict[str, int], norms: dict[str, int]) -> _Rung:
    """The one layout of a stage: ``_grid_layout(node, widths)`` and the
    column norm of each position's band."""
    return (*_grid_layout(node, widths), [norms[label] for label in node.top + node.bottom])


def _verify_on_ladder(
    x: Exchange,
    tower: CyclicTower,
    base: list[tuple[int, int]],
    step_budget: int,
    rung: _Rung | None = None,
) -> TowerVerification | None:
    """The report of a tower verified on the first-return map of a stage
    of x's expansion, or None when the ladder cannot decide.

    ``base`` is the validated flat base.  ``rung`` is the search's rung
    or, when None, the one ``_walked_stage`` walks to at the certificate's
    depth; it is read as given.  The ladder has one rung: the stage's
    flat map on its own coordinates [0, 2 cut), with its band's column
    norm as return time at each position.  Every run of the walk is
    audited (``rauzy._run``), so by
    induction that map is the exact first return of ``x._flat`` to
    [0, cut) and [L, L + cut), and each position returns after its
    label's column norm.  A position never meets a breakpoint of the
    original map on its way, and its levels between two returns lie
    outside the cut domain, so outside the base.  Hence, when every base
    image stays inside one position, meets the base only at time
    ``height`` and lands on that time exactly, the levels are linear and
    disjoint from the base, the union is height times the base, and the
    overlap is measured at time ``height``.  Otherwise the ladder gives
    up, as it does when its base steps, its only piece-steps, exceed
    ``step_budget`` or the stage's side is shorter than the base needs.
    """
    length = x._flat[1]
    # the base's right end on its side: the stage's sides must contain it
    need = max(hi - (length if lo >= length else 0) for lo, hi in base)
    if rung is None:
        rung = _walked_stage(x, tower.depth, need)
    cut, bounds, slopes, shifts, times = rung
    if cut < need:
        return None
    # bottom points move down by L - cut in the stage's coordinates
    drop = length - cut
    rbase = [(lo, hi) if lo < length else (lo - drop, hi - drop) for lo, hi in base]
    base_lo = [lo for lo, _ in rbase] + [2 * cut]
    base_hi = [hi for _, hi in rbase]
    height = tower.height
    overlap_int = 0
    work = 0
    for lo, hi in rbase:
        level = 0
        while level < height:
            p = bisect_right(bounds, lo) - 1
            if hi > bounds[p + 1]:
                return None
            work += 1
            if work > step_budget:
                return None
            level += times[p]
            shift = shifts[p]
            if slopes[p] == 1:
                lo, hi = shift + lo, shift + hi
            else:
                lo, hi = shift - hi, shift - lo
            if level < height and base_lo[bisect_right(base_hi, lo)] < hi:
                return None
        if level > height:
            return None
        overlap_int += _base_overlap(lo, hi, base_lo, base_hi)
    union_int = height * sum(hi - lo for lo, hi in base)
    return _verification(x, tower, base, True, True, union_int, overlap_int)


def _walked_stage(x: Exchange, depth: int, need: int) -> _Rung:
    """The rung of x's expansion at ``depth``, or of the last stage whose
    side length is still at least ``need``; an undefined split ends the
    walk early.  Depth 0, the side length of x, always qualifies."""
    kept = None
    try:
        for node, widths, norms, _ in rauzy._walk(x, depth):
            if sum(widths[a] for a in node.top) < need:
                break
            kept = node, widths, norms
    except SplitUndefined:
        pass
    return _rung(*kept)


def _flat_base(x: Exchange, tower: CyclicTower) -> list[tuple[int, int]]:
    """The base of a certificate as sorted flat grid intervals of x, once
    every field is checked as ``verify_tower`` documents, in its order.
    Any exact delta grades, so its range is not checked."""
    _check_size(tower.depth, "tower depth")
    _check_size(tower.height, "tower height", 1)
    if tower.band not in x.perm.alphabet:
        raise InvalidInput(f"tower band {tower.band!r} is not a band of {x.perm}")
    _exact(tower.delta, "tower delta")
    if not tower.base:
        raise InvalidInput("tower base is empty")
    denom, length = x._flat[:2]
    offsets = {Side.TOP: 0, Side.BOTTOM: length}
    base = []
    for side, lo, hi in tower.base:
        if side not in offsets:
            raise InvalidInput(f"tower base side {side!r} is not a Side")
        lo_int = _exact(lo, "tower base bound") * denom
        hi_int = _exact(hi, "tower base bound") * denom
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


def _check_search(delta, budget) -> Fraction:
    """A tower search's ``delta`` as a Fraction, once it and ``budget`` are
    checked as ``find_cyclic_tower`` documents; else InvalidInput."""
    delta = _exact(delta, "delta")
    if not (0 < delta < 1):
        raise InvalidInput(f"delta must be in (0, 1), got {delta}")
    _check_size(budget, "budget")
    return delta


def find_cyclic_tower(
    x: Exchange,
    delta: Fraction,
    budget: int = DEFAULT_SPLIT_BUDGET,
    *,
    height_coprime_to: int | None = None,
) -> CyclicTower:
    """Expand until a verified tower with constant ``delta`` appears.

    At each stage, every orientation preserving band is screened with the
    two exact tower measures; a band passing both screens is turned into a
    certificate and re-verified against the original map, within
    ``DEFAULT_VERIFY_BUDGET`` interval steps, before being returned.
    ``height_coprime_to`` restricts to heights coprime to the given prime.
    ``delta`` must be exact, an int or a Fraction (not a bool), in (0, 1);
    ``budget``, the deepest stage screened, must be a nonnegative int
    (not a bool); else InvalidInput.  Past the budget, BudgetExceeded.

    The expansion is walked once per search (``rauzy._walk``).  A stage
    is laid out (``_rung``) the first time one of its bands passes the
    coverage screen; the ends are read off that rung, and the search
    hands it to the verification as the ladder's one rung, so a
    certificate does not walk the expansion again.
    """
    delta = _check_search(delta, budget)

    # The expansion runs on the integer grid of x; certificates convert
    # back to fractions.  Both screens compare exact integer cross products.
    denom, length = x._flat[:2]
    d_num, d_den = delta.numerator, delta.denominator
    try:
        # the screens and verifications split nothing: a halt is the walk's
        for depth, (node, widths, norms, _) in enumerate(rauzy._walk(x, budget)):
            rung = None
            for band in node.preserving_bands():
                height = norms[band]
                if height_coprime_to is not None and math.gcd(height, height_coprime_to) != 1:
                    continue
                width = widths[band]
                # The covered fraction 2 * height * width / total measure of x.
                if (length - height * width) * d_den >= d_num * length:
                    continue
                if rung is None:
                    rung = _rung(node, widths, norms)
                    cut, bounds = rung[:2]
                p, q = node.positions_of(band)
                if not p < len(node.top) <= q:
                    raise InconsistentStage(f"preserving band {band} has same-side ends")
                # the top end, and the bottom end on its side's coordinates
                lo1, hi1 = bounds[p], bounds[p + 1]
                lo2, hi2 = bounds[q] - cut, bounds[q + 1] - cut
                # The height-iterate of the base is its own side swap, so the
                # return overlap is twice the intersection of the end spans.
                overlap = max(0, min(hi1, hi2) - max(lo1, lo2))
                if (width - overlap) * d_den >= d_num * width:
                    continue
                if 2 * height > DEFAULT_VERIFY_BUDGET:
                    # Heights only grow along the expansion, so a qualifying
                    # stage beyond the verification budget will not improve.
                    raise BudgetExceeded(
                        f"qualifying tower height {height} exceeds the "
                        f"verification budget {DEFAULT_VERIFY_BUDGET}"
                    )
                tower = CyclicTower(
                    band=band,
                    depth=depth,
                    height=height,
                    base=(
                        (Side.TOP, Fraction(lo1, denom), Fraction(hi1, denom)),
                        (Side.BOTTOM, Fraction(lo2, denom), Fraction(hi2, denom)),
                    ),
                    delta=delta,
                    xi=1 - Fraction(width, cut),
                )
                report = _verify(x, tower, DEFAULT_VERIFY_BUDGET, rung)
                if report.passed:
                    return tower
    except SplitUndefined as err:
        raise ExpansionHalted(err, depth) from err
    raise BudgetExceeded(f"no tower with delta {delta} within {budget} splits")


def _rigidity_defects(x: Exchange, ns: Sequence[int]) -> Iterator[Fraction]:
    """Exact defects of the iterates ``ns`` (increasing, all >= 1), lazily.

    One composition serves every requested iterate.  A piece of the n-th
    iterate is (lo, hi, slope, const) on the flat grid of ``x._flat``:
    the points [lo, hi) go to const + slope * f.  ``exchange._compose``
    takes the pieces of one iterate to the next.  A defect is one
    integer over 4 D^2.  ``_compose`` only splits pieces, so each iterate
    left costs at least the current pieces: after every composition, the
    pieces composed so far plus that bound are checked against
    ``COMPOSE_BUDGET``, and a target past it raises BudgetExceeded
    without composing toward it.  At the target the bound is the total.
    """
    denom, length, bounds, slopes, shifts = x._flat
    pieces = [
        (bounds[p], bounds[p + 1], slopes[p], shifts[p]) for p in range(len(slopes))
    ]
    scale = 4 * denom * denom
    composed = 0
    n = 1
    for target in ns:
        while n < target:
            pieces = _compose(pieces, bounds, slopes, shifts)
            composed += len(pieces)
            n += 1
            if composed + len(pieces) * (target - n) > COMPOSE_BUDGET:
                raise BudgetExceeded(f"iterate {target} needs over {COMPOSE_BUDGET} pieces")
        yield Fraction(_defect_numerator(pieces, length), scale)


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


def rigidity_defect(x: Exchange, n: int) -> Fraction:
    """Exact integral of the displacement of the n-th iterate; ``n`` must
    be a positive int (not a bool), else InvalidInput."""
    _check_size(n, "rigidity iterate", 1)
    return next(_rigidity_defects(x, [n]))


def rigidity_profile(x: Exchange, n_max: int) -> list[Fraction]:
    """Defects of all iterates 1 .. n_max, sharing the composed partition;
    ``n_max`` must be a nonnegative int (not a bool), else InvalidInput."""
    _check_size(n_max, "rigidity n_max")
    return list(_rigidity_defects(x, range(1, n_max + 1)))


def find_rigidity_times(
    x: Exchange,
    xi: Fraction,
    candidates: Sequence[int],
    *,
    tower_budget: int = DEFAULT_SPLIT_BUDGET,
) -> list[RigidityRecord]:
    """Grade candidate iterates and tower heights by exact defect.

    Tower heights come from a ladder of tower constants shrinking toward
    the requested defect bound; the ladder stops quietly at the first
    depth the search cannot reach, and drops the heights past
    ``COMPOSE_BUDGET`` composed pieces without composing toward them; a
    candidate past it raises.  A candidate that is not a positive int
    (bools included), or an ``xi`` that is not an int or a Fraction, is
    InvalidInput.
    """
    xi = _exact(xi, "xi")
    for n in candidates:
        _check_size(n, "rigidity iterate", 1)
    times = sorted(set(candidates))
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
    records = []
    try:
        for n, defect in zip(ns, _rigidity_defects(x, ns)):
            records.append(RigidityRecord(n=n, defect=defect, flagged=defect < xi))
    except BudgetExceeded:
        if ns[len(records)] <= max(times, default=0):
            raise  # a candidate; only ladder heights may be dropped
    return records
