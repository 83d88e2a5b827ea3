"""Cyclic tower certificates and rigidity times, checked by exact dynamics.

A cyclic tower certificate names a band at some induction depth, the two
base subintervals its ends occupy, and the tower height (the band's
column norm, equal to the first-return time).  The verifier recomputes
the tower's levels by exact interval images of the original map and
grades the four tower properties: level disjointness from the base,
linearity on every level, the fraction of total measure covered by the
levels, and the overlap of the base with its height-iterate.

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
displacement, so a vanishing defect still characterizes rigidity.
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
from .exchange import Exchange, Side
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


def _image_of_int_interval(
    layout, side: Side, lo: int, hi: int
) -> tuple[list[tuple[Side, int, int]], bool]:
    """Exact integer-scaled image of [lo, hi); mirrors image_of_interval."""
    pieces: list[tuple[Side, int, int]] = []
    starts = layout.starts[side]
    cursor = lo
    split = False
    while cursor < hi:
        idx = bisect_right(starts, cursor) - 1
        pos = layout.pos_of[side][idx]
        end_hi = starts[idx + 1] if idx + 1 < len(starts) else layout.length
        seg_hi = hi if hi <= end_hi else end_hi
        if seg_hi < hi:
            split = True
        const, slope = layout.const[pos], layout.slope[pos]
        if slope == 1:
            pieces.append((layout.out_side[pos], const + cursor, const + seg_hi))
        else:
            pieces.append((layout.out_side[pos], const - seg_hi, const - cursor))
        cursor = seg_hi
    return pieces, split


def verify_tower(
    x: Exchange, tower: CyclicTower, step_budget: int = DEFAULT_VERIFY_BUDGET
) -> TowerVerification:
    """Check the four tower properties by exact interval iteration.

    Levels are iterated on the integer-scaled layout (every endpoint is a
    multiple of one over the common width denominator), so the arithmetic
    stays exact at machine-integer speed.  Disjointness is measured over
    interval interiors, so single shared endpoints do not count.
    Property failures are reported in the verdicts, never raised; only
    exceeding the step budget raises.
    """
    layout = x.integer_layout()
    denom = layout.denominator

    def scaled(v: Fraction) -> int:
        scaled_v = v * denom
        if scaled_v.denominator != 1:
            raise InvalidInput("tower base does not live on the layout grid")
        return int(scaled_v)

    base = [(side, scaled(lo), scaled(hi)) for side, lo, hi in tower.base]
    base_by_side: dict[Side, list[tuple[int, int]]] = {Side.TOP: [], Side.BOTTOM: []}
    for side, lo, hi in base:
        base_by_side[side].append((lo, hi))

    def base_overlap(pieces: list[tuple[Side, int, int]]) -> int:
        total = 0
        for side, lo, hi in pieces:
            for blo, bhi in base_by_side[side]:
                lo2, hi2 = (lo if lo > blo else blo), (hi if hi < bhi else bhi)
                if hi2 > lo2:
                    total += hi2 - lo2
        return total

    current: list[tuple[Side, int, int]] = list(base)
    disjoint = True
    linear = True
    work = 0
    base_measure_int = sum(hi - lo for _, lo, hi in base)
    # hot loop: local bindings, single-piece fast path, and additive union
    # accounting while the verified levels stay pairwise disjoint
    starts = layout.starts
    pos_of = layout.pos_of
    out_side = layout.out_side
    slopes = layout.slope
    consts = layout.const
    length = layout.length
    for _ in range(1, tower.height):
        nxt: list[tuple[Side, int, int]] = []
        for side, lo, hi in current:
            side_starts = starts[side]
            idx = bisect_right(side_starts, lo) - 1
            end_hi = side_starts[idx + 1] if idx + 1 < len(side_starts) else length
            if hi <= end_hi:
                pos = pos_of[side][idx]
                const = consts[pos]
                if slopes[pos] == 1:
                    nxt.append((out_side[pos], const + lo, const + hi))
                else:
                    nxt.append((out_side[pos], const - hi, const - lo))
            else:
                pieces, _ = _image_of_int_interval(layout, side, lo, hi)
                linear = False
                nxt.extend(pieces)
        current = nxt
        work += len(current)
        if work > step_budget:
            raise BudgetExceeded(
                f"tower verification exceeded {step_budget} interval steps"
            )
        if disjoint and base_overlap(current) > 0:
            disjoint = False
    final: list[tuple[Side, int, int]] = []
    for side, lo, hi in current:
        pieces, _ = _image_of_int_interval(layout, side, lo, hi)
        final.extend(pieces)

    if disjoint:
        # level-vs-base disjointness for every offset k < height implies
        # pairwise level disjointness (a collision of levels i < j pulls
        # back through the measure-preserving map to a collision of the
        # base with level j - i), so the union measure is additive
        union_int = tower.height * base_measure_int
    else:
        union_int = _full_union_measure(layout, base, tower.height, step_budget)
    overlap_int = base_overlap(final)
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


def _full_union_measure(
    layout, base: list[tuple[Side, int, int]], height: int, step_budget: int
) -> int:
    """Union measure of all levels by explicit accumulation.

    Only needed when level disjointness fails, which degenerate towers do
    at small heights; tall verified towers take the additive path.
    """
    union: list[tuple[Side, int, int]] = list(base)
    current = list(base)
    work = 0
    merge_cap = 4 * len(base) + 64
    for _ in range(1, height):
        nxt: list[tuple[Side, int, int]] = []
        for side, lo, hi in current:
            pieces, _ = _image_of_int_interval(layout, side, lo, hi)
            nxt.extend(pieces)
        current = nxt
        union.extend(current)
        work += len(current)
        if work > step_budget:
            raise BudgetExceeded("union accumulation exceeded the step budget")
        if len(union) > merge_cap:
            union = _merge_int_intervals(union)
            merge_cap = max(merge_cap, 2 * len(union) + 64)
    return sum(hi - lo for _, lo, hi in _merge_int_intervals(union))


def _merge_int_intervals(
    intervals: Sequence[tuple[Side, int, int]]
) -> list[tuple[Side, int, int]]:
    merged: list[tuple[Side, int, int]] = []
    for side in (Side.TOP, Side.BOTTOM):
        spans = sorted((lo, hi) for s, lo, hi in intervals if s is side)
        cur_lo: int | None = None
        cur_hi = 0
        for lo, hi in spans:
            if cur_lo is None or lo > cur_hi:
                if cur_lo is not None:
                    merged.append((side, cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_lo is not None:
            merged.append((side, cur_lo, cur_hi))
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


_Piece = tuple[Side, Fraction, Fraction, Side, int, Fraction]
# (src_side, lo, hi, out_side, slope, const): image = const + slope * t


def _one_step_pieces(x: Exchange) -> list[_Piece]:
    pieces: list[_Piece] = []
    for side in (Side.TOP, Side.BOTTOM):
        for p in x._positions[side]:
            lo = x._pos_start[p]
            hi = lo + x._pos_width[p]
            pieces.append((side, lo, hi, x._apply_side[p], x._apply_slope[p], x._apply_const[p]))
    return pieces


def _compose_with_map(pieces: list[_Piece], x: Exchange, max_pieces: int) -> list[_Piece]:
    out: list[_Piece] = []
    for side, lo, hi, oside, slope, const in pieces:
        if slope == 1:
            img_lo, img_hi = const + lo, const + hi
        else:
            img_lo, img_hi = const - hi, const - lo
        cursor = img_lo
        while cursor < img_hi:
            p = x.locate(oside, cursor)
            seg_hi = min(img_hi, x._pos_start[p] + x._pos_width[p])
            nslope = slope * x._apply_slope[p]
            nconst = x._apply_const[p] + x._apply_slope[p] * const
            if slope == 1:
                s_lo, s_hi = cursor - const, seg_hi - const
            else:
                s_lo, s_hi = const - seg_hi, const - cursor
            out.append((side, s_lo, s_hi, x._apply_side[p], nslope, nconst))
            cursor = seg_hi
        if len(out) > max_pieces:
            raise PartitionBlowup(f"iterated partition exceeded {max_pieces} pieces")
    out.sort(key=lambda piece: (piece[0].value, piece[1]))
    return out


def _defect_of_pieces(pieces: list[_Piece], side_length: Fraction) -> Fraction:
    total = Fraction(0)
    for side, lo, hi, oside, slope, const in pieces:
        length = hi - lo
        if side is not oside:
            total += side_length * length
        elif slope == 1:
            total += abs(const) * length
        else:
            # displacement is |const - 2 t|, a tent with kink at const / 2
            kink = const / 2
            if lo < kink < hi:
                total += (kink - lo) * (const - 2 * lo) / 2
                total += (hi - kink) * (2 * hi - const) / 2
            else:
                a = abs(const - 2 * lo)
                b = abs(const - 2 * hi)
                total += (a + b) * length / 2
    return total


def rigidity_defect(
    x: Exchange, n: int, max_pieces: int = DEFAULT_PIECE_BUDGET
) -> Fraction:
    """Exact integral of the displacement of the n-th iterate."""
    if n < 1:
        raise InvalidInput("rigidity defect needs n >= 1")
    pieces = _one_step_pieces(x)
    for _ in range(n - 1):
        pieces = _compose_with_map(pieces, x, max_pieces)
    return _defect_of_pieces(pieces, x.side_length)


def rigidity_profile(
    x: Exchange, n_max: int, max_pieces: int = DEFAULT_PIECE_BUDGET
) -> list[Fraction]:
    """Defects of all iterates 1 .. n_max, sharing the composed partition."""
    if n_max < 1:
        return []
    pieces = _one_step_pieces(x)
    out = [_defect_of_pieces(pieces, x.side_length)]
    for _ in range(n_max - 1):
        pieces = _compose_with_map(pieces, x, max_pieces)
        out.append(_defect_of_pieces(pieces, x.side_length))
    return out


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
    records = []
    for n in sorted(set(times) | heights):
        defect = rigidity_defect(x, n, max_pieces=max_pieces)
        records.append(RigidityRecord(n=n, defect=defect, flagged=defect < xi))
    return records
