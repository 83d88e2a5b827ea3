"""Tower certificates, exact verification, and rigidity defects."""

from __future__ import annotations

import json
import random
import re
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvex import approx, cli, exchange, genperm, modp, rauzy
from linvex.approx import CyclicTower, TowerVerification
from linvex.errors import (
    LIMITS,
    BudgetExceeded,
    ExpansionHalted,
    InconsistentStage,
    InvalidInput,
    SplitUndefined,
)
from linvex.exchange import Exchange, Point, Side, build
from linvex.rationals import canonical_json_bytes, to_grid

from conftest import (
    STUCK_FREE_NONCLASSICAL,
    FractionLayout,
    IntegerLayout,
    perm_pool,
    random_fleet,
    random_grid_widths,
    sample_exchange,
    tower_fleet,
)
from test_rauzy import _insert_one_slot_off, _oracle_chain

ROTATION = genperm.validate(["A", "B"], ["B", "A"])


def rotation(a, b, q):
    return build(ROTATION, {"A": F(a, q), "B": F(b, q)})


def manual_tower(x, depth, band, delta):
    """Assemble a tower certificate for a band at a given stage by hand."""
    stage = rauzy.expand(x, depth)
    assert stage.depth == depth
    induced = rauzy.induced_exchange(stage, x)
    return approx.CyclicTower(
        band=band,
        depth=depth,
        height=stage.matrix.column_norm(band),
        base=induced.end_intervals(band),
        delta=F(delta),
        xi=1 - induced.widths[band] / induced.side_length,
    )


def test_verify_one_split_tower_exact_measures():
    # loser band after one split of the (3/7, 1/7) rotation
    x = rotation(3, 1, 7)
    tower = manual_tower(x, 1, "B", F(3, 4))
    assert tower.height == 2
    assert set(tower.base) == {
        (Side.TOP, F(2, 7), F(3, 7)),
        (Side.BOTTOM, F(0), F(1, 7)),
    }
    report = approx.verify_tower(x, tower)
    assert report.disjoint_levels and report.linear_on_levels
    assert report.union_fraction == F(1, 2)
    assert report.overlap_fraction == 0
    assert not report.passed  # overlap needs delta above one


def test_verify_winner_band_one_split():
    x = rotation(3, 1, 7)
    tower = manual_tower(x, 1, "A", F(3, 4))
    assert tower.height == 1
    report = approx.verify_tower(x, tower)
    assert report.union_fraction == F(1, 2)
    assert report.overlap_fraction == F(1, 2)


def test_verify_depth_zero_degenerate_tower():
    x = rotation(3, 1, 7)
    tower = manual_tower(x, 0, "A", F(1, 10))
    assert tower.height == 1
    report = approx.verify_tower(x, tower)
    # base is both A-ends; its one-step image is the side swap
    assert report.union_fraction == F(3, 4)
    assert report.overlap_fraction == F(2, 3)
    assert not report.passed


def test_verify_is_idempotent():
    x = rotation(34, 21, 144)
    tower = approx.find_cyclic_tower(x, F(11, 20))
    first = approx.verify_tower(x, tower)
    second = approx.verify_tower(x, tower)
    assert first == second and first.passed


def test_golden_pair_tower_lands_on_fibonacci_height():
    x = rotation(34, 21, 144)
    tower = approx.find_cyclic_tower(x, F(11, 20))
    assert (tower.band, tower.depth, tower.height) == ("A", 6, 21)
    fib = {1, 2, 3, 5, 8, 13, 21, 34, 55}
    assert tower.height in fib
    assert approx.verify_tower(x, tower).passed


def test_tower_height_matches_return_time():
    x = rotation(37, 9, 100)
    tower = approx.find_cyclic_tower(x, F(1, 4))
    visits = rauzy.visit_counts(x, tower.depth)
    assert tower.height == sum(visits.column(tower.band))


def test_find_tower_rejects_bad_delta():
    x = rotation(3, 1, 7)
    with pytest.raises(InvalidInput):
        approx.find_cyclic_tower(x, F(3, 2))


@pytest.mark.parametrize("value", [0.3, "1/4", True, None], ids=["float", "str", "bool", "none"])
def test_tower_constant_and_rigidity_bound_must_be_exact(monkeypatch, value):
    # a float used to run on its binary expansion, and "1/4" was parsed
    x = rotation(3, 1, 7)

    def untouched(*args, **kwargs):
        raise AssertionError("walked before the exactness check")

    monkeypatch.setattr(rauzy, "_walk", untouched)
    monkeypatch.setattr(approx, "_compose", untouched)
    with pytest.raises(InvalidInput, match="^delta must be an int or a Fraction"):
        approx.find_cyclic_tower(x, value)
    with pytest.raises(InvalidInput, match="^xi must be an int or a Fraction"):
        approx.find_rigidity_times(x, value, [1, 2])


@pytest.mark.parametrize("budget", [2.5, 6.0, F(6), True, "6", None, -1])
def test_find_tower_rejects_a_budget_that_is_not_a_nonnegative_int(budget):
    # 2.5 used to run and report "within 2.5 splits"
    x = rotation(34, 21, 144)
    with pytest.raises(InvalidInput, match="budget must be a nonnegative int"):
        approx.find_cyclic_tower(x, F(1, 4), budget=budget)


def test_find_tower_budget_exhaustion():
    x = rotation(34, 21, 144)  # golden pair never reaches delta 1/4
    with pytest.raises((BudgetExceeded, ExpansionHalted)):
        approx.find_cyclic_tower(x, F(1, 4), budget=6)


def test_towers_on_nonclassical_fleet():
    passed = 0
    for perm in perm_pool(STUCK_FREE_NONCLASSICAL[:4]):
        for seed in (1, 2):
            x = sample_exchange(perm, seed=seed * 31)
            try:
                tower = approx.find_cyclic_tower(x, F(1, 4), budget=10_000)
            except (BudgetExceeded, ExpansionHalted):
                continue
            report = approx.verify_tower(x, tower)
            assert report.passed
            assert report.achieved_delta < F(1, 4)
            passed += 1
    assert passed >= 5


def test_rigidity_defect_periodic_rotation():
    # rotation by 1/4 on sides of length 3/4 has period 3
    x = rotation(1, 1, 2)  # widths 1/2, 1/2 -> not splittable but fine here
    x = build(ROTATION, {"A": F(1, 2), "B": F(1, 4)})
    assert approx.rigidity_defect(x, 3) == 0
    assert approx.rigidity_defect(x, 1) == F(1, 2)
    assert approx.rigidity_defect(x, 2) == F(1, 2)


def test_rigidity_defect_rotation_exact_value():
    x = rotation(3, 1, 7)
    assert approx.rigidity_defect(x, 1) == F(12, 49)


def test_rigidity_defect_matches_riemann_oracle():
    x = rotation(3, 1, 7)
    exact = approx.rigidity_defect(x, 1)
    samples = 200_000
    total = 0.0
    length = x.side_length
    for side in (Side.TOP, Side.BOTTOM):
        for k in range(samples):
            t = length * F(2 * k + 1, 2 * samples)
            image = x.apply(Point(side, t))
            if image.side is side:
                total += abs(float(image.offset) - float(t))
            else:
                total += float(length)
    riemann = total * float(length) / samples
    assert abs(riemann - float(exact)) < 1e-4


def test_rigidity_defect_trivial_bound():
    for x in random_fleet(seed=21, count=6):
        bound = x.side_length * x.total_measure
        for n in (1, 2, 5):
            assert approx.rigidity_defect(x, n) <= bound


def test_rigidity_profile_matches_single_shots():
    x = rotation(5, 3, 11)
    profile = approx.rigidity_profile(x, 8)
    for n in (1, 2, 3, 8):
        assert profile[n - 1] == approx.rigidity_defect(x, n)


def test_defect_vanishes_iff_periodic():
    x = build(ROTATION, {"A": F(1, 2), "B": F(1, 4)})
    profile = approx.rigidity_profile(x, 9)
    zero_at = [n for n, d in enumerate(profile, start=1) if d == 0]
    assert zero_at == [3, 6, 9]


def test_find_rigidity_times_records():
    x = rotation(37, 9, 100)
    records = approx.find_rigidity_times(x, F(1, 100), [1, 2, 3])
    by_n = {r.n: r for r in records}
    assert {1, 2, 3} <= set(by_n)
    for r in records:
        assert r.flagged == (r.defect < F(1, 100))
    assert records == sorted(records, key=lambda r: r.n)


def test_find_rigidity_times_generous_threshold_flags_all():
    x = rotation(3, 1, 7)
    xi = x.side_length * x.total_measure  # above the defect bound
    records = approx.find_rigidity_times(x, xi, [1, 2, 3, 4])
    assert all(r.flagged for r in records)


@pytest.mark.parametrize("n", [2.5, True, 0, -1, "3"])
def test_rigidity_rejects_an_iterate_that_is_not_a_positive_int(monkeypatch, n):
    x = rotation(3, 1, 7)

    def untouched(*args, **kwargs):
        raise AssertionError("composed before the iterate check")

    monkeypatch.setattr(approx, "_compose", untouched)
    message = re.escape(f"rigidity iterate must be a positive int, got {n!r}")
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        approx.rigidity_defect(x, n)
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        approx.find_rigidity_times(x, F(1, 100), [1, n, 3])


@pytest.mark.parametrize("n_max", [2.5, True, -1, "3"])
def test_rigidity_profile_rejects_a_length_that_is_not_a_nonnegative_int(n_max):
    with pytest.raises(InvalidInput, match="rigidity n_max must be a nonnegative int"):
        approx.rigidity_profile(rotation(3, 1, 7), n_max)


def test_rigidity_profile_of_length_zero_is_empty():
    assert approx.rigidity_profile(rotation(3, 1, 7), 0) == []


def _composed_totals(x, n_max):
    """Pieces composed in all to reach each iterate 1 .. n_max."""
    _, _, bounds, slopes, shifts = x._flat
    pieces = [(bounds[p], bounds[p + 1], slopes[p], shifts[p]) for p in range(len(slopes))]
    totals = [0]
    for _ in range(n_max - 1):
        pieces = exchange._compose(pieces, bounds, slopes, shifts)
        totals.append(totals[-1] + len(pieces))
    return totals


def test_rigidity_compose_budget_raises_past_its_total(monkeypatch):
    for x in [rotation(5, 3, 11), *random_fleet(seed=33, count=3)]:
        totals = _composed_totals(x, 9)
        profile = approx.rigidity_profile(x, 9)
        monkeypatch.setitem(LIMITS, "composed_pieces", totals[-1])
        assert approx.rigidity_profile(x, 9) == profile
        assert approx.rigidity_defect(x, 9) == profile[-1]
        monkeypatch.setitem(LIMITS, "composed_pieces", totals[-1] - 1)
        with pytest.raises(BudgetExceeded, match="iterate 9 needs over"):
            approx.rigidity_profile(x, 9)
        with pytest.raises(BudgetExceeded):
            approx.rigidity_defect(x, 9)
        assert approx.rigidity_profile(x, 8) == profile[:8]
        monkeypatch.undo()


def test_rigidity_ladder_stops_quietly_before_the_compose_budget(monkeypatch):
    x = rotation(37, 9, 100)
    full = approx.find_rigidity_times(x, F(1, 100), [1, 2])
    assert max(r.n for r in full) > 2
    monkeypatch.setitem(LIMITS, "composed_pieces", _composed_totals(x, 2)[-1])
    assert approx.find_rigidity_times(x, F(1, 100), [1, 2]) == full[:2]
    with pytest.raises(BudgetExceeded):
        approx.find_rigidity_times(x, F(1, 100), [1, 2, 3])


def test_one_composition_adds_at_most_the_interior_breakpoints():
    # The flat map has 2d - 1 interior breakpoints and an iterate's images
    # are disjoint, so one composition splits at most 2d - 1 pieces and
    # merges none: the budget's bound on the iterates left is a lower one.
    rng = random.Random(34)
    for d in range(1, 5):
        for perm in genperm.enumerate_permutations(d):
            x = build(perm, {a: F(v) for a, v in random_grid_widths(perm, rng).items()})
            _, _, bounds, slopes, shifts = x._flat
            pieces = [(bounds[p], bounds[p + 1], slopes[p], shifts[p]) for p in range(2 * d)]
            for _ in range(30):
                grown = exchange._compose(pieces, bounds, slopes, shifts)
                assert len(pieces) <= len(grown) <= len(pieces) + 2 * d - 1, x
                pieces = grown


def _running_total_defects(x, ns):
    """``approx._rigidity_defects`` with the budget checked only on the
    pieces composed so far, after each composition."""
    denom, length, bounds, slopes, shifts = x._flat
    pieces = [(bounds[p], bounds[p + 1], slopes[p], shifts[p]) for p in range(len(slopes))]
    composed = 0
    budget = LIMITS["composed_pieces"]
    n = 1
    for target in ns:
        while n < target:
            pieces = exchange._compose(pieces, bounds, slopes, shifts)
            composed += len(pieces)
            if composed > budget:
                raise BudgetExceeded(f"iterate {target} needs over {budget} pieces")
            n += 1
        yield F(approx._defect_numerator(pieces, length), 4 * denom * denom)


def _rigidity_outcomes(x):
    """The three public rigidity calls' values, or their budget messages."""
    calls = [
        lambda: approx.rigidity_profile(x, 12),
        lambda: approx.rigidity_defect(x, 7),
        lambda: approx.rigidity_defect(x, 12),
        lambda: approx.find_rigidity_times(x, F(1, 100), [1, 2, 3, 5], tower_budget=40),
        lambda: approx.find_rigidity_times(x, F(1, 100), [], tower_budget=40),
    ]
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call())
        except BudgetExceeded as err:
            outcomes.append(str(err))
    return outcomes


def test_rigidity_budget_bound_equals_the_running_total_check(monkeypatch):
    # Checking the lower bound for the iterates left raises for the same
    # iterate, with the same message, as checking the total at the end.
    raised = returned = 0
    for x in [rotation(37, 9, 100), rotation(5, 3, 11), *random_fleet(seed=35, count=5)]:
        totals = _composed_totals(x, 12)
        for budget in sorted({0, 1, 3, 8, 20, 50, *totals, *(t - 1 for t in totals[1:])}):
            monkeypatch.setitem(LIMITS, "composed_pieces", budget)
            got = _rigidity_outcomes(x)
            monkeypatch.setattr(approx, "_rigidity_defects", _running_total_defects)
            assert got == _rigidity_outcomes(x), (x, budget)
            monkeypatch.undo()
            raised += sum(isinstance(outcome, str) for outcome in got)
            returned += sum(not isinstance(outcome, str) for outcome in got)
    assert raised > 500 and returned > 300, (raised, returned)


def test_find_rigidity_times_empty():
    x = rotation(34, 21, 144)
    assert approx.find_rigidity_times(x, F(1, 10**6), [], tower_budget=5) == []


def test_tower_defect_consequence():
    # a verified tower with small delta forces a small defect at its height
    x = rotation(1000003, 7, 2000021)
    tower = approx.find_cyclic_tower(x, F(1, 16))
    assert approx.verify_tower(x, tower).passed
    defect = approx.rigidity_defect(x, tower.height)
    bound = 4 * F(1, 16) * x.total_measure
    assert defect < bound


def test_tower_defect_bound_on_fleet():
    # defect(height) < 4 * delta * total on verified towers; heights are
    # capped because the exact iterate costs quadratic work in the height
    checked = 0
    for perm in perm_pool(STUCK_FREE_NONCLASSICAL[:4]):
        for seed in (101, 202, 303):
            x = sample_exchange(perm, seed=seed)
            try:
                tower = approx.find_cyclic_tower(x, F(1, 4), budget=10_000)
            except (BudgetExceeded, ExpansionHalted):
                continue
            if tower.height > 300:
                continue
            assert approx.verify_tower(x, tower).passed
            defect = approx.rigidity_defect(x, tower.height)
            assert defect < 4 * F(1, 4) * x.total_measure, (perm, seed)
            checked += 1
    assert checked >= 4


def test_tower_quality_improves_as_delta_shrinks():
    x = rotation(977, 89, 2048)
    deltas = [F(1, 2), F(1, 4), F(1, 8)]
    achieved = []
    for delta in deltas:
        tower = approx.find_cyclic_tower(x, delta, budget=10_000)
        report = approx.verify_tower(x, tower)
        assert report.passed
        achieved.append(report.achieved_delta)
    assert achieved[0] >= achieved[1] >= achieved[2]


# --- the integer rigidity kernel against the Fraction composition -----------


def _one_step_pieces(ref):
    """Pieces (src_side, lo, hi, out_side, slope, const) of the map itself."""
    pieces = []
    for side in (Side.TOP, Side.BOTTOM):
        for p in ref.positions[side]:
            lo = ref.pos_start[p]
            hi = lo + ref.pos_width[p]
            pieces.append(
                (side, lo, hi, ref.apply_side[p], ref.apply_slope[p], ref.apply_const[p])
            )
    return pieces


def _compose_with_map(pieces, ref):
    """The pieces of T o P: each image is split at the map's breakpoints."""
    out = []
    for side, lo, hi, oside, slope, const in pieces:
        if slope == 1:
            img_lo, img_hi = const + lo, const + hi
        else:
            img_lo, img_hi = const - hi, const - lo
        cursor = img_lo
        while cursor < img_hi:
            p = ref.locate(oside, cursor)
            seg_hi = min(img_hi, ref.pos_start[p] + ref.pos_width[p])
            nslope = slope * ref.apply_slope[p]
            nconst = ref.apply_const[p] + ref.apply_slope[p] * const
            if slope == 1:
                s_lo, s_hi = cursor - const, seg_hi - const
            else:
                s_lo, s_hi = const - seg_hi, const - cursor
            out.append((side, s_lo, s_hi, ref.apply_side[p], nslope, nconst))
            cursor = seg_hi
    out.sort(key=lambda piece: (piece[0].value, piece[1]))
    return out


def _defect_of_pieces(pieces, side_length):
    total = F(0)
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


def _reference_profile(x, n_max):
    ref = FractionLayout(x.perm, x.widths)
    pieces = _one_step_pieces(ref)
    out = [_defect_of_pieces(pieces, x.side_length)]
    for _ in range(n_max - 1):
        pieces = _compose_with_map(pieces, ref)
        out.append(_defect_of_pieces(pieces, x.side_length))
    return out


def test_rigidity_kernel_equals_fraction_composition():
    rng = random.Random(4)
    cases = [(x, 12) for x in random_fleet(seed=31, count=12)]
    for d in range(1, 5):
        for perm in genperm.enumerate_permutations(d):
            widths = random_grid_widths(perm, rng)
            denom = rng.randrange(1, 50)
            cases.append((build(perm, {a: F(v, denom) for a, v in widths.items()}), 6))
    cases += [(rotation(q - b, b, q), q) for b, q in ((1, 7), (3, 11), (5, 13), (8, 21))]
    for x, n_max in cases:
        assert approx.rigidity_profile(x, n_max) == _reference_profile(x, n_max), x


def test_defect_of_same_side_reversing_pieces():
    # Every reversal of the map also swaps sides, so a slope -1 piece of an
    # iterate always crosses, and the kernel rejects one that stays on its
    # side (kink const / 2 inside or outside the piece) as inconsistent;
    # same-side slope +1 pieces still match the Fraction reference.
    rng = random.Random(5)
    length, denom = 60, 7
    kinks = {"inside": 0, "outside": 0}
    for _ in range(400):
        side = rng.randrange(2)
        lo = rng.randrange(length - 1)
        hi = rng.randrange(lo + 1, length)
        slope = rng.choice((1, -1))
        if slope == 1:
            const = rng.randrange(-lo, length - hi + 1)
        else:
            const = rng.randrange(hi, lo + length + 1)
            kinks["inside" if 2 * lo < const < 2 * hi else "outside"] += 1
        flat = side * length
        flat_const = const + (1 - slope) * flat
        flat_piece = (flat + lo, flat + hi, slope, flat_const)
        if slope == -1:
            with pytest.raises(InconsistentStage):
                approx._defect_numerator([flat_piece], length)
            continue
        numerator = approx._defect_numerator([flat_piece], length)
        s = (Side.TOP, Side.BOTTOM)[side]
        piece = (s, F(lo, denom), F(hi, denom), s, slope, F(const, denom))
        assert F(numerator, 4 * denom * denom) == _defect_of_pieces([piece], F(length, denom))
    assert kinks["inside"] > 50 and kinks["outside"] > 50, kinks


def test_find_rigidity_times_equals_one_defect_per_time():
    x = rotation(37, 9, 100)
    records = approx.find_rigidity_times(x, F(1, 100), [1, 2, 3, 17])
    profile = _reference_profile(x, max(r.n for r in records))
    assert [r.defect for r in records] == [profile[r.n - 1] for r in records]


# --- the flat-grid tower verifier against the Side-keyed level loop ----------
#
# The verifier as it ran on the Side-keyed integer layout, one list of
# pieces per level, kept as the reference: every TowerVerification and
# every BudgetExceeded must agree with it.


def _reference_image(
    layout, side: Side, lo: int, hi: int
) -> tuple[list[tuple[Side, int, int]], bool]:
    """Exact integer-scaled image of [lo, hi); mirrors FractionLayout.image_of_interval."""
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


def reference_verify_tower(
    x: Exchange, tower: CyclicTower, step_budget: int = LIMITS["verify_steps"]
) -> TowerVerification:
    """Check the four tower properties by exact interval iteration.

    Levels are iterated on the integer-scaled layout (every endpoint is a
    multiple of one over the common width denominator), so the arithmetic
    stays exact at machine-integer speed.  Disjointness is measured over
    interval interiors, so single shared endpoints do not count.
    Property failures are reported in the verdicts, never raised; only
    exceeding the step budget raises.
    """
    layout = IntegerLayout(x)
    denom = layout.denominator

    def scaled(v: F) -> int:
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
                pieces, _ = _reference_image(layout, side, lo, hi)
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
        pieces, _ = _reference_image(layout, side, lo, hi)
        final.extend(pieces)

    if disjoint:
        # level-vs-base disjointness for every offset k < height implies
        # pairwise level disjointness (a collision of levels i < j pulls
        # back through the measure-preserving map to a collision of the
        # base with level j - i), so the union measure is additive
        union_int = tower.height * base_measure_int
    else:
        union_int = _reference_union_measure(layout, base, tower.height, step_budget)
    overlap_int = base_overlap(final)
    base_measure = F(base_measure_int, denom)
    union = F(union_int, denom)
    overlap = F(overlap_int, denom)
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


def _reference_union_measure(
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
            pieces, _ = _reference_image(layout, side, lo, hi)
            nxt.extend(pieces)
        current = nxt
        union.extend(current)
        work += len(current)
        if work > step_budget:
            raise BudgetExceeded("union accumulation exceeded the step budget")
        if len(union) > merge_cap:
            union = _reference_merge(union)
            merge_cap = max(merge_cap, 2 * len(union) + 64)
    return sum(hi - lo for _, lo, hi in _reference_merge(union))


def _reference_merge(
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


def _reference_work(x: Exchange, tower: CyclicTower) -> int:
    """The reference's interval steps: pieces of levels 1 .. height - 1."""
    layout = IntegerLayout(x)
    denom = layout.denominator
    current = [(side, int(lo * denom), int(hi * denom)) for side, lo, hi in tower.base]
    work = 0
    for _ in range(1, tower.height):
        current = [
            piece for side, lo, hi in current for piece in _reference_image(layout, side, lo, hi)[0]
        ]
        work += len(current)
    return work


def _assert_verifies_like_reference(x: Exchange, tower: CyclicTower) -> TowerVerification:
    want = reference_verify_tower(x, tower)
    assert approx.verify_tower(x, tower) == want, (x, tower)
    return want


def _assert_budget_like_reference(x: Exchange, tower: CyclicTower) -> None:
    """With ``LIMITS["verify_steps"]`` at the exact work the tower passes;
    one step less raises the reference's error."""
    work = _reference_work(x, tower)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(LIMITS, "verify_steps", work)
        assert approx.verify_tower(x, tower) == reference_verify_tower(x, tower, work)
        if work == 0:
            return  # no level is counted, so no budget runs out
        patch.setitem(LIMITS, "verify_steps", work - 1)
        with pytest.raises(BudgetExceeded) as want:
            reference_verify_tower(x, tower, work - 1)
        with pytest.raises(BudgetExceeded) as got:
            approx.verify_tower(x, tower)
    assert str(got.value) == str(want.value)


def test_verify_tower_equals_reference_on_searched_certificates():
    samples = random_fleet(seed=41, count=16) + [x for _, x in tower_fleet(seed=7100)[::3]]
    found = []
    for x in samples:
        for search in (
            lambda: approx.find_cyclic_tower(x, F(1, 4), budget=48),
            lambda: modp.find_coprime_tower(x, F(2, 5), 3, budget=48),
        ):
            try:
                tower = search()
            except (BudgetExceeded, ExpansionHalted):
                continue
            if isinstance(tower, modp.StructuralObstruction):
                continue
            assert _assert_verifies_like_reference(x, tower).passed
            found.append((x, tower))
    assert len(found) >= 20, len(found)
    for x, tower in found[:4]:
        _assert_budget_like_reference(x, tower)


def _manual_towers(x: Exchange):
    """Certificates for every band at depths 0-5, at the band's height, one
    level more and twice as high (levels that split and meet the base)."""
    for depth in range(6):
        stage = rauzy.expand(x, depth)
        if stage.depth < depth:
            break
        induced = rauzy.induced_exchange(stage, x)
        for band in stage.end.alphabet:
            height = stage.matrix.column_norm(band)
            for h in (height, height + 1, 2 * height):
                yield CyclicTower(
                    band=band,
                    depth=depth,
                    height=h,
                    base=induced.end_intervals(band),
                    delta=F(1, 4),
                    xi=1 - induced.widths[band] / induced.side_length,
                )


def _random_base_tower(x: Exchange, rng: random.Random) -> CyclicTower:
    """A certificate for the first band of x whose base is flat intervals
    between random cuts of [0, 2L], split at L into sides, with a random
    height up to 12."""
    denom, length = x._flat[:2]
    population = range(2 * length + 1)
    # a side of grid length 1 or 2 holds fewer than six cuts
    count = min(2 * rng.randrange(1, 4), len(population) // 2 * 2)
    cuts = sorted(rng.sample(population, count))
    base = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        for side, offset in ((Side.TOP, 0), (Side.BOTTOM, length)):
            a, b = max(lo - offset, 0), min(hi - offset, length)
            if a < b:
                base.append((side, F(a, denom), F(b, denom)))
    band = x.perm.alphabet[0]
    return CyclicTower(band, 0, rng.randrange(1, 13), tuple(base), F(1, 4), F(1, 2))


NODES = [perm for d in range(1, 5) for perm in genperm.enumerate_permutations(d)]


@settings(derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_verify_tower_equals_reference_on_every_small_node(seed):
    # one drawn seed per sweep keeps the example small; it seeds the widths,
    # the grid denominators and the random bases of every node
    rng = random.Random(seed)
    seen = {"reversing": 0, "split": 0, "meets": 0, "passed": 0}
    for perm in NODES:
        widths = random_grid_widths(perm, rng)
        denom = rng.randrange(1, 50)
        x = build(perm, {a: F(v, denom) for a, v in widths.items()})
        random_tower = _random_base_tower(x, rng)
        for tower in [*_manual_towers(x), random_tower]:
            report = _assert_verifies_like_reference(x, tower)
            seen["reversing"] += len({side for side, _, _ in tower.base}) == 1
            seen["split"] += not report.linear_on_levels
            seen["meets"] += not report.disjoint_levels
            seen["passed"] += report.passed
        _assert_budget_like_reference(x, random_tower)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize(
    "base, height",
    [
        (((Side.TOP, F(3, 7), F(5, 7)),), 2),  # hi beyond the side length 4/7
        (((Side.BOTTOM, F(2, 7), F(5, 7)),), 1),  # the same on the bottom, height 1
        (((Side.TOP, F(3, 7), F(2, 7)),), 2),  # reversed
        (((Side.TOP, F(1, 7), F(1, 7)),), 2),  # empty interval
        (((Side.TOP, F(-1, 7), F(1, 7)),), 2),  # negative lo
        (((Side.TOP, F(0), F(2, 7)), (Side.TOP, F(1, 7), F(3, 7))), 2),  # overlap
        (((Side.BOTTOM, F(0), F(1, 7)), (Side.BOTTOM, F(0), F(1, 7))), 2),  # repeated
        (((Side.TOP, F(0), F(1, 14)),), 2),  # off the grid of the widths
        (((Side.TOP, F(0), F(1, 7)),), 0),  # no levels
        ((), 2),  # empty base
    ],
)
def test_verify_tower_rejects_malformed_base(base, height):
    x = rotation(3, 1, 7)
    tower = CyclicTower("A", 0, height, base, F(1, 4), F(1, 2))
    with pytest.raises(InvalidInput):
        approx.verify_tower(x, tower)


def test_verify_tower_accepts_touching_intervals_and_full_sides():
    x = rotation(3, 1, 7)
    touching = (
        (Side.TOP, F(1, 7), F(4, 7)),
        (Side.TOP, F(0), F(1, 7)),
        (Side.BOTTOM, F(0), F(4, 7)),
    )
    for base in (touching, touching[2:], touching[:1]):
        for height in (1, 2, 5):
            tower = CyclicTower("A", 0, height, base, F(1, 4), F(1, 2))
            _assert_verifies_like_reference(x, tower)
            _assert_budget_like_reference(x, tower)


def test_random_base_tower_on_the_shortest_sides():
    # grid side lengths 1 and 2, where six cuts do not fit
    for perm, widths in (
        (genperm.validate(["A"], ["A"]), {"A": F(1, 3)}),
        (ROTATION, {"A": F(1, 5), "B": F(1, 5)}),
    ):
        x = build(perm, widths)
        assert x._flat[1] <= 2
        for seed in range(40):
            _assert_verifies_like_reference(x, _random_base_tower(x, random.Random(seed)))


# --- the ladder's first-return map against the replay ------------------------


def _ladder(x: Exchange, tower: CyclicTower) -> TowerVerification | None:
    """``approx._verify_on_ladder`` on the validated base, whatever the height."""
    base = approx._flat_base(x, tower)
    return approx._verify_on_ladder(x, tower, base, None)


def _on_ladder_path(tower: CyclicTower) -> bool:
    return tower.height > approx._LADDER_HEIGHT_PER_DEPTH * (tower.depth + 1)


def _tower_searches():
    """(x, certificate or None) for the cyclic and coprime searches run on
    the test fleets; None when a search raises or is obstructed."""
    samples = random_fleet(seed=41, count=16) + [x for _, x in tower_fleet(seed=7100)]
    for x in samples:
        for search in (
            lambda: approx.find_cyclic_tower(x, F(1, 4), budget=48),
            lambda: modp.find_coprime_tower(x, F(2, 5), 3, budget=48),
        ):
            try:
                tower = search()
            except (BudgetExceeded, ExpansionHalted):
                tower = None
            if isinstance(tower, modp.StructuralObstruction):
                tower = None
            yield x, tower


@pytest.fixture(scope="module")
def searched_towers():
    """(x, tower, reference report) for the certificates that cyclic and
    coprime searches find on the test fleets."""
    return [
        (x, tower, reference_verify_tower(x, tower))
        for x, tower in _tower_searches()
        if tower is not None
    ]


def _replay(x: Exchange, tower: CyclicTower) -> TowerVerification:
    """``verify_tower`` with the ladder switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approx, "_LADDER_HEIGHT_PER_DEPTH", tower.height)
        return approx.verify_tower(x, tower)


def test_ladder_decides_every_searched_certificate_like_the_replay(searched_towers):
    tall = 0
    for x, tower, want in searched_towers:
        report = _ladder(x, tower)
        assert report is not None, (x, tower)
        assert report == want, (x, tower)
        assert approx.verify_tower(x, tower) == want
        tall += _on_ladder_path(tower)
        # named deeper, the walk stops before the first stage whose sides
        # no longer contain the base
        assert _ladder(x, replace(tower, depth=tower.depth + 8)) == want
    assert len(searched_towers) >= 80 and tall >= 5, (len(searched_towers), tall)


def test_ladder_budget_on_tall_certificates(searched_towers):
    tall = sorted(
        {(t.height, t.band): (x, t) for x, t, _ in searched_towers if _on_ladder_path(t)}.items()
    )
    assert len(tall) >= 2
    for _, (x, tower) in tall[:2]:
        # a linear tower: the replay's work is one piece per level per base interval
        assert _reference_work(x, tower) == len(tower.base) * (tower.height - 1)
        _assert_budget_like_reference(x, tower)


@settings(derandomize=True, max_examples=1, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ladder_decides_like_the_replay_or_gives_up_on_every_small_node(seed):
    # the replay is checked against the reference on these towers above
    rng = random.Random(seed)
    seen = {"decided": 0, "gave_up": 0}
    for perm in NODES:
        widths = random_grid_widths(perm, rng)
        denom = rng.randrange(1, 50)
        x = build(perm, {a: F(v, denom) for a, v in widths.items()})
        for tower in _manual_towers(x):
            report = _ladder(x, tower)
            if report is None:
                seen["gave_up"] += 1
            else:
                assert report == _replay(x, tower), (x, tower)
                seen["decided"] += 1
    assert min(seen.values()) > 0, seen


def test_verify_tower_raises_on_a_faulty_walk(monkeypatch, searched_towers):
    # the ladder's rung rests on the walk's audits, so a fault in the walk
    # must raise rather than reach a report
    tall = [entry for entry in searched_towers if _on_ladder_path(entry[1])]
    x, tower, _ = tall[0]
    with monkeypatch.context() as patch:
        patch.setattr(rauzy, "_insert", _insert_one_slot_off)
        with pytest.raises(InconsistentStage):
            approx.verify_tower(x, tower)
    chase = exchange._chase

    def corrupted_chase(flat, cut):
        # the last return piece lands one grid step off
        pieces = chase(flat, cut)
        lo, hi, slope, const = pieces[-1]
        pieces[-1] = (lo, hi, slope, const + 1)
        return pieces

    with monkeypatch.context() as patch:
        patch.setattr(exchange, "_chase", corrupted_chase)
        with pytest.raises(InconsistentStage, match="disagrees with the return chase"):
            approx.verify_tower(x, tower)

    def broken_walk(x, n):
        raise InconsistentStage("injected")
        yield

    monkeypatch.setattr(rauzy, "_walk", broken_walk)
    x, tower, _ = tall[0]
    with pytest.raises(InconsistentStage, match="injected"):
        approx.verify_tower(x, tower)


def test_each_search_walks_its_expansion_once(monkeypatch):
    walks = []
    walk = rauzy._walk
    monkeypatch.setattr(rauzy, "_walk", lambda x, n: walks.append(x) or walk(x, n))
    runs, tall = 0, 0
    for x, tower in _tower_searches():
        # the ladder path of a tall certificate used to walk a second time
        assert len(walks) == 1, (x, tower, len(walks))
        walks.clear()
        runs += 1
        tall += tower is not None and _on_ladder_path(tower)
    assert runs >= 100 and tall >= 5, (runs, tall)


def test_ladder_on_the_search_sides_decides_like_the_reference(monkeypatch, searched_towers):
    given = []
    verify = approx._verify

    def recording_verify(x, tower, rung):
        given.append(rung)
        return verify(x, tower, rung)

    with monkeypatch.context() as patch:
        patch.setattr(approx, "_verify", recording_verify)
        # a search returns after the verification that passes
        found = [(x, tower, given[-1]) for x, tower in _tower_searches() if tower is not None]
    assert [(x, tower) for x, tower, _ in found] == [(x, t) for x, t, _ in searched_towers]
    for (x, tower, rung), (_, _, want) in zip(found, searched_towers):
        # the search's rung is the one a walk reaches, with the cocycle's
        # column norms as its return times
        assert rung == approx._walked_stage(x, tower.depth, 0), (x, tower)
        expanded = rauzy.expand(x, tower.depth)
        widths = to_grid(rauzy.widths_at(expanded, x), x._flat[0])
        assert rung == approx._rung(expanded.end, widths, expanded.matrix.column_norms())
        base = approx._flat_base(x, tower)
        assert approx._verify_on_ladder(x, tower, base, rung) == want
        assert approx._verify(x, tower, rung) == want
        assert approx.verify_tower(x, tower) == want
        # named deeper, the certificate's walk stops before the first stage
        # whose sides no longer contain the base
        deeper = replace(tower, depth=tower.depth + 8)
        assert approx.verify_tower(x, deeper) == want


def test_search_verifications_replay_only_where_the_ladder_gives_up(monkeypatch):
    # a search holds the stage of every certificate it verifies, short ones
    # included, so only a certificate the ladder cannot decide replays
    calls, replays = [], []
    verify, compose = approx._verify, approx._compose

    def recording_verify(x, tower, rung):
        before = len(replays)
        report = verify(x, tower, rung)
        calls.append((x, tower, rung, len(replays) > before))
        return report

    with monkeypatch.context() as patch:
        # every replay composes its last level; the ladder composes nothing
        patch.setattr(approx, "_compose", lambda *args: replays.append(1) or compose(*args))
        patch.setattr(approx, "_verify", recording_verify)
        for _ in _tower_searches():
            pass
    decided = {"short": 0, "tall": 0}
    for x, tower, rung, replayed in calls:
        base = approx._flat_base(x, tower)
        if approx._verify_on_ladder(x, tower, base, rung) is not None:
            assert not replayed, (x, tower)
            decided["tall" if _on_ladder_path(tower) else "short"] += 1
    assert decided["short"] >= 80 and decided["tall"] >= 10, decided


def _walked_stages(x: Exchange, depth: int):
    """(node, widths, norms) of x's expansion at depths 0 .. depth, rebuilt
    from ``rauzy.expand``'s steps: widths by back-substitution and norms
    as column sums of the product of the elementary factors."""
    expanded = rauzy.expand(x, depth)
    widths = to_grid(x.widths, x._flat[0])
    matrix = rauzy.Matrix.identity(sorted(x.perm.alphabet))
    yield x.perm, dict(widths), matrix.column_norms()
    for node, step in zip(expanded.nodes[1:], expanded.steps):
        widths[step.winner] -= widths[step.loser]
        matrix = matrix.mul(step.matrix)
        yield node, dict(widths), matrix.column_norms()


WALK_NODES = [perm for d in range(1, 6) for perm in genperm.enumerate_permutations(d)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(perm=st.sampled_from(WALK_NODES), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_walk_yields_the_back_substituted_stages_and_halts_like_the_oracle(perm, seed):
    rng = random.Random(seed)
    widths = random_grid_widths(perm, rng)
    denom = rng.randrange(1, 50)
    x = build(perm, {a: F(v, denom) for a, v in widths.items()})
    kept, halted = [], None
    try:
        for stage in rauzy._walk(x, 200):
            kept.append(stage)
    except SplitUndefined as err:
        halted = type(err)
    nodes, steps, oracle_halted, _ = _oracle_chain(x, 200)
    assert (len(kept) - 1, halted) == (len(steps), oracle_halted)
    assert [node for node, _, _, _ in kept] == nodes
    assert kept[0][3] is None
    assert [(s.kind, s.winner, s.loser) for _, _, _, s in kept[1:]] == steps
    # compared after the whole walk: a later step mutated no kept stage
    assert [stage[:3] for stage in kept] == list(_walked_stages(x, len(steps)))


def test_ladder_on_every_walked_stage_decides_like_the_reference_or_gives_up(searched_towers):
    # a stage shallower than the certificate is a first return to a larger
    # domain, one deeper may no longer contain the base; neither may decide
    # wrongly, and the certificate's own stage decides
    decided = 0
    for x, tower, want in searched_towers:
        base = approx._flat_base(x, tower)
        for depth, stage in enumerate(_walked_stages(x, tower.depth + 8)):
            rung = approx._rung(*stage)
            report = approx._verify_on_ladder(x, tower, base, rung)
            assert report in (None, want), (x, tower, depth)
            if depth == tower.depth:
                assert report == want, (x, tower)
            decided += report is not None
    assert decided > len(searched_towers), decided


@pytest.mark.parametrize(
    "field, value",
    [
        ("depth", 27.0),
        ("depth", F(27)),
        ("depth", True),
        ("height", 2165.0),
        ("height", F(2165)),
        ("height", True),
        ("height", "2165"),
        ("base bound", 0.0),
        ("base bound", "0"),
        ("base bound", False),
        ("delta", 0.25),
        ("delta", "1/4"),
        ("delta", True),
    ],
)
def test_verify_tower_rejects_certificate_numbers_that_are_not_ints(field, value):
    kind = {"depth": "a nonnegative int", "height": "a positive int"}.get(
        field, "an int or a Fraction"
    )
    message = "^" + re.escape(f"tower {field} must be {kind}, got {value!r}") + "$"

    def spoiled(tower: CyclicTower) -> CyclicTower:
        if field != "base bound":
            return replace(tower, **{field: value})
        (side, _, hi), *rest = tower.base
        return replace(tower, base=((side, value, hi), *rest))

    for x, tower in _tall_and_short_certificates():
        with pytest.raises(InvalidInput, match=message):
            approx.verify_tower(x, spoiled(tower))


_SHAPE = "tower base must be (side, lo, hi) triples, got "
_LIST_SIDE = "tower base side [<Side.TOP: 'Top'>] is not a Side"


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda side, lo, hi: ([side], lo, hi), _LIST_SIDE),
        (lambda side, lo, hi: (lo, hi), _SHAPE),
        (lambda side, lo, hi: (side, lo, hi, hi), _SHAPE),
        (None, _SHAPE + "5"),
    ],
    ids=["list-side", "two-items", "four-items", "int-base"],
)
def test_verify_tower_rejects_a_base_of_the_wrong_shape(spoil, message):
    for x, tower in _tall_and_short_certificates():
        first, *rest = tower.base
        base = 5 if spoil is None else (spoil(*first), *rest)
        with pytest.raises(InvalidInput, match="^" + re.escape(message)):
            approx.verify_tower(x, replace(tower, base=base))


def _tall_and_short_certificates() -> list[tuple[Exchange, CyclicTower]]:
    """The tall certificate of the golden ``tower-ladder`` case, which takes
    the ladder path, and a short one, which only replays."""
    perm = genperm.validate(["A", "B", "B"], ["C", "C", "A"])
    b = F(390542483835, 2**40)
    x = build(perm, {"A": F(159213330053, 2**39), "B": b, "C": b})
    tower = approx.find_cyclic_tower(x, F(1, 4), budget=48)
    assert (tower.depth, tower.height) == (27, 2165) and _on_ladder_path(tower)
    assert approx.verify_tower(x, tower).passed
    short = CyclicTower("A", 0, 2, ((Side.TOP, F(0), F(1, 7)),), F(1, 4), F(1, 2))
    return [(x, tower), (rotation(3, 1, 7), short)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_tower_json_round_trip(searched_towers, data):
    _, tower, _ = data.draw(st.sampled_from(searched_towers))
    payload = canonical_json_bytes(tower.to_json_dict())
    again = cli._tower_from_json(json.loads(payload))
    assert again == tower
    assert canonical_json_bytes(again.to_json_dict()) == payload
