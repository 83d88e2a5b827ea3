"""Tower certificates, exact verification, and rigidity defects."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from linvex import approx, genperm, rauzy
from linvex.errors import BudgetExceeded, ExpansionHalted, InvalidInput, PartitionBlowup
from linvex.exchange import Point, Side, build

from conftest import (
    STUCK_FREE_NONCLASSICAL,
    perm_pool,
    random_fleet,
    random_grid_widths,
    sample_exchange,
)

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
    assert tower.height == rauzy.return_time(x, tower.depth, tower.band)


def test_find_tower_rejects_bad_delta():
    x = rotation(3, 1, 7)
    with pytest.raises(InvalidInput):
        approx.find_cyclic_tower(x, F(3, 2))


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
    layout = x.integer_layout()
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


def _one_step_pieces(x):
    """Pieces (src_side, lo, hi, out_side, slope, const) of the map itself."""
    pieces = []
    for side in (Side.TOP, Side.BOTTOM):
        for p in x._positions[side]:
            lo = x._pos_start[p]
            hi = lo + x._pos_width[p]
            pieces.append((side, lo, hi, x._apply_side[p], x._apply_slope[p], x._apply_const[p]))
    return pieces


def _compose_with_map(pieces, x, max_pieces):
    """The pieces of T o P: each image is split at the map's breakpoints."""
    out = []
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


def _reference_profile(x, n_max, max_pieces=approx.DEFAULT_PIECE_BUDGET):
    pieces = _one_step_pieces(x)
    out = [_defect_of_pieces(pieces, x.side_length)]
    for _ in range(n_max - 1):
        pieces = _compose_with_map(pieces, x, max_pieces)
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
    # iterate always crosses; the tent terms are checked on pieces built by
    # hand, with the kink const / 2 inside and outside the piece.
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
        numerator = approx._defect_numerator([(flat + lo, flat + hi, slope, flat_const)], length)
        s = (Side.TOP, Side.BOTTOM)[side]
        piece = (s, F(lo, denom), F(hi, denom), s, slope, F(const, denom))
        assert F(numerator, 4 * denom * denom) == _defect_of_pieces([piece], F(length, denom))
    assert kinks["inside"] > 50 and kinks["outside"] > 50, kinks


def test_rigidity_kernel_partition_blowup_at_the_same_composition():
    checked = 0
    for x in random_fleet(seed=32, count=6):
        pieces = _one_step_pieces(x)
        for n in range(2, 10):
            grown = _compose_with_map(pieces, x, approx.DEFAULT_PIECE_BUDGET)
            if len(grown) > len(pieces):
                break
            pieces = grown
        # the n-th iterate is the first whose composition grows past the cap
        cap = len(pieces)
        with pytest.raises(PartitionBlowup):
            _reference_profile(x, n, max_pieces=cap)
        with pytest.raises(PartitionBlowup, match=f"exceeded {cap} pieces"):
            approx.rigidity_profile(x, n, max_pieces=cap)
        with pytest.raises(PartitionBlowup):
            approx.rigidity_defect(x, n, max_pieces=cap)
        profile = approx.rigidity_profile(x, n - 1, max_pieces=cap)
        assert profile == _reference_profile(x, n - 1, max_pieces=cap)
        checked += 1
    assert checked == 6


def test_find_rigidity_times_equals_one_defect_per_time():
    x = rotation(37, 9, 100)
    records = approx.find_rigidity_times(x, F(1, 100), [1, 2, 3, 17])
    profile = _reference_profile(x, max(r.n for r in records))
    assert [r.defect for r in records] == [profile[r.n - 1] for r in records]
    with pytest.raises(PartitionBlowup):
        approx.find_rigidity_times(x, F(1, 100), [1, 40], max_pieces=3)
