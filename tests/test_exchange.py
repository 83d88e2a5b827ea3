"""Exact map evaluation, orbits, and the first-return oracle."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from linvex import genperm
from linvex.errors import (
    EndpointHit,
    NonPositiveWidth,
    SwitchConditionViolated,
)
from linvex.exchange import Point, Side, _flat_map, build

from conftest import random_fleet


ROTATION = genperm.validate(["A", "B"], ["B", "A"])
NONCLASSICAL = genperm.validate(["A", "A", "B"], ["B", "C", "C"])


def rotation_37():
    return build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})


def test_build_side_lengths():
    x = rotation_37()
    assert x.side_length == F(4, 7)
    y = build(NONCLASSICAL, {"A": F(1, 4), "B": F(1, 2), "C": F(1, 4)})
    assert y.side_length == 1
    assert y.total_measure == 2


def test_build_rejects_switch_violation():
    with pytest.raises(SwitchConditionViolated):
        build(NONCLASSICAL, {"A": F(1, 4), "B": F(1, 2), "C": F(1, 3)})


def test_build_rejects_nonpositive_width():
    with pytest.raises(NonPositiveWidth):
        build(ROTATION, {"A": F(3, 7), "B": F(0)})


def test_apply_rotation_step():
    x = rotation_37()
    assert x.apply(Point(Side.TOP, F(0))) == Point(Side.TOP, F(1, 7))


def test_apply_same_side_reversal():
    y = build(NONCLASSICAL, {"A": F(1, 4), "B": F(1, 2), "C": F(1, 4)})
    assert y.apply(Point(Side.TOP, F(1, 8))) == Point(Side.BOTTOM, F(3, 8))


def test_apply_inverse_concrete():
    x = rotation_37()
    assert x.apply_inverse(Point(Side.TOP, F(1, 7))) == Point(Side.TOP, F(0))
    y = build(NONCLASSICAL, {"A": F(1, 4), "B": F(1, 2), "C": F(1, 4)})
    t = Point(Side.TOP, F(1, 8))
    assert y.apply_inverse(y.apply(t)) == t


def test_apply_endpoint_hit_on_reversing_left_edge():
    y = build(NONCLASSICAL, {"A": F(1, 4), "B": F(1, 2), "C": F(1, 4)})
    with pytest.raises(EndpointHit):
        y.apply(Point(Side.TOP, F(0)))  # left edge of a same-side band end


def test_inverse_round_trip_random():
    fleet = random_fleet(seed=2, count=8)
    rng = random.Random(12)
    checked = 0
    for x in fleet:
        denom, length = _flat_map(x)[:2]
        for _ in range(1250):
            side = Side.TOP if rng.randrange(2) == 0 else Side.BOTTOM
            t = Point(side, F(rng.randrange(length), denom))
            try:
                assert x.apply_inverse(x.apply(t)) == t
                assert x.apply(x.apply_inverse(t)) == t
            except EndpointHit:
                continue
            checked += 1
    assert checked > 9000


def test_per_piece_slopes_are_unit():
    for x in random_fleet(seed=3, count=10):
        for pos in range(2 * x.perm.band_count):
            assert x._apply_slope[pos] in (1, -1)


def test_orbit_rotation_prefix():
    x = rotation_37()
    seg = x.orbit(Point(Side.TOP, F(0)), 4)
    offsets = [p.offset for p in seg.points[:4]]
    assert offsets == [F(0), F(1, 7), F(2, 7), F(3, 7)]
    assert seg.hit_endpoint is None


def test_orbit_zero_steps():
    x = rotation_37()
    t = Point(Side.TOP, F(1, 9))
    seg = x.orbit(t, 0)
    assert seg.points == (t,)


def test_orbit_reports_endpoint_hit_at_start():
    y = build(NONCLASSICAL, {"A": F(1, 4), "B": F(1, 2), "C": F(1, 4)})
    seg = y.orbit(Point(Side.TOP, F(0)), 5)
    assert seg.hit_endpoint == 0
    assert len(seg.points) == 1


def test_measure_preservation_on_pieces():
    for x in random_fleet(seed=4, count=8):
        for side in (Side.TOP, Side.BOTTOM):
            starts = list(x._starts[side]) + [x.side_length]
            for lo, hi in zip(starts, starts[1:]):
                pieces, split = x.image_of_interval(side, lo, hi)
                assert not split
                assert sum(b - a for _, a, b in pieces) == hi - lo


def test_first_return_rotation_rauzy_cut():
    x = rotation_37()
    induced = x.first_return_map(F(3, 7))
    assert induced.perm == ROTATION
    assert induced.widths == {"A": F(2, 7), "B": F(1, 7)}


def test_first_return_identity_cut():
    x = rotation_37()
    assert x.first_return_map(x.side_length) == x


def test_first_return_measure_conservation():
    x = rotation_37()
    pieces = x.first_return_pieces(F(2, 7))
    for side in (Side.TOP, Side.BOTTOM):
        mine = [p for p in pieces if p.src_side is side]
        assert sum(p.src_hi - p.src_lo for p in mine) == F(2, 7)
        assert sum(p.out_hi - p.out_lo for p in mine) == F(2, 7)


def test_first_return_tower_consistency():
    # first return to a nested cut factors through the intermediate cut;
    # the two computations may present the same map with different band
    # subdivisions, so equality is checked pointwise on an exact grid
    rng = random.Random(99)
    for x in random_fleet(seed=6, count=6):
        denom, length = _flat_map(x)[:2]
        a = rng.randrange(length // 2, length)
        b = rng.randrange(length // 3, a)
        cut1, cut2 = F(a, denom), F(b, denom)
        direct = x.first_return_map(cut2)
        staged = x.first_return_map(cut1).first_return_map(cut2)
        assert direct.side_length == staged.side_length == cut2
        agreed = 0
        for _ in range(300):
            side = Side.TOP if rng.randrange(2) == 0 else Side.BOTTOM
            t = Point(side, cut2 * F(rng.randrange(1, 2**30), 2**30))
            try:
                assert direct.apply(t) == staged.apply(t)
            except EndpointHit:
                continue
            agreed += 1
        assert agreed > 250


def test_first_return_matches_split_on_fleet():
    from linvex import rauzy

    for x in random_fleet(seed=7, count=12):
        try:
            induced, step = rauzy.split(x)
        except Exception:
            continue
        cut = x.side_length - min(x.widths[step.winner], x.widths[step.loser])
        assert x.first_return_map(cut) == induced


def test_first_return_fuzz_general_cuts():
    # the chaser raises InconsistentStage if tiling, isometry, or the
    # pairing involution ever fails; fuzz it across arbitrary cuts
    rng = random.Random(2024)
    for x in random_fleet(seed=77, count=12):
        denom, length = _flat_map(x)[:2]
        for _ in range(10):
            cut_int = rng.randrange(1, length + 1)
            cut = F(cut_int, denom)
            induced = x.first_return_map(cut)
            assert induced.side_length == cut
            assert sum(induced.widths.values(), F(0)) == cut


def test_first_return_matches_pointwise_iteration():
    # independent oracle: iterate single points of the truncated domain
    # under the original map until they land back below the cut, and
    # compare against one application of the induced exchange
    rng = random.Random(71)
    for x in random_fleet(seed=16, count=6):
        denom, length = _flat_map(x)[:2]
        cut_int = rng.randrange(length // 2, length)
        cut = F(cut_int, denom)
        induced = x.first_return_map(cut)
        checked = 0
        for _ in range(120):
            side = Side.TOP if rng.randrange(2) == 0 else Side.BOTTOM
            t = Point(side, F(rng.randrange(cut_int), denom))
            try:
                expected = induced.apply(t)
                point = x.apply(t)
                steps = 1
                while point.offset >= cut:
                    point = x.apply(point)
                    steps += 1
                    assert steps < 10**6
            except EndpointHit:
                continue
            assert point == expected, (x, cut, t)
            checked += 1
        assert checked > 100
