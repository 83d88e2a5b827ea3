"""Exact map evaluation, orbits, and the first-return oracle."""

from __future__ import annotations

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvex import exchange, genperm
from linvex.errors import (
    LIMITS,
    BudgetExceeded,
    EndpointHit,
    InvalidInput,
    LinvexError,
    NonPositiveWidth,
    SwitchConditionViolated,
)
from linvex.exchange import (
    Exchange,
    OrbitSegment,
    Point,
    Side,
    _chase,
    _grid_layout,
    _image,
    build,
    first_return_on_grid,
)
from linvex.rationals import common_denominator, to_grid

from conftest import (
    FractionLayout,
    _reference_validate_widths,
    random_fleet,
    random_grid_widths,
    reference_first_return_on_grid,
)


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


def test_build_takes_int_widths_as_fractions():
    assert build(ROTATION, {"A": 3, "B": 1}) == build(ROTATION, {"A": F(3), "B": F(1)})


@pytest.mark.parametrize("bad", [0.1, 1.0, True, "1/4", None])
def test_widths_and_cuts_must_be_ints_or_fractions(bad):
    message = re.escape(f"width of band A must be an int or a Fraction, got {bad!r}")
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        build(NONCLASSICAL, {"A": bad, "B": F(3, 10), "C": F(1, 10)})
    message = re.escape(f"cut must be an int or a Fraction, got {bad!r}")
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        rotation_37().first_return_map(bad)


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
        denom, length = x._flat[:2]
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
            assert x._flat[3][pos] in (1, -1)


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


@pytest.mark.parametrize("offset", [0.5, "1/8", False, True])
@pytest.mark.parametrize("method", ["apply", "apply_inverse", "locate", "orbit"])
def test_point_offsets_must_be_ints_or_fractions(method, offset):
    # a bool is not read as 0 or 1, and an orbit of no steps checks its start
    y = build(NONCLASSICAL, {"A": F(1, 5), "B": F(2, 5), "C": F(1, 5)})
    point = Point(Side.TOP, offset)
    call = {
        "apply": lambda: y.apply(point),
        "apply_inverse": lambda: y.apply_inverse(point),
        "locate": lambda: y.locate(Side.TOP, offset),
        "orbit": lambda: y.orbit(point, 0),
    }[method]
    message = f"offset must be an int or a Fraction, got {offset!r}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("side", ["Top", "Bottom", 0, None])
@pytest.mark.parametrize("method", ["apply", "apply_inverse", "locate", "orbit"])
def test_point_sides_must_be_sides(method, side):
    # apply_inverse flips the side first, so it must check it before that
    y = build(NONCLASSICAL, {"A": F(1, 5), "B": F(2, 5), "C": F(1, 5)})
    point = Point(side, F(1, 10))
    call = {
        "apply": lambda: y.apply(point),
        "apply_inverse": lambda: y.apply_inverse(point),
        "locate": lambda: y.locate(side, F(1, 10)),
        "orbit": lambda: y.orbit(point, 0),
    }[method]
    message = f"side {side!r} is not a Side"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


def test_measure_preservation_on_pieces():
    for x in random_fleet(seed=4, count=8):
        ref = FractionLayout(x.perm, x.widths)
        for side in (Side.TOP, Side.BOTTOM):
            starts = list(ref.starts[side]) + [ref.side_length]
            for lo, hi in zip(starts, starts[1:]):
                pieces, split = ref.image_of_interval(side, lo, hi)
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
    # the (3/7, 1/7) rotation on the grid of sevenths, cut at 2/7; pieces
    # are flat (lo, hi, slope, const), the bottom side starting at L = 4
    length, cut = 4, 2
    pieces = _chase(_grid_layout(ROTATION, {"A": 3, "B": 1}), cut)
    for side in (0, length):
        mine = [p for p in pieces if side <= p[0] < side + length]
        assert sum(p[1] - p[0] for p in mine) == cut
    domain = list(range(cut)) + list(range(length, length + cut))
    assert sorted(f for p in pieces for f in range(*_image(*p))) == domain


def test_first_return_tower_consistency():
    # first return to a nested cut factors through the intermediate cut;
    # the two computations may present the same map with different band
    # subdivisions, so equality is checked pointwise on an exact grid
    rng = random.Random(99)
    for x in random_fleet(seed=6, count=6):
        denom, length = x._flat[:2]
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
        denom, length = x._flat[:2]
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
        denom, length = x._flat[:2]
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


# --- the flat integer map against the Fraction layout -----------------------

NODES = [perm for d in range(1, 5) for perm in genperm.enumerate_permutations(d)]


def _corrupted(perm, widths, denom, rng):
    """The widths and copies with a zero, a negative, unequal reversing
    totals, a missing label and an extra label."""
    label = rng.choice(perm.alphabet)
    yield widths
    yield {**widths, label: 0}
    yield {**widths, label: -widths[label]}
    reversing = perm.reversing_top + perm.reversing_bottom
    if reversing:
        band = rng.choice(reversing)
        yield {**widths, band: widths[band] + F(1, denom)}
    yield {a: v for a, v in widths.items() if a != label}
    yield {**widths, "Z": F(1, denom)}


@settings(derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_constructor_checks_widths_as_the_fraction_reference_does(seed):
    # either the reference's error, class and message, or the widths in
    # alphabet order and the flat map laid out on their common grid
    rng = random.Random(seed)
    seen = {"built": 0, "rejected": 0}
    for perm in NODES:
        denom = rng.randrange(1, 50)
        widths = {a: F(v, denom) for a, v in random_grid_widths(perm, rng).items()}
        if denom == 1:
            widths = {a: int(v) for a, v in widths.items()}
        for case in _corrupted(perm, widths, denom, rng):
            try:
                cleaned = _reference_validate_widths(perm, case)
            except InvalidInput as err:
                with pytest.raises(InvalidInput) as mine:
                    Exchange(perm, case)
                assert (type(mine.value), str(mine.value)) == (type(err), str(err)), case
                seen["rejected"] += 1
                continue
            x = Exchange(perm, case)
            assert list(x.widths.items()) == list(cleaned.items())
            grid = common_denominator(cleaned.values())
            assert x._flat == (grid, *_grid_layout(perm, to_grid(cleaned, grid)))
            seen["built"] += 1
    assert min(seen.values()) > 0, seen


def _outcome(f, *args):
    """The value of f(*args), or the type and payload of the error it raised."""
    try:
        return f(*args)
    except EndpointHit as err:
        return EndpointHit, err.point, str(err)
    except InvalidInput as err:
        return InvalidInput, str(err)


def _reference_orbit(ref, start, steps):
    points = [start]
    for k in range(steps):
        try:
            points.append(ref.apply(points[-1]))
        except EndpointHit:
            return OrbitSegment(start, tuple(points), k)
    return OrbitSegment(start, tuple(points), None)


def _probe_offsets(ref, denom, rng):
    """Every breakpoint of each side and an off-grid point just below it,
    on-grid and off-grid points, and offsets outside [0, L)."""
    length = ref.side_length
    eps = F(1, 3 * denom * 2**20)
    for side in (Side.TOP, Side.BOTTOM):
        breaks = list(ref.starts[side])
        offsets = breaks + [b - eps for b in breaks[1:] + [length]]
        offsets += [F(rng.randrange(int(length * denom)), denom) for _ in range(3)]
        offsets += [length * F(rng.randrange(1, 2**30), 2**30) for _ in range(3)]
        offsets += [-eps, length, length + F(1, denom)]
        for offset in offsets:
            yield Point(side, offset)


@settings(derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_flat_map_equals_fraction_layout_on_every_small_node(seed):
    # one drawn seed per sweep seeds the widths, grid denominators and
    # probe points of every node
    rng = random.Random(seed)
    seen = {"mapped": 0, "endpoint": 0, "outside": 0, "orbit_hit": 0}
    for perm in NODES:
        widths = random_grid_widths(perm, rng)
        denom = rng.randrange(1, 50)
        x = build(perm, {a: F(v, denom) for a, v in widths.items()})
        ref = FractionLayout(perm, x.widths)
        assert x.side_length == ref.side_length
        for label in perm.alphabet:
            assert x.end_intervals(label) == ref.end_intervals(label)
        for point in _probe_offsets(ref, denom, rng):
            assert _outcome(x.locate, *point) == _outcome(ref.locate, *point), (x, point)
            image = _outcome(x.apply, point)
            assert image == _outcome(ref.apply, point), (x, point)
            preimage = _outcome(x.apply_inverse, point)
            assert preimage == _outcome(ref.apply_inverse, point), (x, point)
            if isinstance(preimage, Point):
                assert x.apply(preimage) == point
            if isinstance(image, Point):
                seen["mapped"] += 1
                assert x.apply_inverse(image) == point
            elif image[0] is EndpointHit:
                seen["endpoint"] += 1
            else:
                seen["outside"] += 1
                continue
            orbit = x.orbit(point, 6)
            assert orbit == _reference_orbit(ref, point, 6), (x, point)
            seen["orbit_hit"] += orbit.hit_endpoint is not None
    assert min(seen.values()) > 0, seen


# --- the flat first-return chase against the side-keyed reference ------------


def _return_outcome(f, *args):
    """The induced (perm, widths), or the class of the error raised."""
    try:
        return f(*args)
    except LinvexError as err:
        return type(err)


@settings(derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_first_return_equals_side_keyed_reference_on_every_small_node(seed):
    # one drawn seed per sweep seeds the widths and random cuts of every
    # node; cuts are L, the Rauzy cut and two random ones
    rng = random.Random(seed)
    seen = {"inherited": 0, "fresh": 0, BudgetExceeded: 0}
    for perm in NODES:
        widths = random_grid_widths(perm, rng)
        length = sum(widths[a] for a in perm.top)
        critical = genperm.critical_bands(perm)
        rauzy_cut = length - min(widths[a] for a in critical)
        cuts = [length, rauzy_cut, rng.randrange(1, length + 1), rng.randrange(1, length + 1)]
        for cut in cuts:
            if cut < 1:
                continue
            for budget in (1, 2, 3, 5, LIMITS["chase_steps"]):
                args = (perm, widths, cut)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setitem(LIMITS, "chase_steps", budget)
                    mine = _return_outcome(first_return_on_grid, *args)
                want = _return_outcome(reference_first_return_on_grid, *args, budget)
                assert mine == want, (args, budget)
                if isinstance(mine, tuple):
                    fresh = set(mine[0].alphabet) != set(perm.alphabet)
                    seen["fresh" if fresh else "inherited"] += 1
                else:
                    seen[mine] += 1
    assert min(seen.values()) > 0, seen


def test_not_returning_names_the_side_local_piece(monkeypatch):
    # the (3/7, 1/7) rotation cut at 1/7: [0, 1) on the top side needs
    # four steps to come back
    monkeypatch.setitem(LIMITS, "chase_steps", 2)
    with pytest.raises(BudgetExceeded) as err:
        first_return_on_grid(ROTATION, {"A": 3, "B": 1}, 1)
    assert str(err.value) == "piece [0, 1) on side 0 exceeded 2 steps"
