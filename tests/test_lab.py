"""Samplers, experiments, determinism."""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F

import pytest

from linvex import lab
from linvex.errors import (
    BudgetExceeded,
    EndpointHit,
    InconsistentStage,
    InvalidInput,
    InvariantViolation,
)
from linvex.exchange import Exchange, Point, Side, build
from linvex.genperm import validate

from conftest import (
    CLASSICAL,
    STUCK_FREE_NONCLASSICAL,
    IntegerLayout,
    perm_pool,
    sample_exchange,
)

ROTATION = validate(["A", "B"], ["B", "A"])
NONCLASSICAL = validate(["A", "A", "B"], ["B", "C", "C"])
ALL_REVERSING = validate(["A", "A"], ["B", "B", "C", "C"])


def test_sample_widths_classical_pairs():
    cfg = lab.SamplerConfig(perm=ROTATION, denominator_bound=1000, seed=1, count=20)
    for widths in lab.sample_widths(cfg):
        assert widths["A"] + widths["B"] == 1
        assert widths["A"] > 0 and widths["B"] > 0


def test_sample_widths_switch_exact():
    cfg = lab.SamplerConfig(perm=NONCLASSICAL, denominator_bound=2**30, seed=2, count=25)
    for widths in lab.sample_widths(cfg):
        assert widths["A"] == widths["C"]  # singleton reversing classes
        Exchange(NONCLASSICAL, widths)  # builds without error


def test_sample_widths_all_reversing_switch():
    cfg = lab.SamplerConfig(perm=ALL_REVERSING, denominator_bound=2**30, seed=3, count=15)
    for widths in lab.sample_widths(cfg):
        assert widths["A"] == widths["B"] + widths["C"]
        Exchange(ALL_REVERSING, widths)


def test_sampler_determinism():
    cfg = lab.SamplerConfig(perm=NONCLASSICAL, denominator_bound=2**20, seed=9, count=5)
    assert lab.sample_widths(cfg) == lab.sample_widths(cfg)


def test_sampler_marginal_report_only():
    # a sanity summary of the preserving-band marginal, no strict gate
    cfg = lab.SamplerConfig(perm=NONCLASSICAL, denominator_bound=2**20, seed=5, count=400)
    mean_b = sum(float(w["B"]) for w in lab.sample_widths(cfg)) / 400
    assert 0.05 < mean_b < 0.95


def test_total_ergodicity_experiment_report():
    d = 2**40
    x = build(
        NONCLASSICAL,
        {"A": F(330696682521, d), "B": F(d - 2 * 330696682521, d), "C": F(330696682521, d)},
    )
    report = lab.total_ergodicity_experiment(x, 2, bins=20, iters=20_000, seed=4)
    assert report.experiment == "total_ergodicity"
    streams = {r["stream"] for r in report.records}
    assert streams == {"coprime_tower", "birkhoff"}
    assert report.to_json_bytes() == lab.total_ergodicity_experiment(
        x, 2, bins=20, iters=20_000, seed=4
    ).to_json_bytes()


def test_total_ergodicity_all_reversing_p2_obstruction():
    d = 2**40
    b = 412316860441
    c = 235987621139
    widths = {"A": F(b + c, d), "B": F(b, d), "C": F(c, d)}
    x = build(ALL_REVERSING, widths)
    report = lab.total_ergodicity_experiment(x, 2, bins=10, iters=40_000, seed=6)
    tower_rec = next(r for r in report.records if r["stream"] == "coprime_tower")
    assert tower_rec["kind"] == "StructuralObstruction"
    birkhoff = next(r for r in report.records if r["stream"] == "birkhoff")
    # the square preserves each side, so half the bins stay empty
    assert birkhoff["max_bin_deviation"] >= 1.0
    assert birkhoff["occupied_bins"] <= 10


def test_total_ergodicity_insufficient_iters():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    report = lab.total_ergodicity_experiment(x, 2, bins=10, iters=0, seed=1)
    assert report.passed is None
    assert report.aggregates.get("insufficient")


def test_product_experiment_equidistributes_generic_pair():
    (w1,) = lab.sample_widths(
        lab.SamplerConfig(perm=ROTATION, denominator_bound=2**40, seed=41, count=1)
    )
    (w2,) = lab.sample_widths(
        lab.SamplerConfig(perm=NONCLASSICAL, denominator_bound=2**40, seed=42, count=1)
    )
    report = lab.product_experiment(
        build(ROTATION, w1), build(NONCLASSICAL, w2), boxes=8, iters=120_000, seed=3
    )
    assert report.aggregates["max_box_deviation"] < 0.2
    assert report.passed is not None


def test_product_experiment_same_exchange_control():
    x = build(ROTATION, {"A": F(296169, 2**19), "B": F(228119, 2**19)})
    report = lab.product_experiment(x, x, boxes=8, iters=60_000, seed=4)
    assert report.aggregates["max_box_deviation"] > 0.2
    assert report.passed is False


def test_product_experiment_insufficient():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    report = lab.product_experiment(x, x, boxes=5, iters=0, seed=1)
    assert report.passed is None


def test_reports_round_trip_csv():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    report = lab.total_ergodicity_experiment(x, 3, bins=5, iters=1_000, seed=8)
    text = report.to_csv_text()
    lines = text.strip().splitlines()
    assert len(lines) == 1 + len(report.records)


def test_rigidity_scan_smoke(monkeypatch):
    monkeypatch.setattr(lab, "SCAN_TOWER_BUDGET", 400)
    cfg = lab.SamplerConfig(perm=ROTATION, denominator_bound=5000, seed=11, count=4)
    report = lab.rigidity_scan(cfg, F(1, 50), horizon=8)
    assert report.experiment == "rigidity_scan"
    assert len(report.records) == 4
    assert "mean_density" in report.aggregates
    assert report.to_json_bytes() == lab.rigidity_scan(cfg, F(1, 50), horizon=8).to_json_bytes()


# --- the integer orbit kernel against the lock-step loop ---------------------


def _reference_start(layout, rng):
    side = Side.TOP if rng.randrange(2) == 0 else Side.BOTTOM
    return side, rng.randrange(layout.length)


def _reference_step(layout, side, offset):
    """One application of the map on the Side-keyed layout; None on an endpoint."""
    starts = layout.starts[side]
    idx = bisect_right(starts, offset) - 1
    pos = layout.pos_of[side][idx]
    if layout.slope[pos] == -1 and offset == starts[idx]:
        return None
    return layout.out_side[pos], layout.const[pos] + layout.slope[pos] * offset


def _reference_product(x1, x2, boxes, iters, seed, tolerance=0.05, start=_reference_start):
    """The product experiment as a lock-step loop over both factors."""
    orbits = (IntegerLayout(x1), IntegerLayout(x2))
    classical = (x1.perm.is_classical, x2.perm.is_classical)
    rng = lab.substream(seed, "product")
    for attempt in range(lab.RESAMPLE_CAP):
        state = [start(orbits[0], rng), start(orbits[1], rng)]
        counts = [0] * (boxes * boxes)
        ok = True
        for _ in range(iters):
            cell = 0
            for k in (0, 1):
                side, offset = state[k]
                if classical[k]:
                    cell = cell * boxes + offset * boxes // orbits[k].length
                else:
                    flat = offset + (orbits[k].length if side is Side.BOTTOM else 0)
                    cell = cell * boxes + flat * boxes // (2 * orbits[k].length)
            counts[cell] += 1
            nxt0 = _reference_step(orbits[0], *state[0])
            nxt1 = _reference_step(orbits[1], *state[1])
            if nxt0 is None or nxt1 is None:
                ok = False
                break
            state = [nxt0, nxt1]
        if ok:
            break
    expected = iters / (boxes * boxes)
    max_dev = max(abs(c - expected) / expected for c in counts)
    empty = sum(1 for c in counts if c == 0)
    return lab.ExperimentReport(
        experiment="product_equidistribution",
        parameters={"boxes": boxes, "iterations": iters, "seed": seed, "tolerance": tolerance},
        records=[{"max_box_deviation": max_dev, "empty_boxes": empty, "attempts": attempt + 1}],
        aggregates={"max_box_deviation": max_dev, "empty_boxes": empty},
        passed=max_dev < tolerance,
    )


def _reference_occupancy(x, rng, iters, substeps, bins, start=_reference_start):
    """Counts and restarts of the p-th power orbit, stepped one point at a time."""
    layout = IntegerLayout(x)
    restarts = 0
    while True:
        side, offset = start(layout, rng)
        counts = [0] * (2 * bins)
        ok = True
        for _ in range(iters):
            base = 0 if side is Side.TOP else bins
            counts[base + offset * bins // layout.length] += 1
            for _ in range(substeps):
                step = _reference_step(layout, side, offset)
                if step is None:
                    ok = False
                    break
                side, offset = step
            if not ok:
                break
        if ok:
            return counts, restarts
        restarts += 1


def _endpoint_start(x, steps_before_hit):
    """A grid point whose orbit reaches the left end of a reversing band after
    exactly the given number of steps, so the next step hits an endpoint."""
    for label in x.perm.alphabet:
        ends = x.end_intervals(label)
        if ends[0][0] is not ends[1][0]:
            continue
        for side, lo, _ in ends:
            point = Point(side, lo)
            try:
                for _ in range(steps_before_hit):
                    point = x.apply_inverse(point)
            except EndpointHit:
                continue
            return x, point
    raise AssertionError("no backward orbit from a reversing left end")


def _force_draws(monkeypatch, forced):
    """Replace the i-th start draw by forced[i], an (exchange, point) or None,
    in lab and in the returned reference draw; every draw still consumes the
    stream as usual."""
    lab_draws, ref_draws = iter(forced), iter(forced)
    lab_start = lab._random_start

    def on_grid(entry):
        x, point = entry
        layout = IntegerLayout(x)
        offset = point.offset * layout.denominator
        assert offset.denominator == 1
        return point.side, int(offset), layout.length

    def forced_lab_start(length, rng):
        drawn = lab_start(length, rng)
        entry = next(lab_draws, None)
        if entry is None:
            return drawn
        side, offset, length = on_grid(entry)
        return (0 if side is Side.TOP else length) + offset

    def forced_ref_start(layout, rng):
        drawn = _reference_start(layout, rng)
        entry = next(ref_draws, None)
        return drawn if entry is None else on_grid(entry)[:2]

    monkeypatch.setattr(lab, "_random_start", forced_lab_start)
    return forced_ref_start


def _pairs():
    """Classical x non-classical pairs, both ways, and non-classical pairs."""
    nonclassical = [
        sample_exchange(perm, seed)
        for seed, perm in enumerate(perm_pool(STUCK_FREE_NONCLASSICAL), start=71)
    ]
    classical = [
        sample_exchange(perm, seed) for seed, perm in enumerate(perm_pool(CLASSICAL), start=81)
    ]
    pairs = list(zip(classical, nonclassical))
    pairs += [(n, c) for c, n in zip(classical[:2], nonclassical[5:])]
    pairs += [(nonclassical[i], nonclassical[i + 1]) for i in range(0, 6, 2)]
    return pairs


def test_product_kernel_equals_lock_step_loop():
    for i, (x1, x2) in enumerate(_pairs()):
        for boxes, iters in ((6, 3_000), (10, 700)):
            got = lab.product_experiment(x1, x2, boxes=boxes, iters=iters, seed=i)
            want = _reference_product(x1, x2, boxes, iters, seed=i)
            assert got.to_json_bytes() == want.to_json_bytes(), (x1, x2)


@pytest.mark.parametrize(
    "which, steps, attempts",
    [
        (0, 0, 2),  # the first factor starts on an endpoint
        (1, 0, 2),  # the second factor does
        (0, 399, 2),  # the hit is the step after the last recorded point
        (1, 399, 2),
        (0, 400, 1),  # the hit would be one step later: no restart
    ],
)
def test_product_kernel_forced_restarts(monkeypatch, which, steps, attempts):
    iters = 400
    checked = 0
    for i, (x1, x2) in enumerate(_pairs()):
        x = (x1, x2)[which]
        if x.perm.is_classical:
            continue
        checked += 1
        forced = [None, None]
        forced[which] = _endpoint_start(x, steps)
        monkeypatch.undo()
        ref_start = _force_draws(monkeypatch, forced)
        got = lab.product_experiment(x1, x2, boxes=5, iters=iters, seed=i)
        want = _reference_product(x1, x2, 5, iters, seed=i, start=ref_start)
        assert got.records[0]["attempts"] == attempts
        assert got.to_json_bytes() == want.to_json_bytes(), (x1, x2)
    assert checked >= 5


@pytest.mark.parametrize("steps, restarts", [(0, 1), (3 * 300 - 1, 1), (3 * 300, 0)])
def test_occupancy_kernel_equals_lock_step_loop(monkeypatch, steps, restarts):
    p, bins, iters = 3, 7, 300
    for i, (x1, x2) in enumerate(_pairs()[:6]):
        for x in (x1, x2):
            forced = [] if x.perm.is_classical else [_endpoint_start(x, steps)]
            monkeypatch.undo()
            ref_start = _force_draws(monkeypatch, forced)
            got = lab.total_ergodicity_experiment(x, p, bins, iters, seed=i, tower_budget=8)
            monkeypatch.setattr(
                lab,
                "_occupancy_run",
                lambda x, rng, iters, substeps, bins: _reference_occupancy(
                    x, rng, iters, substeps, bins, start=ref_start
                ),
            )
            want = lab.total_ergodicity_experiment(x, p, bins, iters, seed=i, tower_budget=8)
            assert got.to_json_bytes() == want.to_json_bytes(), x
            if forced:
                assert got.records[1]["restarts"] == restarts


# --- failures that must not become data --------------------------------------


def _nonclassical():
    a = F(1, 4) + F(1, 2**20)
    return build(NONCLASSICAL, {"A": a, "B": 1 - 2 * a, "C": a})


def test_total_ergodicity_records_budget_but_raises_inconsistency(monkeypatch):
    x = _nonclassical()

    def search(error):
        def raise_it(*args, **kwargs):
            raise error("from the tower search")

        return raise_it

    monkeypatch.setattr(lab.modp, "find_coprime_tower", search(BudgetExceeded))
    report = lab.total_ergodicity_experiment(x, 3, bins=4, iters=100, seed=1)
    assert report.records[0] == {
        "stream": "coprime_tower",
        "kind": "BudgetExceeded",
        "detail": "from the tower search",
    }
    monkeypatch.setattr(lab.modp, "find_coprime_tower", search(InconsistentStage))
    with pytest.raises(InconsistentStage):
        lab.total_ergodicity_experiment(x, 3, bins=4, iters=100, seed=1)
    monkeypatch.setattr(lab.modp, "find_coprime_tower", search(ZeroDivisionError))
    with pytest.raises(ZeroDivisionError):
        lab.total_ergodicity_experiment(x, 3, bins=4, iters=100, seed=1)


def test_rigidity_scan_rejects_negative_horizon_and_count(monkeypatch):
    def sampling(cfg):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(lab, "sample_widths", sampling)
    cfg = lab.SamplerConfig(perm=ROTATION, denominator_bound=5000, seed=11, count=2)
    with pytest.raises(InvalidInput, match="horizon must be a nonnegative int, got -2"):
        lab.rigidity_scan(cfg, F(1, 50), horizon=-2)
    negative = lab.SamplerConfig(perm=ROTATION, denominator_bound=5000, seed=11, count=-2)
    with pytest.raises(InvalidInput, match="sample count must be a nonnegative int, got -2"):
        lab.rigidity_scan(negative, F(1, 50), horizon=8)
    monkeypatch.undo()
    monkeypatch.setattr(lab, "SCAN_TOWER_BUDGET", 400)
    # an empty horizon covers no window, and no samples make no records
    report = lab.rigidity_scan(cfg, F(1, 50), horizon=0)
    assert [r["density"] for r in report.records] == [0.0, 0.0]
    empty = replace(cfg, count=0)
    assert lab.rigidity_scan(empty, F(1, 50), horizon=8).records == []


@pytest.mark.parametrize("xi", [0.02, "1/50", True], ids=["float", "str", "bool"])
def test_rigidity_scan_rejects_an_inexact_xi(monkeypatch, xi):
    def sampling(cfg):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(lab, "sample_widths", sampling)
    cfg = lab.SamplerConfig(perm=ROTATION, denominator_bound=5000, seed=11, count=2)
    with pytest.raises(InvalidInput, match="^xi must be an int or a Fraction"):
        lab.rigidity_scan(cfg, xi, horizon=8)


def test_rigidity_scan_records_budget_but_raises_inconsistency(monkeypatch):
    cfg = lab.SamplerConfig(perm=ROTATION, denominator_bound=5000, seed=11, count=2)

    def budget(*args, **kwargs):
        raise BudgetExceeded("no time")

    monkeypatch.setattr(lab.approx, "find_rigidity_times", budget)
    report = lab.rigidity_scan(cfg, F(1, 50), horizon=8)
    assert report.records == [
        {"sample": 0, "error": "BudgetExceeded"},
        {"sample": 1, "error": "BudgetExceeded"},
    ]
    monkeypatch.undo()
    monkeypatch.setattr(lab, "SCAN_TOWER_BUDGET", 400)

    def inconsistent(*args, **kwargs):
        raise InconsistentStage("a broken stage")

    monkeypatch.setattr(lab.approx, "find_cyclic_tower", inconsistent)
    with pytest.raises(InconsistentStage):
        lab.rigidity_scan(cfg, F(1, 50), horizon=8)


def test_short_orbit_is_an_invariant_violation(monkeypatch):
    x = _nonclassical()
    kernel = lab._orbit_cells
    monkeypatch.setattr(lab, "_orbit_cells", lambda *args: kernel(*args)[:-1])
    with pytest.raises(InvariantViolation):
        lab.product_experiment(x, x, boxes=4, iters=200, seed=1)
    with pytest.raises(InvariantViolation):
        lab.total_ergodicity_experiment(x, 2, bins=4, iters=200, seed=1, tower_budget=4)


@pytest.mark.parametrize("size", [0, -1])
def test_zero_sizes_are_rejected_before_any_orbit(monkeypatch, size):
    x = _nonclassical()

    def untouched(*args, **kwargs):
        raise AssertionError("ran before the size check")

    monkeypatch.setattr(lab, "_orbit_cells", untouched)
    monkeypatch.setattr(lab.modp, "find_coprime_tower", untouched)
    with pytest.raises(InvalidInput, match="boxes must be at least 1"):
        lab.product_experiment(x, x, boxes=size, iters=200, seed=1)
    with pytest.raises(InvalidInput, match="bins must be at least 1"):
        lab.total_ergodicity_experiment(x, 2, bins=size, iters=200, seed=1)
    # zero iterations do not excuse a zero size
    with pytest.raises(InvalidInput):
        lab.product_experiment(x, x, boxes=size, iters=0, seed=1)
    with pytest.raises(InvalidInput):
        lab.total_ergodicity_experiment(x, 2, bins=size, iters=0, seed=1)


@pytest.mark.parametrize("p", [4, 9, True])
def test_ergodicity_rejects_a_p_that_is_not_prime_before_any_search(monkeypatch, p):
    def untouched(*args, **kwargs):
        raise AssertionError("ran before the prime check")

    monkeypatch.setattr(lab.modp, "find_coprime_tower", untouched)
    monkeypatch.setattr(lab, "_occupancy_run", untouched)
    with pytest.raises(InvalidInput, match=f"^p must be a prime int, got {p!r}$"):
        lab.total_ergodicity_experiment(_nonclassical(), p, bins=4, iters=200, seed=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda x: lab.product_experiment(x, x, 4, 2.5),
            "iters must be a nonnegative int, got 2.5",
        ),
        (
            lambda x: lab.product_experiment(x, x, 4, -5),
            "iters must be a nonnegative int, got -5",
        ),
        (
            lambda x: lab.product_experiment(x, x, 4, True),
            "iters must be a nonnegative int, got True",
        ),
        (
            lambda x: lab.total_ergodicity_experiment(x, 2, 4, 2.5),
            "iters must be a nonnegative int, got 2.5",
        ),
        (
            lambda x: lab.total_ergodicity_experiment(x, 2, 4, -5),
            "iters must be a nonnegative int, got -5",
        ),
        (
            lambda x: lab.sample_widths(lab.SamplerConfig(perm=ROTATION, count=-1)),
            "sample count must be a nonnegative int, got -1",
        ),
        (
            lambda x: lab.sample_widths(lab.SamplerConfig(perm=ROTATION, count=2.5)),
            "sample count must be a nonnegative int, got 2.5",
        ),
        (
            lambda x: lab.sample_widths(lab.SamplerConfig(perm=ROTATION, denominator_bound=1e6)),
            "denominator bound must be a positive int, got 1000000.0",
        ),
        (
            lambda x: lab.rigidity_scan(lab.SamplerConfig(perm=ROTATION), F(1, 20), 2.5),
            "horizon must be a nonnegative int, got 2.5",
        ),
        (
            lambda x: lab.rigidity_scan(
                lab.SamplerConfig(perm=ROTATION, denominator_bound=False), F(1, 20), 3
            ),
            "denominator bound must be a positive int, got False",
        ),
    ],
    ids=[
        "product-iters-float",
        "product-iters-negative",
        "product-iters-bool",
        "ergodicity-iters-float",
        "ergodicity-iters-negative",
        "count-negative",
        "count-float",
        "bound-float",
        "scan-horizon-float",
        "scan-bound-bool",
    ],
)
def test_lab_sizes_must_be_ints_in_range(monkeypatch, call, message):
    def untouched(*args, **kwargs):
        raise AssertionError("ran before the size check")

    for name in ("_gaps", "_orbit_cells"):
        monkeypatch.setattr(lab, name, untouched)
    monkeypatch.setattr(lab.modp, "find_coprime_tower", untouched)
    with pytest.raises(InvalidInput, match="^" + re.escape(message) + "$"):
        call(_nonclassical())

