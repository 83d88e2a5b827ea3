"""Seeded samplers and desk-scale statistical experiments.

Width sampling draws sorted-uniform gaps on a rational grid and then
rescales the two reversing groups to a common total, so every sample
satisfies the switch condition exactly.  The result is not exactly the
Lebesgue measure of the configuration polytope; it is documented as an
approximation adequate for full-measure phenomena.

Orbit statistics run on an integer grid: all layout data shares one
common denominator, so a million-step orbit is exact integer arithmetic.
Experiments are deterministic given their seed; per-sample substreams
derive from (seed, index).  Sizes (sample counts, iterations, horizons,
denominator bounds, box and bin counts) must be ints, not bools, in
range; else InvalidInput.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import approx, modp
from .errors import LIMITS, BudgetExceeded, ExpansionHalted, InvalidInput, InvariantViolation
from .exchange import Exchange, _check_size, _exact
from .genperm import GeneralizedPermutation
from .rationals import canonical_json_bytes, format_fraction

DEFAULT_DENOMINATOR_BOUND = 2**40
# Fixed experiment settings, recorded in the parameters of every report.
TOWER_DELTA = Fraction(1, 4)
TOLERANCE = 0.05


def substream(seed: int, index) -> random.Random:
    """Deterministic per-sample stream; str seeding hashes with sha512."""
    return random.Random(f"{seed}:{index}")


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    perm: GeneralizedPermutation
    denominator_bound: int = DEFAULT_DENOMINATOR_BOUND
    seed: int = 0
    count: int = 1


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    records: list[dict]
    aggregates: dict = field(default_factory=dict)
    passed: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "records": self.records,
            "aggregates": self.aggregates,
            "passed": self.passed,
        }

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        keys = dict.fromkeys(key for record in self.records for key in record)
        writer = csv.DictWriter(buf, fieldnames=list(keys), lineterminator="\n")
        writer.writeheader()
        for record in self.records:
            writer.writerow(record)
        return buf.getvalue()


def _gaps(rng: random.Random, parts: int, grid: int) -> list[Fraction]:
    """Widths of a sorted-uniform partition of [0, 1] on a 1/grid grid."""
    for _ in range(LIMITS["draws"]):
        cuts = sorted(rng.randrange(0, grid + 1) for _ in range(parts - 1))
        values = [hi - lo for lo, hi in zip([0] + cuts, cuts + [grid])]
        if all(v > 0 for v in values):
            return [Fraction(v, grid) for v in values]
    raise BudgetExceeded(f"could not draw {parts} positive gaps on grid {grid}")


def _check_sampler(cfg: SamplerConfig) -> None:
    if not cfg.perm.is_realizable():
        raise InvalidInput(f"no widths of {cfg.perm} satisfy the switch condition")
    _check_size(cfg.count, "sample count")
    _check_size(cfg.denominator_bound, "denominator bound", 1)
    if cfg.denominator_bound < cfg.perm.band_count:
        raise InvalidInput("denominator bound must be at least the band count")


def sample_widths(cfg: SamplerConfig) -> list[dict[str, Fraction]]:
    """Draw ``count`` exact width vectors for the configured permutation."""
    perm = cfg.perm
    _check_sampler(cfg)
    out = []
    labels = list(perm.alphabet)
    top_rev = perm.reversing_top
    bottom_rev = perm.reversing_bottom
    for index in range(cfg.count):
        # The gaps are positive and rescaling keeps them so.
        gaps = _gaps(substream(cfg.seed, index), perm.band_count, cfg.denominator_bound)
        widths = dict(zip(labels, gaps))
        if top_rev:
            top_sum = sum((widths[a] for a in top_rev), Fraction(0))
            bottom_sum = sum((widths[a] for a in bottom_rev), Fraction(0))
            level = (top_sum + bottom_sum) / 2
            for a in top_rev:
                widths[a] = widths[a] * level / top_sum
            for a in bottom_rev:
                widths[a] = widths[a] * level / bottom_sum
        out.append(widths)
    return out


def _random_start(length: int, rng: random.Random) -> int:
    """A uniform grid point of the two sides laid end to end: side, then offset."""
    side = rng.randrange(2)
    return side * length + rng.randrange(length)


def _orbit_cells(
    flat_map, start: int, count: int, stride: int, cells: int, span: int
) -> list[int] | None:
    """Cells of ``count`` orbit points ``stride`` steps apart, or None.

    The orbit of the flat point ``start`` under ``flat_map`` (an
    exchange's ``_flat``, see ``exchange.Exchange``) takes count * stride
    steps and records the point before every stride-th step, binned as
    (f mod span) * cells // span.  None means one of the steps hit an
    endpoint: a reversing position's own left end.

    A recorded point is binned and stepped by one lookup in a table built
    once per call.  Its edges refine the map's breakpoints ``bounds[:-1]``
    by the cell thresholds base + ceil(k * span / cells) of each side,
    for base in range(0, 2L, span) and k in 0 .. cells - 1, less those at
    or past 2L.  On each refined interval the cell of its left edge holds
    throughout, as does the map's position; the interval keeps that cell
    with the position's slope, shift and left end.  The other stride - 1
    steps of each stride look up the position in ``bounds`` alone.
    """
    _, length, bounds, slopes, shifts = flat_map
    end = 2 * length
    thresholds = {base - (-k * span // cells) for base in range(0, end, span) for k in range(cells)}
    edges = sorted({t for t in thresholds if t < end}.union(bounds[:-1]))
    rows = []
    for e in edges:
        p = bisect_right(bounds, e) - 1
        rows.append((e % span * cells // span, slopes[p], shifts[p], bounds[p]))
    # edges[0] is 0, so a point's row is the count of the other edges at or below it.
    cuts = edges[1:]
    f = start
    out = []
    append = out.append
    substeps = range(stride - 1)
    for _ in range(count):
        cell, slope, shift, left = rows[bisect_right(cuts, f)]
        append(cell)
        if slope == 1:
            f += shift
        elif f == left:
            return None
        else:
            f = shift - f
        for _ in substeps:
            p = bisect_right(bounds, f) - 1
            if slopes[p] == 1:
                f += shifts[p]
            elif f == bounds[p]:
                return None
            else:
                f = shifts[p] - f
    return out


def _occupancy_run(
    x: Exchange, start_rng: random.Random, iters: int, substeps: int, bins_per_side: int
) -> tuple[list[int], int]:
    """Iterate substeps-at-a-time and bin positions; returns counts, restarts."""
    flat_map = x._flat
    length = flat_map[1]
    for restarts in range(LIMITS["draws"]):
        start = _random_start(length, start_rng)
        cells = _orbit_cells(flat_map, start, iters, substeps, 2 * bins_per_side, 2 * length)
        if cells is not None:
            counts = [0] * (2 * bins_per_side)
            for c in cells:
                counts[c] += 1
            return counts, restarts
    raise BudgetExceeded("orbit kept hitting endpoints")


def total_ergodicity_experiment(
    x: Exchange,
    p: int,
    bins: int,
    iters: int,
    seed: int = 0,
    tower_budget: int = LIMITS["tower_splits"],
) -> ExperimentReport:
    """Two evidence streams for total ergodicity at a prime.

    Stream one asks for a verified tower with constant ``TOWER_DELTA``
    and height coprime to p (or a structural obstruction).  Stream two
    measures how evenly an orbit of the p-th power fills ``bins`` bins
    per side and passes when every relative deviation is below ``TOLERANCE``.
    """
    modp.check_prime(p)
    _check_size(bins, "bins", 1)
    _check_size(iters, "iters")
    params = {
        "prime": p,
        "bins_per_side": bins,
        "iterations": iters,
        "seed": seed,
        "tower_delta": format_fraction(TOWER_DELTA),
        "tower_budget": tower_budget,
        "tolerance": TOLERANCE,
    }
    records: list[dict] = []

    tower_outcome: dict
    try:
        result = modp.find_coprime_tower(x, TOWER_DELTA, p, budget=tower_budget)
    except (BudgetExceeded, ExpansionHalted) as err:
        tower_outcome = {"kind": type(err).__name__, "detail": str(err)}
    else:
        if isinstance(result, modp.StructuralObstruction):
            tower_outcome = {"kind": "StructuralObstruction", "detail": result.reason}
        else:
            tower_outcome = {
                "kind": "CyclicTower",
                "band": result.band,
                "height": result.height,
                "depth": result.depth,
            }
    records.append({"stream": "coprime_tower", **tower_outcome})

    if iters > 0:
        counts, restarts = _occupancy_run(x, substream(seed, "birkhoff"), iters, p, bins)
        if sum(counts) != iters:
            raise InvariantViolation(f"orbit recorded {sum(counts)} of {iters} points")
        expected = iters / (2 * bins)
        max_dev = max(abs(c - expected) / expected for c in counts)
        records.append(
            {
                "stream": "birkhoff",
                "max_bin_deviation": max_dev,
                "restarts": restarts,
                "occupied_bins": sum(1 for c in counts if c),
            }
        )
        passed = max_dev < TOLERANCE
        aggregates = {"max_bin_deviation": max_dev, "tower": tower_outcome["kind"]}
    else:
        records.append({"stream": "birkhoff", "insufficient": True})
        passed = None
        aggregates = {"insufficient": True, "tower": tower_outcome["kind"]}
    return ExperimentReport(
        experiment="total_ergodicity",
        parameters=params,
        records=records,
        aggregates=aggregates,
        passed=passed,
    )


def product_experiment(
    x1: Exchange,
    x2: Exchange,
    boxes: int,
    iters: int,
    seed: int = 0,
) -> ExperimentReport:
    """Joint occupancy of two orbits on a boxes-by-boxes grid.

    Statistical evidence only: near-uniform joint occupancy is consistent
    with the product system having no invariant measure beyond the
    product; concentration flags the opposite.  The report passes when
    every relative box deviation is below ``TOLERANCE``.

    A classical factor keeps each side invariant, so its coordinate is the
    offset within the starting side; a non-classical factor flattens both
    sides into one coordinate.
    """
    _check_size(boxes, "boxes", 1)
    _check_size(iters, "iters")
    params = {
        "boxes": boxes,
        "iterations": iters,
        "seed": seed,
        "tolerance": TOLERANCE,
    }
    if iters <= 0:
        return ExperimentReport(
            experiment="product_equidistribution",
            parameters=params,
            records=[{"insufficient": True}],
            aggregates={"insufficient": True},
            passed=None,
        )
    maps = (x1._flat, x2._flat)
    spans = [m[1] if x.perm.is_classical else 2 * m[1] for m, x in zip(maps, (x1, x2))]
    rng = substream(seed, "product")
    for attempt in range(LIMITS["draws"]):
        starts = [_random_start(m[1], rng) for m in maps]
        first = _orbit_cells(maps[0], starts[0], iters, 1, boxes, spans[0])
        if first is None:
            continue
        second = _orbit_cells(maps[1], starts[1], iters, 1, boxes, spans[1])
        if second is not None:
            break
    else:
        raise BudgetExceeded("joint orbit kept hitting endpoints")
    counts = [0] * (boxes * boxes)
    for a, b in zip(first, second):
        counts[a * boxes + b] += 1
    if sum(counts) != iters:
        raise InvariantViolation(f"joint orbit recorded {sum(counts)} of {iters} points")
    expected = iters / (boxes * boxes)
    max_dev = max(abs(c - expected) / expected for c in counts)
    empty = sum(1 for c in counts if c == 0)
    records = [
        {
            "max_box_deviation": max_dev,
            "empty_boxes": empty,
            "attempts": attempt + 1,
        }
    ]
    return ExperimentReport(
        experiment="product_equidistribution",
        parameters=params,
        records=records,
        aggregates={"max_box_deviation": max_dev, "empty_boxes": empty},
        passed=max_dev < TOLERANCE,
    )


def rigidity_scan(
    cfg: SamplerConfig,
    xi: Fraction,
    horizon: int,
) -> ExperimentReport:
    """Empirical density of dyadic windows holding a rigidity time.

    For each sampled exchange, tower heights from a shrinking ladder are
    graded by exact defect; window i in 0 .. horizon-1 counts as covered
    when some flagged time lands in [2^i, 2^(i+1)).  A ``horizon`` or
    sample count that is not a nonnegative int, or an ``xi`` that is not an
    int or a Fraction, is InvalidInput, raised before any sampling.
    """
    _check_size(horizon, "horizon")
    _check_sampler(cfg)
    xi = _exact(xi, "xi")
    params = {
        "xi": format_fraction(xi),
        "horizon": horizon,
        "seed": cfg.seed,
        "samples": cfg.count,
        "denominator_bound": cfg.denominator_bound,
    }
    records = []
    densities = []
    for index, widths in enumerate(sample_widths(cfg)):
        x = Exchange(cfg.perm, widths)
        try:
            recs = approx.find_rigidity_times(x, xi, [], tower_budget=LIMITS["scan_splits"])
        except (BudgetExceeded, ExpansionHalted) as err:
            records.append({"sample": index, "error": type(err).__name__})
            continue
        flagged = [r.n for r in recs if r.flagged]
        covered = {n.bit_length() - 1 for n in flagged if 1 <= n < 2**horizon}
        density = len(covered) / horizon if horizon else 0.0
        densities.append(density)
        records.append(
            {
                "sample": index,
                "flagged_times": ",".join(str(n) for n in flagged),
                "covered_windows": len(covered),
                "density": density,
            }
        )
    aggregates = {
        "mean_density": sum(densities) / len(densities) if densities else 0.0,
        "samples_with_flagged_time": sum(1 for r in records if r.get("flagged_times")),
    }
    return ExperimentReport(
        experiment="rigidity_scan",
        parameters=params,
        records=records,
        aggregates=aggregates,
        passed=None,
    )
