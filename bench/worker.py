"""One benchmark process: set up one workload, then time passes over it.

Started by ``run.py`` in a fresh interpreter, so that import time, set-up
time and peak resident memory belong to this workload alone.  Prints one
JSON object on its last line of output.

    python3 bench/worker.py --workload induction --seed 1 --seconds 30 --trace 0
    python3 bench/worker.py --workload induction --seed 1 --setup-only
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
PROBES_PER_PASS = 3


def import_linvex():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "linvex" / "__init__.py").is_file():
        raise SystemExit(f"no linvex package under {SRC}")
    sys.path.insert(0, str(SRC))
    import linvex

    if Path(linvex.__file__).resolve().parent != (SRC / "linvex").resolve():
        raise SystemExit(f"imported linvex from {linvex.__file__}, not from {SRC}")


class Setup:
    """The selected tasks of one workload with their prepared inputs."""

    def __init__(self, workload: str, seed: int, limit: int | None = None):
        import workloads

        self.workload = workloads.REGISTRY[workload]
        pool = self.workload.pool()
        record = json.loads(EXPECTED.read_text())[workload]
        if len(record) != len(pool):
            raise SystemExit(
                f"{EXPECTED.name} holds {len(record)} {workload} tasks, the pool has {len(pool)}"
            )
        chosen = workloads.select([cost for _, cost in record], seed)
        if limit is not None:
            chosen = chosen[:limit]
        self.indices = chosen
        self.expected = [record[i][0] for i in chosen]
        self.inputs = [self.workload.prepare(pool[i]) for i in chosen]


def run_pass(setup: Setup, order: list[int]) -> tuple[list[float], str, list[str], dict[str, int]]:
    """Run every task once, in ``order``, checking each output right after its timed call.

    Returns the task times and digests by task position, so passes run in
    different orders line up, plus the pass digest, the failures and the
    counts of expected domain outcomes.  Only the library calls are timed;
    checking a task before the next one starts keeps a single output alive.
    """
    import workloads

    times = [0.0] * len(order)
    digests = ["error"] * len(order)
    failures: list[str] = []
    outcomes: dict[str, int] = {}
    run, finish = setup.workload.run, setup.workload.finish
    for k in order:
        index, inputs = setup.indices[k], setup.inputs[k]
        start = time.perf_counter()
        try:
            result = run(inputs)
        except Exception:  # noqa: BLE001 - an unexpected error fails the task, the run goes on
            times[k] = time.perf_counter() - start
            failures.append(f"task {index}: unexpected error\n{traceback.format_exc(limit=3)}")
            continue
        times[k] = time.perf_counter() - start
        output, problems, outcome = finish(inputs, result)
        digests[k] = workloads.canonical_digest(output)
        if digests[k] != setup.expected[k]:
            problems = problems + [f"digest {digests[k]} != recorded {setup.expected[k]}"]
        if problems:
            failures.append(f"task {index}: " + "; ".join(problems))
        if outcome is not None:
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    pass_digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()[:32]
    return times, pass_digest, failures, outcomes


def quantile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def probe_setup(workload: str, seed: int, limit: int | None) -> float:
    """Set-up time of a fresh interpreter: import plus input generation."""
    args = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    if limit is not None:
        args += ["--limit", str(limit)]
    proc = subprocess.run(args, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)["setup_s"]


def measure(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """Set up, then run passes for ``seconds`` (at least one; two when tracing).

    With tracing, passes alternate untraced and traced, so the wall times of
    both kinds give the tracing overhead.  Without tracing, ``PROBES_PER_PASS``
    fresh interpreters time the set-up after each pass; spread over the run,
    no single burst of load on the machine reaches most of them.
    """
    import tracing

    setup_tracer = tracing.Tracer()
    if trace:
        setup_tracer.install()
    try:
        setup = Setup(workload, seed, limit)
    finally:
        setup_tracer.uninstall()
    setup_s = time.perf_counter() - STARTED

    tracer = tracing.Tracer()
    plain_walls, traced_walls, plain_times, traced_times, setups = [], [], [], [], []
    failures: list[str] = []
    digests: set[str] = set()
    outcomes: dict[str, int] = {}
    attempted = 0
    begin = time.perf_counter()
    while True:
        traced = trace and len(plain_walls) > len(traced_walls)
        if traced:
            tracer.install()
        # Each pass runs the tasks in its own seeded order, so no task always
        # follows the same neighbour and inherits its caches and heap.
        order = list(range(len(setup.inputs)))
        random.Random(f"order:{seed}:{len(plain_walls) + len(traced_walls)}").shuffle(order)
        try:
            times, digest, pass_failures, outcomes = run_pass(setup, order)
        finally:
            tracer.uninstall()
        wall = sum(times)
        if traced:
            traced_walls.append(wall)
            traced_times.append(times)
        else:
            plain_walls.append(wall)
            plain_times.append(times)
            setups += [probe_setup(workload, seed, limit) for _ in range(PROBES_PER_PASS)]
        attempted += len(times)
        digests.add(digest)
        failures.extend(pass_failures)
        passes = len(plain_walls) + len(traced_walls)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / passes > seconds and (not trace or traced_walls):
            break
    # A task's latency is its fastest untraced pass: load from other
    # processes only ever adds time, so bursts of it, which reach some
    # passes of a task but rarely all, do not move the percentiles or
    # ``wall_s``, the time of one pass made of these latencies.
    latencies = [min(per_task) for per_task in zip(*plain_times)]

    report = {
        "workload": workload,
        "seed": seed,
        "tasks": len(setup.indices),
        "passes": len(plain_walls) + len(traced_walls),
        "attempted": attempted,
        "failed_tasks": len(failures),
        "failures": failures[:5],
        # One value when every pass, traced or not, gave the same outputs.
        "digest": " ".join(sorted(digests)),
        "outcomes": outcomes,
        "setup_s": statistics.median(setups) if setups else setup_s,
        "setup_samples_s": setups,
        "pass_walls_s": plain_walls,
        "wall_s": sum(latencies),
        "task_p50_ms": 1e3 * quantile(latencies, 0.5),
        "task_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        traced_latencies = [min(per_task) for per_task in zip(*traced_times)]
        overhead = sum(traced_latencies) / sum(latencies) - 1
        layers = tracing.layer_metrics(
            tracer, len(traced_walls), sum(traced_walls), setup_tracer, overhead
        )
        report["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None, help="at most this many tasks")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # lab.effective_seed lets LINVEX_SEED replace the sampler seeds, which
    # would silently change the workload.
    os.environ.pop("LINVEX_SEED", None)
    import_linvex()
    sys.path.insert(0, str(BENCH))
    if args.setup_only:
        Setup(args.workload, args.seed, args.limit)
        result = {"setup_s": time.perf_counter() - STARTED}
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.limit)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
