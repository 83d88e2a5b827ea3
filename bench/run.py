"""Benchmark entry point for linvex: one workload per call, or all four.

    python3 bench/run.py --workload induction --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the last line of output is the end-to-end result of
the workload; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The line before it records the run: seed, machine, commit,
digest, tasks, passes, expected domain outcomes and ``failed_frac``.
Exits 0 only when every task ran and every output matched its recorded
digest and oracle checks.

This file imports nothing from linvex.  Each workload runs in a fresh
interpreter (``worker.py``), so that its peak resident memory is
``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("induction", "towers", "iterate", "closure")
# The worker of one workload must end within this many seconds.
DEADLINE_S = 170
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(args: list[str]) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ)
    # Fixed hashing makes set and dict iteration order, and any cost that
    # depends on it, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=DEADLINE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool, limit: int | None) -> tuple[dict, dict]:
    """Measure one workload; returns (record of the run, result object)."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if limit is not None:
        args += ["--limit", str(limit)]
    report = worker(args)
    failed = report["failed_tasks"]
    attempted = report["attempted"]
    record = {
        "workload": name,
        "env": environment(seed),
        "tasks": report["tasks"],
        "passes": report["passes"],
        "pass_walls_s": report["pass_walls_s"],
        "attempted": attempted,
        "digest": report["digest"],
        "outcomes": report["outcomes"],
        "setup_samples_s": report["setup_samples_s"],
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "failures": report["failures"],
    }
    if trace:
        metrics = report["per_layer"]
    else:
        metrics = {key: {"value": report[key], "unit": unit} for key, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linvex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None, help="smoke runs: at most N tasks")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker before the exception goes on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "linvex" / "__init__.py").is_file():
        print(f"error: no linvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # lab.effective_seed lets LINVEX_SEED replace the sampler seeds, which
    # would silently change the workload; the workers never see it.
    if os.environ.pop("LINVEX_SEED", None) is not None:
        print("note: LINVEX_SEED is ignored by the benchmark", file=sys.stderr)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records, results = {}, {}
    try:
        for name in names:
            record, results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.limit
            )
            records[name] = record
            print(json.dumps(record))
            for failure in record["failures"]:
                print(f"{name}: {failure}", file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, result in results.items():
            rows = dict(result["metrics"], failed_frac=records[name]["failed_frac"])
            for metric, m in rows.items():
                print(f"{name:10s} {metric:42s} {m['value']:>14.6g} {m['unit']}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
