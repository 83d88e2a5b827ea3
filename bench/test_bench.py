"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import worker

worker.import_linvex()

import tracing  # noqa: E402
import workloads  # noqa: E402
from linvex import approx, genperm, modp  # noqa: E402
from linvex.errors import BudgetExceeded, ExpansionHalted  # noqa: E402
from linvex.exchange import Exchange  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_names_the_workloads():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_tiny_and_emits_end_to_end_metrics(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--limit", "3")
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert record["env"]["seed"] == 3 and record["env"]["nproc"] >= 1


def test_traced_run_emits_per_layer_metrics():
    proc = run_bench("--workload", "iterate", "--seed", "3", "--seconds", "1", "--trace", "1", "--limit", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == units(SPEC["per_layer"])
    assert metrics["rauzy.split.calls"]["value"] == 0


def test_tracer_wraps_the_name_bound_in_modp():
    perm = genperm.validate(["A", "A", "B"], ["B", "C", "C"])
    x = Exchange(perm, {"A": Fraction(1, 4), "B": Fraction(1, 2), "C": Fraction(1, 4)})
    original = approx.find_cyclic_tower
    original_init = Exchange.__dict__["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert modp.find_cyclic_tower is approx.find_cyclic_tower is not original
        try:
            modp.find_coprime_tower(x, Fraction(2, 5), 3, budget=20)
        except (BudgetExceeded, ExpansionHalted):
            pass
    finally:
        tracer.uninstall()
    assert modp.find_cyclic_tower is approx.find_cyclic_tower is original
    assert Exchange.__dict__["__init__"] is original_init
    stats = tracer.stats
    assert stats["modp.find_coprime_tower"].calls == 1
    assert stats["approx.find_cyclic_tower"].calls == 1
    assert stats["rauzy.split"].calls >= 1
    assert stats["exchange.Exchange"].calls >= 1
    found = stats["approx.find_cyclic_tower"]
    # A parent's self time excludes the time of its traced children.
    assert found.self_s < found.total_s


@pytest.mark.parametrize("name", ["induction", "towers"])
def test_traced_digest_equals_untraced_digest(name):
    setup = worker.Setup(name, seed=5, limit=3)
    _, plain, failures, _ = worker.run_pass(setup, [0, 1, 2])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced, traced_failures, _ = worker.run_pass(setup, [2, 0, 1])
    finally:
        tracer.uninstall()
    assert failures == traced_failures == []
    assert traced == plain
    assert tracer.stats["rauzy.split"].calls > 0


def test_linvex_seed_does_not_change_the_workload():
    env = dict(os.environ, LINVEX_SEED="99")
    proc = run_bench("--workload", "induction", "--seed", "3", "--seconds", "1", "--limit", "2", env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_select_pairs_tasks_of_near_equal_cost():
    costs = [1.0, 1.1, 5.0, 100.0, 101.0, 400.0]
    runs = {tuple(sorted(workloads.select(costs, seed))) for seed in range(20)}
    for chosen in runs:
        assert len(chosen) == 4
        assert 2 in chosen and 5 in chosen  # no near-equal neighbour: always runs
        assert len({0, 1} & set(chosen)) == 1 and len({3, 4} & set(chosen)) == 1
    assert len(runs) == 4
    assert workloads.select(costs, 7) == workloads.select(costs, 7)
