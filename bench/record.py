"""Record every pool task's exact-output digest and cost in ``expected.json``.

    python3 bench/record.py                # all workloads
    python3 bench/record.py closure        # one workload, others kept

Run it only when a workload's pool changes, never to make a failing
benchmark pass: the digests are how the benchmark knows an answer is
still exact.  Costs (milliseconds) only steer which tasks
``workloads.select`` pairs; each is the fastest of three timings, because
load from other processes only ever adds time.  Refuses to record a task
whose oracle checks fail.
"""

from __future__ import annotations

import json
import sys
import time

from worker import BENCH, EXPECTED, import_linvex

COST_REPEATS = 3


def record(name: str) -> list:
    import workloads

    workload = workloads.REGISTRY[name]
    entries = []
    for index, spec in enumerate(workload.pool()):
        inputs = workload.prepare(spec)
        times = []
        for _ in range(COST_REPEATS):
            start = time.perf_counter()
            result = workload.run(inputs)
            times.append(time.perf_counter() - start)
        cost_ms = 1e3 * min(times)
        output, problems, _ = workload.finish(inputs, result)
        if problems:
            raise SystemExit(f"{name} task {index} {spec}: {'; '.join(problems)}")
        entries.append([workloads.canonical_digest(output), float(f"{cost_ms:.3g}")])
    return entries


def main(argv: list[str]) -> int:
    import_linvex()
    sys.path.insert(0, str(BENCH))
    import workloads

    names = argv or list(workloads.WORKLOADS)
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name in names:
        start = time.perf_counter()
        data[name] = record(name)
        print(f"{name}: {len(data[name])} tasks, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    lines = []
    for name in workloads.WORKLOADS:
        if name in data:
            rows = ",\n".join("    " + json.dumps(entry) for entry in data[name])
            lines.append(f'  "{name}": [\n{rows}\n  ]')
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
