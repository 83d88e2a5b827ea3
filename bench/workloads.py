"""The four benchmark workloads: task pools, timed calls, checks and outputs.

Every workload is a fixed pool of tasks built from constants, so each
task's exact output can be recorded once (``expected.json``) and checked on
every run.  The run's ``--seed`` chooses which tasks of the pool run and in
what order (see ``select``); the library only ever sees the generated
inputs.

A task has three parts:

- ``prepare(spec)`` builds its inputs (set-up: sampling widths, building
  exchanges);
- ``run(inputs)`` makes the library calls that are timed;
- ``finish(inputs, result)`` returns the exact output that is digested and
  the list of oracle checks that failed.  It runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from linvex import approx, diagram, genperm, lab, modp, rauzy
from linvex.errors import BudgetExceeded, ExpansionHalted
from linvex.exchange import Exchange

WORKLOADS = ("induction", "towers", "iterate", "closure")

# Permutation pools, the same classes the test suite samples from.
STUCK_FREE_NONCLASSICAL = [
    (("A", "A", "B"), ("B", "C", "C")),
    (("A", "B", "B"), ("C", "C", "A")),
    (("A", "A", "B"), ("B", "C", "D", "C", "D")),
    (("A", "A", "B"), ("C", "B", "C", "D", "D")),
    (("A", "A", "B"), ("B", "C", "D", "E", "C", "D", "E")),
    (("A", "A", "B"), ("C", "C", "D", "D", "B", "E", "E")),
    (("A", "B", "A"), ("C", "B", "D", "C", "E", "D", "E")),
]
ALL_REVERSING = [
    (("A", "A"), ("B", "B", "C", "C")),
    (("A", "A", "B", "B"), ("C", "C", "D", "D")),
    (("A", "B", "A", "B"), ("C", "D", "C", "D")),
    (("A", "B", "B", "A"), ("C", "D", "D", "C")),
    (("A", "A", "B", "B", "C", "C"), ("D", "D", "E", "E")),
]
TOWER_FRIENDLY = [
    (("A", "A", "B"), ("B", "C", "C")),
    (("A", "B", "B"), ("C", "C", "A")),
    (("A", "B", "A"), ("C", "C", "D", "D", "B")),
    (("A", "B", "A"), ("B", "C", "C", "D", "D")),
    (("A", "A", "B"), ("B", "C", "D", "C", "D")),
    (("A", "A", "B"), ("B", "C", "D", "E", "C", "D", "E")),
    (("A", "B", "A"), ("C", "B", "D", "C", "E", "D", "E")),
]
ROTATION = (("A", "B"), ("B", "A"))

DENOMINATOR_BOUND = 2**40

INDUCTION_POOL = 300
INDUCTION_DEPTH = 200
PRIMES = (2, 3, 5, 7)

TOWER_EXCHANGES = 300
TOWER_OBSTRUCTED = 20
TOWER_DELTA = Fraction(1, 4)
COPRIME_DELTA = Fraction(2, 5)
COPRIME_PRIME = 3
# Tower heights grow about 1.4x per split, and verification cost grows with
# height; 48 splits keeps the slowest task under a second while tall towers
# (10^5 levels and more) still dominate the workload's time.
TOWER_SPLIT_BUDGET = 48

ROTATIONS = 40
ROTATION_PERIODS = (16, 100)
PROFILES = 40
PROFILE_DEPTH = 32
PRODUCTS = 120
PRODUCT_BOXES = 10
PRODUCT_ITERS = 8_000

CLOSURE_BANDS = (2, 3, 4)

# Pairing rule of ``select``: neighbours in cost order pair up when the
# dearer one costs at most this much more than the cheaper one.
PAIR_RATIO = 1.1
PAIR_SLACK_MS = 0.05


def perm(entry) -> genperm.GeneralizedPermutation:
    top, bottom = entry
    return genperm.validate(list(top), list(bottom))


def sample(p: genperm.GeneralizedPermutation, seed: int) -> Exchange:
    cfg = lab.SamplerConfig(perm=p, denominator_bound=DENOMINATOR_BOUND, seed=seed, count=1)
    (widths,) = lab.sample_widths(cfg)
    return Exchange(p, widths)


def canonical_digest(obj: Any) -> str:
    """SHA-256 of canonical JSON, cut to 128 bits."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def fractions_json(values) -> list[str]:
    return [f"{v.numerator}/{v.denominator}" for v in values]


@dataclass(frozen=True)
class Outcome:
    """An expected domain outcome of a task, recorded as data."""

    name: str


# --- induction --------------------------------------------------------------


def induction_pool() -> list[tuple]:
    entries = STUCK_FREE_NONCLASSICAL + ALL_REVERSING
    return [("expand", i % len(entries), 1_000_000 + i) for i in range(INDUCTION_POOL)]


def induction_prepare(spec) -> Exchange:
    entries = STUCK_FREE_NONCLASSICAL + ALL_REVERSING
    return sample(perm(entries[spec[1]]), spec[2])


def induction_run(x: Exchange):
    stage = rauzy.expand(x, INDUCTION_DEPTH)
    states = {p: modp.initial_state(x.perm, p) for p in PRIMES}
    claims: dict[int, dict[str, int]] = {p: {} for p in PRIMES}
    parity_breaks = 0
    all_reversing = x.perm.is_all_reversing
    for step, node in zip(stage.steps, stage.nodes[1:]):
        for p in PRIMES:
            state = modp.propagate(states[p], step.winner, step.loser, node)
            states[p] = state
            kind = type(modp.check_claim_invariant(state)).__name__
            claims[p][kind] = claims[p].get(kind, 0) + 1
        if all_reversing:
            # Column norms of preserving bands stay even, reversing ones odd.
            preserving = node.preserving_bands()
            for band, rem in states[2].remainders:
                if rem != (0 if band in preserving else 1):
                    parity_breaks += 1
    return stage, states, claims, parity_breaks


def induction_finish(x: Exchange, result):
    stage, states, claims, parity_breaks = result
    problems = []
    if stage.matrix.apply_to_widths(rauzy.widths_at(stage, x)) != x.widths:
        problems.append("cocycle does not map induced widths back")
    # At p = 2 an all-reversing start is structurally obstructed: every
    # preserving norm is even and every reversing one odd, so the claim
    # fails there by design and the parity pattern is checked instead.
    exempt = 2 if x.perm.is_all_reversing else None
    for p in PRIMES:
        if p != exempt and "ClaimViolation" in claims[p]:
            problems.append(f"claim invariant violated mod {p}")
    if parity_breaks:
        problems.append(f"parity pattern broken {parity_breaks} times")
    for p in PRIMES:
        if states[p].remainders != modp.remainder_state(stage, p).remainders:
            problems.append(f"propagated remainders mod {p} differ from the matrix")
    output = {
        "stage": stage.to_json_dict(),
        "remainders": {str(p): states[p].to_json_dict() for p in PRIMES},
        "claims": {str(p): claims[p] for p in PRIMES},
    }
    outcome = None if stage.halted is None else type(stage.halted).__name__
    return output, problems, outcome


# --- towers -----------------------------------------------------------------


def towers_pool() -> list[tuple]:
    specs = []
    for i in range(TOWER_EXCHANGES):
        # The fleet mix of the test suite: 22 of 25 samples have three bands,
        # two have four and one has five.
        r = i % 25
        entry = r % 2 if r < 22 else (2 + r % 2 if r < 24 else 5 + i % 2)
        specs.append(("cyclic", entry, 2_000_000 + i))
        specs.append(("coprime", entry, 2_000_000 + i))
    for i in range(TOWER_OBSTRUCTED):
        specs.append(("obstructed", i % len(ALL_REVERSING), 2_500_000 + i))
    return specs


def towers_prepare(spec):
    kind, entry, seed = spec
    pool = ALL_REVERSING if kind == "obstructed" else TOWER_FRIENDLY
    return kind, sample(perm(pool[entry]), seed)


def towers_run(inputs):
    kind, x = inputs
    try:
        if kind == "cyclic":
            tower = approx.find_cyclic_tower(x, TOWER_DELTA, budget=TOWER_SPLIT_BUDGET)
        elif kind == "coprime":
            tower = modp.find_coprime_tower(
                x, COPRIME_DELTA, COPRIME_PRIME, budget=TOWER_SPLIT_BUDGET
            )
        else:
            return modp.find_coprime_tower(x, COPRIME_DELTA, 2, budget=TOWER_SPLIT_BUDGET)
    except (BudgetExceeded, ExpansionHalted) as err:
        return Outcome(type(err).__name__)
    return tower, approx.verify_tower(x, tower)


def towers_finish(inputs, result):
    kind, _ = inputs
    if isinstance(result, Outcome):
        return {"outcome": result.name}, [], result.name
    if kind == "obstructed":
        if not isinstance(result, modp.StructuralObstruction):
            return {"unexpected": repr(result)}, ["all-reversing p=2 search was not obstructed"], None
        return {"obstruction": result.reason}, [], "StructuralObstruction"
    tower, report = result
    delta = TOWER_DELTA if kind == "cyclic" else COPRIME_DELTA
    problems = []
    if not report.passed or not report.achieved_delta < delta:
        problems.append("certificate fails verify_tower")
    if tower.delta != delta:
        problems.append("certificate carries the wrong delta")
    if kind == "coprime" and math.gcd(tower.height, COPRIME_PRIME) != 1:
        problems.append("tower height not coprime to p")
    output = {"tower": tower.to_json_dict(), "verification": report.to_json_dict()}
    return output, problems, None


# --- iterate ----------------------------------------------------------------


def iterate_pool() -> list[tuple]:
    rng = random.Random("iterate-pool")
    specs = []
    while len(specs) < ROTATIONS:
        q = rng.randrange(*ROTATION_PERIODS)
        b = rng.randrange(1, q)
        if math.gcd(b, q) == 1:
            specs.append(("rotation", b, q))
    for i in range(PROFILES):
        specs.append(("profile", i % len(STUCK_FREE_NONCLASSICAL), 3_000_000 + i))
    for i in range(PRODUCTS):
        specs.append(("product", i % len(STUCK_FREE_NONCLASSICAL), 3_500_000 + i))
    return specs


def iterate_prepare(spec):
    kind, first, second = spec
    if kind == "rotation":
        # Rotation by b/q, written as the exchange of [0, 1) with widths
        # (q - b)/q and b/q; its period is q.
        b, q = first, second
        x = Exchange(perm(ROTATION), {"A": Fraction(q - b, q), "B": Fraction(b, q)})
        return kind, x, None
    entry, seed = first, second
    if kind == "profile":
        return kind, sample(perm(STUCK_FREE_NONCLASSICAL[entry]), seed), None
    rotation = sample(perm(ROTATION), seed)
    return kind, rotation, sample(perm(STUCK_FREE_NONCLASSICAL[entry]), seed)


def iterate_run(inputs):
    kind, x, other = inputs
    if kind == "rotation":
        return approx.rigidity_profile(x, x.widths["B"].denominator)
    if kind == "profile":
        return approx.rigidity_profile(x, PROFILE_DEPTH)
    return lab.product_experiment(x, other, boxes=PRODUCT_BOXES, iters=PRODUCT_ITERS, seed=7)


def cf_denominators(p: int, q: int) -> list[int]:
    """Convergent denominators of p/q by the Euclidean algorithm."""
    out = []
    h1, h0 = 0, 1
    while q:
        a, (p, q) = p // q, (q, p % q)
        h1, h0 = a * h1 + h0, h1
        out.append(h1)
    return out


def iterate_finish(inputs, result):
    kind, x, _ = inputs
    problems = []
    if kind == "product":
        report = result
        if report.passed != (report.aggregates["max_box_deviation"] < 0.05):
            problems.append("product verdict disagrees with its deviation")
        if report.parameters["iterations"] != PRODUCT_ITERS:
            problems.append("product ran the wrong number of iterations")
        return report.to_json_dict(), problems, None
    profile = result
    if kind == "rotation":
        b, q = x.widths["B"].numerator, x.widths["B"].denominator
        minima, best = [], None
        for n, defect in enumerate(profile, start=1):
            if best is None or defect < best:
                best = defect
                minima.append(n)
        if minima != sorted(set(cf_denominators(b, q))):
            problems.append("defect minima differ from convergent denominators")
        if profile[q - 1] != 0:
            problems.append("defect at the period is not 0")
    elif any(defect < 0 for defect in profile):
        problems.append("negative rigidity defect")
    return fractions_json(profile), problems, None


# --- closure ----------------------------------------------------------------


def closure_pool() -> list[tuple]:
    return [
        ("closure", p.top, p.bottom)
        for d in CLOSURE_BANDS
        for p in genperm.enumerate_permutations(d, non_classical_only=True)
    ]


def closure_prepare(spec):
    return genperm.validate(spec[1], spec[2])


def closure_run(p):
    graph = diagram.forward_closure(p)
    return graph, diagram.attractors(graph)


def closure_finish(p, result):
    graph, attractors = result
    problems = []
    for component in attractors:
        if not component or any(
            edge.target not in component for node in component for edge in graph.edges[node]
        ):
            problems.append("an edge leaves an attractor")
            break
    ids = {node: i for i, node in enumerate(graph.nodes)}
    output = {
        "graph": graph.to_json_dict(),
        "attractors": sorted(sorted(ids[n] for n in comp) for comp in attractors),
    }
    return output, problems, None


@dataclass(frozen=True)
class Workload:
    pool: Callable[[], list[tuple]]
    prepare: Callable[[tuple], Any]
    run: Callable[[Any], Any]
    finish: Callable[[Any, Any], tuple[Any, list[str], str | None]]


REGISTRY = {
    "induction": Workload(induction_pool, induction_prepare, induction_run, induction_finish),
    "towers": Workload(towers_pool, towers_prepare, towers_run, towers_finish),
    "iterate": Workload(iterate_pool, iterate_prepare, iterate_run, iterate_finish),
    "closure": Workload(closure_pool, closure_prepare, closure_run, closure_finish),
}


def select(costs: list[float], seed: int) -> list[int]:
    """Pool indices one run executes, in run order.

    Tasks are sorted by recorded cost; neighbours of near-equal cost form a
    pair and the seed picks one of each pair, while a task with no such
    neighbour (the sparse heavy tail) always runs.  So every seed runs a
    different input set of nearly the same total cost.
    """
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    rng = random.Random(f"select:{seed}")
    chosen = []
    k = 0
    while k < len(order):
        here = order[k]
        if k + 1 < len(order) and costs[order[k + 1]] <= costs[here] * PAIR_RATIO + PAIR_SLACK_MS:
            chosen.append(order[k + rng.randrange(2)])
            k += 2
        else:
            chosen.append(here)
            k += 1
    rng.shuffle(chosen)
    return chosen
