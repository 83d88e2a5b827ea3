"""Shared fixtures: permutation pools, seeded fleets, acceptance summary."""

from __future__ import annotations

import math
import random

import pytest

from linvex import genperm, lab
from linvex.exchange import Exchange, Side

# One line per acceptance criterion, echoed in the terminal summary so the
# verdicts stay visible under output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Non-classical permutations whose forward closures contain no node with
# both split directions infeasible, so random expansions run until the
# rational widths exhaust.  Verified by the diagram scan in
# test_diagram.py::test_curated_pool_closures_are_stuck_free.
STUCK_FREE_NONCLASSICAL = [
    (("A", "A", "B"), ("B", "C", "C")),
    (("A", "B", "B"), ("C", "C", "A")),
    (("A", "A", "B"), ("B", "C", "D", "C", "D")),
    (("A", "A", "B"), ("C", "B", "C", "D", "D")),
    (("A", "A", "B"), ("B", "C", "D", "E", "C", "D", "E")),
    (("A", "A", "B"), ("C", "C", "D", "D", "B", "E", "E")),
    (("A", "B", "A"), ("C", "B", "D", "C", "E", "D", "E")),
]

# Subset of stuck-free classes whose random samples reach a delta = 1/4
# tower at verifiable height most of the time; used by the tower fleets.
TOWER_FRIENDLY = [
    (("A", "A", "B"), ("B", "C", "C")),
    (("A", "B", "B"), ("C", "C", "A")),
    (("A", "B", "A"), ("C", "C", "D", "D", "B")),
    (("A", "B", "A"), ("B", "C", "C", "D", "D")),
    (("A", "A", "B"), ("B", "C", "D", "C", "D")),
    (("A", "A", "B"), ("B", "C", "D", "E", "C", "D", "E")),
    (("A", "B", "A"), ("C", "B", "D", "C", "E", "D", "E")),
]

# All-reversing starting permutations (no orientation preserving band).
ALL_REVERSING = [
    (("A", "A"), ("B", "B", "C", "C")),
    (("A", "A", "B", "B"), ("C", "C", "D", "D")),
    (("A", "B", "A", "B"), ("C", "D", "C", "D")),
    (("A", "B", "B", "A"), ("C", "D", "D", "C")),
    (("A", "A", "B", "B", "C", "C"), ("D", "D", "E", "E")),
]

CLASSICAL = [
    (("A", "B"), ("B", "A")),
    (("A", "B", "C"), ("C", "B", "A")),
    (("A", "B", "C", "D"), ("D", "C", "B", "A")),
    (("A", "B", "C", "D", "E"), ("E", "D", "C", "B", "A")),
    (("A", "B", "C", "D"), ("B", "D", "A", "C")),
]


def perm_pool(entries):
    return [genperm.validate(list(t), list(b)) for t, b in entries]


def sample_exchange(perm, seed: int, denominator_bound: int = 2**40) -> Exchange:
    cfg = lab.SamplerConfig(perm=perm, denominator_bound=denominator_bound, seed=seed, count=1)
    (widths,) = lab.sample_widths(cfg)
    return Exchange(perm, widths)


def random_fleet(seed: int, count: int, pools=None, denominator_bound: int = 2**40):
    """A deterministic mixed fleet of exchanges over the curated pools."""
    if pools is None:
        pools = perm_pool(CLASSICAL) + perm_pool(STUCK_FREE_NONCLASSICAL)
    rng = random.Random(f"fleet:{seed}")
    fleet = []
    for i in range(count):
        perm = pools[rng.randrange(len(pools))]
        fleet.append(sample_exchange(perm, seed * 10_000 + i, denominator_bound))
    return fleet


def random_grid_widths(perm, rng: random.Random) -> dict[str, int]:
    """Positive integer widths satisfying the switch condition."""
    widths = {a: rng.randrange(1, 24) for a in perm.alphabet}
    top, bottom = perm.reversing_top_bands(), perm.reversing_bottom_bands()
    excess = sum(widths[a] for a in top) - sum(widths[a] for a in bottom)
    if excess > 0:
        widths[rng.choice(bottom)] += excess
    elif excess < 0:
        widths[rng.choice(top)] -= excess
    return widths


class IntegerLayout:
    """Exact integer-scaled copy of an exchange's layout and flow maps.

    Every endpoint is a multiple of 1 / denominator, so interval images
    are plain integer arithmetic with no precision loss.  The Side-keyed
    reference layout of the differential tests, built from the Fraction
    layout of ``Exchange`` independently of the library's flat grid map.
    """

    __slots__ = ("denominator", "length", "starts", "pos_of", "out_side", "slope", "const")

    def __init__(self, x: Exchange):
        denom = 1
        for w in x.widths.values():
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
        self.denominator = denom
        self.length = int(x.side_length * denom)
        self.starts: dict[Side, list[int]] = {}
        self.pos_of: dict[Side, list[int]] = {}
        for side in (Side.TOP, Side.BOTTOM):
            self.starts[side] = [int(s * denom) for s in x._starts[side]]
            self.pos_of[side] = list(x._positions[side])
        self.out_side = list(x._apply_side)
        self.slope = list(x._apply_slope)
        self.const = [int(c * denom) for c in x._apply_const]


def tower_fleet(seed: int):
    """The 50-sample tower fleet: 44 three-band, 4 four-band, 2 five-band."""
    pools = perm_pool(TOWER_FRIENDLY)
    plan = [(i % 2, seed + i) for i in range(44)]
    plan += [(2 + (i % 2), seed + 100 + i) for i in range(4)]
    plan += [(5 + (i % 2), seed + 200 + i) for i in range(2)]
    return [(pools[pi], sample_exchange(pools[pi], seed=s)) for pi, s in plan]


@pytest.fixture(scope="session")
def small_fleet():
    return random_fleet(seed=5, count=25)


@pytest.fixture(scope="session")
def nonclassical_preserving_pool():
    return perm_pool(STUCK_FREE_NONCLASSICAL)


@pytest.fixture(scope="session")
def all_reversing_pool():
    return perm_pool(ALL_REVERSING)


@pytest.fixture(scope="session")
def classical_pool():
    return perm_pool(CLASSICAL)
