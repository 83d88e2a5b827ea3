"""Column norms of the induction cocycle modulo a prime.

At depth zero every column norm is 1.  Each split adds the winner's
column to the loser's, so remainders propagate linearly: the loser's
remainder gains the winner's, modulo p.  Tracking remainders alongside
orientation classes supports the coprime-height tower search and the
invariant that a non-classical stage always offers either an orientation
preserving band with norm coprime to p or a pair of opposite-side
reversing bands whose remainders do not cancel mod p.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from . import diagram, rauzy
from .approx import CyclicTower, find_cyclic_tower
from .errors import InvalidInput, Unreachable
from .exchange import Exchange
from .genperm import GeneralizedPermutation

# Product states the coprime band search explores before giving up.
STATE_BUDGET = 1_000_000


@dataclass(frozen=True)
class RemainderState:
    """Column-norm remainders mod p at a node of the expansion.

    ``remainders`` holds (band, remainder) pairs in alphabet order.
    """

    prime: int
    node: GeneralizedPermutation
    remainders: tuple[tuple[str, int], ...]

    def remainder(self, band: str) -> int:
        return dict(self.remainders)[band]

    def as_dict(self) -> dict[str, int]:
        return dict(self.remainders)

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "node": self.node.to_json_dict(),
            "remainders": {band: r for band, r in self.remainders},
        }


@dataclass(frozen=True)
class CoprimeOP:
    """An orientation preserving band whose column norm is coprime to p."""

    band: str
    remainder: int


@dataclass(frozen=True)
class ReversingPair:
    """Opposite-side reversing bands whose remainders do not cancel."""

    top_band: str
    bottom_band: str
    top_remainder: int
    bottom_remainder: int


@dataclass(frozen=True)
class ClaimViolation:
    """Neither disjunct holds; a falsification finding, not an error."""

    state: RemainderState


ClaimStatus = Union[CoprimeOP, ReversingPair, ClaimViolation]


@dataclass(frozen=True)
class StructuralObstruction:
    """A first-class negative result: the hypothesis is absent, not the budget."""

    reason: str


def _state(prime: int, node: GeneralizedPermutation, values: Mapping[str, int]) -> RemainderState:
    return RemainderState(
        prime=prime,
        node=node,
        remainders=tuple(sorted((band, values[band] % prime) for band in node.alphabet)),
    )


def initial_state(perm: GeneralizedPermutation, prime: int) -> RemainderState:
    if prime < 2:
        raise InvalidInput("prime must be at least 2")
    return _state(prime, perm, {band: 1 for band in perm.alphabet})


def remainder_state(stage: rauzy.Stage, prime: int) -> RemainderState:
    """Exact column norms of the stage matrix, reduced mod p."""
    if prime < 2:
        raise InvalidInput("prime must be at least 2")
    norms = stage.matrix.column_norms()
    return _state(prime, stage.end, norms)


def propagate(
    state: RemainderState, winner: str, loser: str, target: GeneralizedPermutation
) -> RemainderState:
    """Push remainders through one split: loser gains the winner, mod p.

    The alphabet is fixed along an expansion and the remainders are in
    alphabet order, so only the loser's entry is replaced.
    """
    alphabet = state.node.alphabet
    if target.alphabet != alphabet:
        raise InvalidInput(
            f"split target alphabet {list(target.alphabet)} differs from {list(alphabet)}"
        )
    remainders = state.remainders
    i = alphabet.index(loser)
    value = (remainders[i][1] + remainders[alphabet.index(winner)][1]) % state.prime
    remainders = remainders[:i] + ((loser, value),) + remainders[i + 1 :]
    return RemainderState(state.prime, target, remainders)


def check_claim_invariant(state: RemainderState) -> ClaimStatus:
    """Which disjunct of the remainder invariant holds at this state.

    Prefers reporting a coprime orientation preserving band; falls back to
    an opposite-side reversing pair with non-cancelling remainders; returns
    a ClaimViolation carrying the full state when neither exists.
    """
    node = state.node
    if not (node.reversing_top and node.reversing_bottom):
        raise InvalidInput("the remainder invariant concerns non-classical nodes")
    prime = state.prime
    for band, remainder in state.remainders:
        if remainder % prime and band in node.preserving:
            return CoprimeOP(band=band, remainder=remainder % prime)
    values = dict(state.remainders)
    for top_band in node.reversing_top:
        for bottom_band in node.reversing_bottom:
            if (values[top_band] + values[bottom_band]) % prime != 0:
                return ReversingPair(
                    top_band=top_band,
                    bottom_band=bottom_band,
                    top_remainder=values[top_band] % prime,
                    bottom_remainder=values[bottom_band] % prime,
                )
    return ClaimViolation(state=state)


def coprime_band_sequence(
    perm: GeneralizedPermutation, state: RemainderState
) -> list[diagram.Edge]:
    """A shortest splitting sequence making some preserving band coprime.

    Searches the product of the forward closure with symbolic remainder
    propagation; the target is any node holding an orientation preserving
    band with nonzero remainder.  Returns [] when the state already
    satisfies the first disjunct; the search stops after ``STATE_BUDGET``
    states.  Raising Unreachable here would falsify the invariant's
    constructive step, so callers should treat it loudly.
    """
    if state.node != perm:
        raise InvalidInput("state does not belong to the given permutation")
    status = check_claim_invariant(state)
    if isinstance(status, CoprimeOP):
        return []

    graph = diagram.forward_closure(perm)

    def satisfied(node: GeneralizedPermutation, values: Mapping[str, int]) -> bool:
        return any(values[b] % state.prime != 0 for b in node.preserving_bands())

    start_key = (perm, state.remainders)
    parent: dict[tuple, tuple] = {}
    via: dict[tuple, diagram.Edge] = {}
    seen = {start_key}
    queue = deque([start_key])
    explored = 0
    while queue:
        node, rems = queue.popleft()
        explored += 1
        if explored > STATE_BUDGET:
            raise Unreachable(f"product search exceeded {STATE_BUDGET} states")
        current = RemainderState(prime=state.prime, node=node, remainders=rems)
        for edge in graph.edges[node]:
            nxt = propagate(current, edge.winner, edge.loser, edge.target)
            key = (nxt.node, nxt.remainders)
            if key in seen:
                continue
            seen.add(key)
            parent[key] = (node, rems)
            via[key] = edge
            if satisfied(nxt.node, nxt.as_dict()):
                path = [via[key]]
                back = parent[key]
                while back != start_key:
                    path.insert(0, via[back])
                    back = parent[back]
                return path
            queue.append(key)
    raise Unreachable(
        "no splitting sequence reaches a coprime preserving band; "
        "this falsifies the constructive remainder claim"
    )


def find_coprime_tower(
    x: Exchange,
    delta: Fraction,
    prime: int,
    budget: int = 10_000,
) -> CyclicTower | StructuralObstruction:
    """A verified cyclic tower whose height is coprime to ``prime``.

    All-reversing permutations are structurally obstructed at p = 2:
    preserving bands only ever appear with even column norms there, so
    every tower height is even.  That outcome is reported as data, not
    raised, to keep it distinct from budget exhaustion.
    """
    if prime < 2:
        raise InvalidInput("prime must be at least 2")
    if prime == 2 and x.perm.is_all_reversing:
        return StructuralObstruction(
            reason="all bands reverse orientation: preserving bands keep even "
            "column norms, so every tower height is even"
        )
    tower = find_cyclic_tower(x, delta, budget=budget, height_coprime_to=prime)
    if math.gcd(tower.height, prime) != 1:
        raise InvalidInput("tower search returned a non-coprime height")
    return tower
