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
from functools import lru_cache
from typing import Mapping, Union

from . import diagram, rauzy
from .approx import DEFAULT_SPLIT_BUDGET, CyclicTower, _check_search, find_cyclic_tower
from .errors import BudgetExceeded, InconsistentStage, InvalidInput, InvariantViolation
from .exchange import Exchange
from .genperm import GeneralizedPermutation

# Product states the coprime band search explores before giving up.
STATE_BUDGET = 1_000_000

# Miller-Rabin over these bases decides primality exactly below the limit,
# the least strong pseudoprime to all of them.  Without 41 the limit would
# be 318665857834031151167461, which passes every base up to 37.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def check_prime(p: int) -> None:
    """Raise InvalidInput unless ``p`` is a prime int (not a bool).

    Deterministic Miller-Rabin over ``_BASES``, exact and fast for every
    p below ``_PRIME_LIMIT``; a larger p is rejected.
    """
    if type(p) is not int or p < 2:
        raise InvalidInput(f"p must be a prime int, got {p!r}")
    if p in _BASES:
        return
    if p >= _PRIME_LIMIT:
        raise InvalidInput(f"p must be below {_PRIME_LIMIT}, got {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        y = pow(a, d, p)
        if y == 1 or y == p - 1:
            continue
        for _ in range(s - 1):
            y = y * y % p
            if y == p - 1:
                break
        else:
            raise InvalidInput(f"p must be a prime int, got {p!r}")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CoprimeOP:
    """An orientation preserving band whose column norm is coprime to p."""

    band: str
    remainder: int


@dataclass(frozen=True, slots=True)
class ReversingPair:
    """Opposite-side reversing bands whose remainders do not cancel."""

    top_band: str
    bottom_band: str
    top_remainder: int
    bottom_remainder: int


@dataclass(frozen=True, slots=True)
class ClaimViolation:
    """Neither disjunct holds; a falsification finding, not an error."""

    state: RemainderState


ClaimStatus = Union[CoprimeOP, ReversingPair, ClaimViolation]

# Statuses are immutable and few per prime (a band and remainders below p),
# so each is built once, as ``rauzy._split_step`` builds each step; typed,
# so a caller's float remainder is never handed back for an int one.
_coprime_op = lru_cache(maxsize=4096, typed=True)(CoprimeOP)
_reversing_pair = lru_cache(maxsize=4096, typed=True)(ReversingPair)


@dataclass(frozen=True, slots=True)
class StructuralObstruction:
    """A first-class negative result: the hypothesis is absent, not the budget."""

    reason: str


# Slot setters, so a state is built without the frozen ``__init__``.
_SET_PRIME, _SET_NODE, _SET_REMAINDERS = (
    getattr(RemainderState, name).__set__ for name in ("prime", "node", "remainders")
)


def _new_state(prime: int, node: GeneralizedPermutation, remainders: tuple) -> RemainderState:
    state = object.__new__(RemainderState)
    _SET_PRIME(state, prime)
    _SET_NODE(state, node)
    _SET_REMAINDERS(state, remainders)
    return state


def initial_state(perm: GeneralizedPermutation, prime: int) -> RemainderState:
    check_prime(prime)
    return _new_state(prime, perm, tuple((band, 1) for band in perm.alphabet))


def remainder_state(stage: rauzy.Stage, prime: int) -> RemainderState:
    """Exact column norms of the stage matrix, reduced mod p."""
    check_prime(prime)
    norms = stage.matrix.column_norms()
    return _new_state(prime, stage.end, tuple((b, norms[b] % prime) for b in stage.end.alphabet))


def propagate(
    state: RemainderState, winner: str, loser: str, target: GeneralizedPermutation
) -> RemainderState:
    """Push remainders through one split: loser gains the winner, mod p.

    The alphabet is fixed along an expansion and the remainders are in
    alphabet order, so only the loser's entry is replaced.  InvalidInput: a
    target with another alphabet, a band outside it, or winner == loser.
    """
    alphabet = state.node.alphabet
    if target.alphabet != alphabet:
        raise InvalidInput(
            f"split target alphabet {list(target.alphabet)} differs from {list(alphabet)}"
        )
    try:
        i, w = alphabet.index(loser), alphabet.index(winner)
    except ValueError:
        raise InvalidInput(f"winner {winner!r} or loser {loser!r} not in {alphabet}") from None
    if i == w:
        raise InvalidInput(f"band {winner!r} cannot win a split against itself")
    remainders = state.remainders
    value = (remainders[i][1] + remainders[w][1]) % state.prime
    remainders = remainders[:i] + ((loser, value),) + remainders[i + 1 :]
    return _new_state(state.prime, target, remainders)


def check_claim_invariant(state: RemainderState) -> ClaimStatus:
    """Which disjunct of the remainder invariant holds at this state.

    Prefers reporting a coprime orientation preserving band; falls back to
    an opposite-side reversing pair with non-cancelling remainders; returns
    a ClaimViolation carrying the full state when neither exists.
    CoprimeOP and ReversingPair are interned: compare with ``==``, not ``is``.
    """
    node = state.node
    if not node.is_non_classical:
        raise InvalidInput("the remainder invariant concerns non-classical nodes")
    prime = state.prime
    for band, remainder in state.remainders:
        if remainder % prime and band in node.preserving:
            return _coprime_op(band, remainder % prime)
    values = dict(state.remainders)
    for top_band in node.reversing_top:
        for bottom_band in node.reversing_bottom:
            if (values[top_band] + values[bottom_band]) % prime != 0:
                return _reversing_pair(
                    top_band, bottom_band, values[top_band] % prime, values[bottom_band] % prime
                )
    return ClaimViolation(state=state)


def coprime_band_sequence(
    perm: GeneralizedPermutation, state: RemainderState
) -> list[diagram.Edge]:
    """A shortest splitting sequence making some preserving band coprime.

    Searches the product of the forward closure with symbolic remainder
    propagation; the target is any node holding an orientation preserving
    band with nonzero remainder.  Returns [] when the state already
    satisfies the first disjunct.  Past ``STATE_BUDGET`` states the
    search raises BudgetExceeded.  An exhausted search falsifies the
    invariant's constructive step and raises InvariantViolation.
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
            raise BudgetExceeded(f"product search exceeded {STATE_BUDGET} states")
        current = _new_state(state.prime, node, rems)
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
    raise InvariantViolation(
        "no splitting sequence reaches a coprime preserving band; "
        "this falsifies the constructive remainder claim"
    )


def find_coprime_tower(
    x: Exchange,
    delta: Fraction,
    prime: int,
    budget: int = DEFAULT_SPLIT_BUDGET,
) -> CyclicTower | StructuralObstruction:
    """A verified cyclic tower whose height is coprime to ``prime``.

    All-reversing permutations are structurally obstructed at p = 2:
    preserving bands only ever appear with even column norms there, so
    every tower height is even.  That outcome is reported as data, not
    raised, to keep it distinct from budget exhaustion.  ``delta`` and
    ``budget`` are checked as ``find_cyclic_tower`` checks them, before
    that outcome.
    """
    check_prime(prime)
    _check_search(delta, budget)
    if prime == 2 and x.perm.is_all_reversing:
        return StructuralObstruction(
            reason="all bands reverse orientation: preserving bands keep even "
            "column norms, so every tower height is even"
        )
    tower = find_cyclic_tower(x, delta, budget=budget, height_coprime_to=prime)
    if math.gcd(tower.height, prime) != 1:
        raise InconsistentStage("tower search returned a non-coprime height")
    return tower
