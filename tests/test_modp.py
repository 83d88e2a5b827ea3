"""Remainder tracking, the claim invariant, and coprime towers."""

from __future__ import annotations

import math
import re
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvex import approx, diagram, genperm, modp, rauzy
from linvex.errors import InvalidInput, InvariantViolation
from linvex.exchange import Exchange
from linvex.genperm import Orientation, validate

from conftest import (
    ALL_REVERSING,
    STUCK_FREE_NONCLASSICAL,
    perm_pool,
    sample_exchange,
)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _accepts(p) -> bool:
    try:
        modp.check_prime(p)
    except InvalidInput:
        return False
    return True


def test_check_prime_is_exact():
    assert [n for n in range(-3, 20_000) if _accepts(n)] == [
        n for n in range(-3, 20_000) if _is_prime(n)
    ]
    # the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9,
    # 12 and 13 prime bases; the last is the exact range's limit
    for n in (
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
        3317044064679887385961981,
    ):
        assert not _accepts(n), n
    for p in (2**31 - 1, 2**61 - 1, 10**18 + 9):
        assert _accepts(p), p
    # past the exact range, a prime is rejected too
    assert not _accepts(2**89 - 1)


@pytest.mark.parametrize("bad", [4, 9, 1, True, 7.0, "7", F(7)])
def test_modp_entry_points_reject_a_p_that_is_not_a_prime_int(bad):
    perm = validate(["A", "A", "B"], ["B", "C", "C"])
    x = sample_exchange(perm, seed=77)
    message = "^" + re.escape(f"p must be a prime int, got {bad!r}") + "$"
    with pytest.raises(InvalidInput, match=message):
        modp.initial_state(perm, bad)
    with pytest.raises(InvalidInput, match=message):
        modp.remainder_state(rauzy.expand(x, 3), bad)
    with pytest.raises(InvalidInput, match=message):
        modp.find_coprime_tower(x, F(2, 5), bad)


def test_initial_state_all_ones():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    state = modp.initial_state(p, 5)
    assert state.as_dict() == {"A": 1, "B": 1, "C": 1}


def test_remainder_state_matches_big_integer_norms():
    for perm in perm_pool(STUCK_FREE_NONCLASSICAL[:4]):
        x = sample_exchange(perm, seed=77)
        stage = rauzy.expand(x, 40)
        for p in (2, 3, 5, 7):
            state = modp.remainder_state(stage, p)
            for band in perm.alphabet:
                assert state.remainder(band) == stage.matrix.column_norm(band) % p


def test_propagation_matches_recomputation():
    perm = perm_pool(STUCK_FREE_NONCLASSICAL)[0]
    x = sample_exchange(perm, seed=5)
    stage = rauzy.expand(x, 60)
    for p in (2, 3, 5):
        state = modp.initial_state(perm, p)
        for i, step in enumerate(stage.steps):
            state = modp.propagate(state, step.winner, step.loser, stage.nodes[i + 1])
        assert state == modp.remainder_state(stage, p)


def test_propagate_rejects_a_foreign_alphabet():
    state = modp.initial_state(validate(["A", "A", "B"], ["B", "C", "C"]), 3)
    with pytest.raises(InvalidInput):
        modp.propagate(state, "B", "C", validate(["A", "A", "B"], ["B", "D", "D"]))
    # a winner or a loser outside the alphabet
    for winner, loser in (("D", "C"), ("B", "D")):
        with pytest.raises(InvalidInput, match=f"winner '{winner}' or loser '{loser}'"):
            modp.propagate(state, winner, loser, state.node)


def test_propagate_rejects_a_band_beating_itself():
    # no split has a band beating itself (that case is SplitUndefinedSameBand),
    # so winner == loser must not double the band's remainder
    state = modp.initial_state(validate(["A", "A", "B"], ["B", "C", "C"]), 3)
    with pytest.raises(InvalidInput, match="'A' cannot win a split against itself"):
        modp.propagate(state, "A", "A", state.node)


def test_claim_initial_preserving_band():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    status = modp.check_claim_invariant(modp.initial_state(p, 3))
    assert isinstance(status, modp.CoprimeOP)
    assert status.band == "B" and status.remainder == 1


def test_claim_initial_all_reversing_odd_prime():
    p = validate(["A", "A"], ["B", "B", "C", "C"])
    status = modp.check_claim_invariant(modp.initial_state(p, 3))
    assert isinstance(status, modp.ReversingPair)
    assert (status.top_remainder + status.bottom_remainder) % 3 == 2


@pytest.mark.parametrize(
    "perm", [(["A", "A", "B"], ["B", "C", "C"]), (["A", "A"], ["B", "B", "C", "C"])]
)
def test_shared_statuses_keep_each_callers_remainder_type(perm):
    # equal statuses may be one shared instance, but a float remainder from
    # one caller must not come back to a later caller with int remainders
    p = validate(*perm)
    floats = modp.RemainderState(3, p, tuple((band, 1.0) for band in p.alphabet))
    assert modp.check_claim_invariant(floats) == modp.check_claim_invariant(
        modp.initial_state(p, 3)
    )
    status = modp.check_claim_invariant(modp.initial_state(p, 3))
    remainders = [getattr(status, f.name) for f in fields(status) if f.name.endswith("remainder")]
    assert remainders and all(type(value) is int for value in remainders)


def test_claim_all_reversing_p2_violates():
    # with no preserving band, remainders one plus one cancel mod two;
    # the violation is the expected structural outcome, not a bug
    p = validate(["A", "A"], ["B", "B", "C", "C"])
    status = modp.check_claim_invariant(modp.initial_state(p, 2))
    assert isinstance(status, modp.ClaimViolation)


def test_claim_rejects_classical_node():
    p = validate(["A", "B"], ["B", "A"])
    with pytest.raises(InvalidInput):
        modp.check_claim_invariant(modp.initial_state(p, 3))


def test_claim_invariant_along_expansions():
    for perm in perm_pool(STUCK_FREE_NONCLASSICAL[:4]):
        for seed in (3, 4):
            x = sample_exchange(perm, seed=seed)
            stage = rauzy.expand(x, 150)
            for p in (2, 3, 5, 7):
                state = modp.initial_state(perm, p)
                assert not isinstance(
                    modp.check_claim_invariant(state), modp.ClaimViolation
                )
                for i, step in enumerate(stage.steps):
                    state = modp.propagate(
                        state, step.winner, step.loser, stage.nodes[i + 1]
                    )
                    status = modp.check_claim_invariant(state)
                    assert not isinstance(status, modp.ClaimViolation), (perm, p, i)


def test_claim_invariant_deep_and_more_primes():
    from linvex.errors import SplitUndefined

    primes = (2, 3, 5, 7, 11)
    for perm in perm_pool(STUCK_FREE_NONCLASSICAL[:3]):
        x = sample_exchange(perm, seed=999)
        states = {p: modp.initial_state(perm, p) for p in primes}
        current = x
        depth = 0
        for _ in range(800):
            try:
                current, step = rauzy.split(current)
            except SplitUndefined:
                break
            depth += 1
            for p in primes:
                states[p] = modp.propagate(
                    states[p], step.winner, step.loser, current.perm
                )
                status = modp.check_claim_invariant(states[p])
                assert not isinstance(status, modp.ClaimViolation), (perm, p, depth)
        stage = rauzy.expand(x, depth)
        for p in primes:
            assert states[p] == modp.remainder_state(stage, p)


def test_parity_pattern_from_all_reversing():
    # preserving bands appear with even norms, reversing bands stay odd
    for perm in perm_pool(ALL_REVERSING):
        for seed in (1, 2):
            x = sample_exchange(perm, seed=seed)
            stage = rauzy.expand(x, 120)
            matrix = rauzy.Matrix.identity(stage.matrix.labels)
            for i, step in enumerate(stage.steps):
                matrix.add_column(step.winner, step.loser)
                node = stage.nodes[i + 1]
                for band in node.alphabet:
                    parity = matrix.column_norm(band) % 2
                    if node.orientation_of(band) is Orientation.PRESERVING:
                        assert parity == 0, (perm, seed, i, band)
                    else:
                        assert parity == 1, (perm, seed, i, band)


def test_coprime_sequence_on_all_reversing_start():
    perm = validate(["A", "A"], ["B", "B", "C", "C"])
    state = modp.initial_state(perm, 3)
    seq = modp.coprime_band_sequence(perm, state)
    assert seq
    # walk the sequence, propagating remainders symbolically
    node, current = perm, state
    for edge in seq:
        assert edge.source == node
        current = modp.propagate(current, edge.winner, edge.loser, edge.target)
        node = edge.target
    good = [
        b
        for b in node.preserving_bands()
        if current.remainder(b) % 3 != 0
    ]
    assert good
    assert current.remainder(good[0]) == 2


def test_coprime_sequence_empty_when_already_coprime():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    assert modp.coprime_band_sequence(p, modp.initial_state(p, 3)) == []


def test_an_exhausted_coprime_search_is_an_invariant_violation(monkeypatch):
    # no edges leave the start, which has no preserving band at all
    perm = validate(["A", "A"], ["B", "B", "C", "C"])
    edgeless = diagram.RauzyGraph(root=perm, nodes=[perm], edges={perm: ()})
    monkeypatch.setattr(modp.diagram, "forward_closure", lambda p: edgeless)
    with pytest.raises(InvariantViolation, match="falsifies the constructive remainder claim"):
        modp.coprime_band_sequence(perm, modp.initial_state(perm, 3))


def test_coprime_sequence_bound_over_assignments():
    # exhaust valid reversing-pair assignments for a small all-reversing
    # start: a sequence always exists and its length stays bounded
    perm = validate(["A", "A"], ["B", "B", "C", "C"])
    top_rev = perm.reversing_top
    bottom_rev = perm.reversing_bottom
    longest = 0
    count = 0
    for p in (2, 3):
        values = {}
        for ra in range(p):
            for rb in range(p):
                for rc in range(p):
                    values = {"A": ra, "B": rb, "C": rc}
                    pair_ok = any(
                        (values[t] + values[b]) % p != 0
                        for t in top_rev
                        for b in bottom_rev
                    )
                    if not pair_ok:
                        continue
                    state = modp.RemainderState(
                        prime=p,
                        node=perm,
                        remainders=tuple(sorted(values.items())),
                    )
                    seq = modp.coprime_band_sequence(perm, state)
                    longest = max(longest, len(seq))
                    count += 1
    assert count > 0
    assert longest <= 2 ** len(perm.alphabet) * 9  # finite, small in practice
    assert longest > 0


def test_find_coprime_tower_structural_obstruction_p2():
    for perm in perm_pool(ALL_REVERSING[:3]):
        x = sample_exchange(perm, seed=9)
        result = modp.find_coprime_tower(x, F(1, 4), 2)
        assert isinstance(result, modp.StructuralObstruction)


@pytest.mark.parametrize(
    "delta, budget, message",
    [
        (0.3, 10_000, "delta must be an int or a Fraction, got 0.3"),
        ("1/4", 10_000, "delta must be an int or a Fraction, got '1/4'"),
        (7, 10_000, "delta must be in (0, 1), got 7"),
        (F(1, 4), -1, "budget must be a nonnegative int, got -1"),
        (F(1, 4), True, "budget must be a nonnegative int, got True"),
    ],
)
def test_coprime_tower_checks_its_search_before_the_obstruction(delta, budget, message):
    # An all-reversing exchange at p = 2 is obstructed, but a bad delta or
    # budget is still invalid input, worded as the cyclic search words it.
    x = Exchange(validate(["A", "A"], ["B", "B"]), {"A": F(1, 2), "B": F(1, 2)})
    match = "^" + re.escape(message) + "$"
    with pytest.raises(InvalidInput, match=match):
        modp.find_coprime_tower(x, delta, 2, budget=budget)
    with pytest.raises(InvalidInput, match=match):
        approx.find_cyclic_tower(x, delta, budget=budget)


def test_find_coprime_tower_p3():
    from linvex.errors import BudgetExceeded, ExpansionHalted

    hits = 0
    for seed in (11, 12, 13, 14):
        perm = perm_pool(STUCK_FREE_NONCLASSICAL)[0]
        x = sample_exchange(perm, seed=seed)
        try:
            result = modp.find_coprime_tower(x, F(2, 5), 3, budget=10_000)
        except (BudgetExceeded, ExpansionHalted):
            continue
        if isinstance(result, modp.StructuralObstruction):
            continue
        assert math.gcd(result.height, 3) == 1
        assert approx.verify_tower(x, result).passed
        hits += 1
    assert hits >= 2


def test_all_reversing_even_heights_with_odd_prime():
    # all-reversing starts still admit towers; the heights are even
    perm = validate(["A", "A"], ["B", "B", "C", "C"])
    x = sample_exchange(perm, seed=21)
    result = modp.find_coprime_tower(x, F(1, 2), 3, budget=6_000)
    if not isinstance(result, modp.StructuralObstruction):
        assert result.height % 2 == 0
        assert result.height % 3 != 0


_NON_CLASSICAL = [
    perm for d in (2, 3, 4) for perm in genperm.enumerate_permutations(d, non_classical_only=True)
]


def _reference_claim(state):
    """The claim check through ``as_dict`` and the node's band accessors."""
    values, p, node = state.as_dict(), state.prime, state.node
    for band in node.preserving_bands():
        if values[band] % p != 0:
            return modp.CoprimeOP(band=band, remainder=values[band] % p)
    for top_band in node.reversing_top:
        for bottom_band in node.reversing_bottom:
            if (values[top_band] + values[bottom_band]) % p != 0:
                return modp.ReversingPair(
                    top_band, bottom_band, values[top_band] % p, values[bottom_band] % p
                )
    return modp.ClaimViolation(state=state)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_claim_and_propagate_equal_the_dict_reference(data):
    # remainders up to 2p - 1, so states built by hand without reducing
    # are graded as before
    perm = data.draw(st.sampled_from(_NON_CLASSICAL))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    values = {a: data.draw(st.integers(0, 2 * p - 1)) for a in perm.alphabet}
    state = modp.RemainderState(p, perm, tuple(sorted(values.items())))
    status, reference = modp.check_claim_invariant(state), _reference_claim(state)
    assert type(status) is type(reference) and status == reference
    winner, loser = data.draw(st.permutations(perm.alphabet))[:2]
    nxt = modp.propagate(state, winner, loser, perm)
    values[loser] = (values[loser] + values[winner]) % p
    assert nxt.as_dict() == values
    assert nxt.to_json_dict()["remainders"] == values
