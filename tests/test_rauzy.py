"""Induction steps, the matrix cocycle, and its orbit-count oracle."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvex import approx, diagram, exchange, genperm, rauzy
from linvex.errors import (
    BudgetExceeded,
    ExpansionHalted,
    InconsistentStage,
    InvalidInput,
    SplitUndefined,
    SplitUndefinedSameBand,
    SplitUndefinedTie,
)
from linvex.exchange import build
from linvex.rationals import common_denominator, to_grid
from linvex.rauzy import Matrix, SplitKind

from conftest import (
    ALL_REVERSING,
    CLASSICAL,
    STUCK_FREE_NONCLASSICAL,
    perm_pool,
    random_fleet,
    random_grid_widths,
    reference_direction_witness,
    sample_exchange,
    tower_fleet,
)

ROTATION = genperm.validate(["A", "B"], ["B", "A"])


def test_split_two_band_widths():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    induced, step = rauzy.split(x)
    assert induced.widths == {"A": F(2, 7), "B": F(1, 7)}
    assert step.kind is SplitKind.BOTTOM_WINS
    assert (step.winner, step.loser) == ("A", "B")
    # old widths = E @ new widths
    assert step.matrix.apply_to_widths(induced.widths) == x.widths


def test_split_tie_raises():
    x = build(ROTATION, {"A": F(1, 2), "B": F(1, 2)})
    with pytest.raises(SplitUndefinedTie):
        rauzy.split(x)


def test_split_same_band_raises():
    p = genperm.validate(["A", "A", "B"], ["C", "C", "B"])
    assert genperm.critical_bands(p) == ("B", "B")
    x = build(p, {"A": F(1, 4), "B": F(1, 3), "C": F(1, 4)})
    with pytest.raises(SplitUndefinedSameBand):
        rauzy.split(x)


def test_split_elementary_matrix_properties():
    count = 0
    for x in random_fleet(seed=8, count=20):
        try:
            _, step = rauzy.split(x)
        except Exception:
            continue
        count += 1
        m = step.matrix
        assert m.determinant() == 1
        off_diag = [
            (i, j)
            for i in range(len(m.labels))
            for j in range(len(m.labels))
            if i != j and m.rows[i][j]
        ]
        assert off_diag == [(m._index[step.winner], m._index[step.loser])]
    assert count >= 15


def _subtractive_trace(a: int, b: int):
    """Winner sequence of subtractive gcd on (top, bottom) critical widths."""
    kinds = []
    while a != b:
        if a > b:
            kinds.append("bottom")  # bottom critical band is A, the wider
            a -= b
        else:
            kinds.append("top")
            b -= a
    return kinds


def test_expansion_matches_subtractive_gcd_on_rotation():
    rng = random.Random(17)
    for _ in range(20):
        a, b = rng.randrange(1, 200), rng.randrange(1, 200)
        x = build(ROTATION, {"A": F(a, 211), "B": F(b, 211)})
        # critical pair is (top B, bottom A); A wins while a > b
        expected = _subtractive_trace(a, b)
        stage = rauzy.expand(x, 10_000)
        assert [s.kind.value for s in stage.steps] == expected
        assert isinstance(stage.halted, SplitUndefinedTie)


def test_expand_depth_zero_is_identity():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    stage = rauzy.expand(x, 0)
    assert stage.matrix == Matrix.identity(("A", "B"))
    assert rauzy.widths_at(stage, x) == x.widths


@pytest.mark.parametrize("depth", [2.5, 2.0, F(2), True, "2", None, -1])
def test_expand_rejects_a_depth_that_is_not_a_nonnegative_int(depth):
    # True used to expand one step and 2.5 to raise a raw TypeError
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    with pytest.raises(InvalidInput, match="expansion depth must be a nonnegative int"):
        rauzy.expand(x, depth)


def test_figure_step_widths_at():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    stage = rauzy.expand(x, 1)
    assert rauzy.widths_at(stage, x) == {"A": F(2, 7), "B": F(1, 7)}


def test_cocycle_identity_on_fleet():
    for x in random_fleet(seed=9, count=15):
        stage = rauzy.expand(x, 30)
        widths = rauzy.widths_at(stage, x)
        assert stage.matrix.apply_to_widths(widths) == x.widths
        assert all(v > 0 for v in widths.values())


def test_cocycle_algebra_on_fleet():
    for x in random_fleet(seed=10, count=15):
        stage = rauzy.expand(x, 25)
        q = stage.matrix
        assert q.determinant() == 1
        assert q.is_nonnegative()
        assert q.column_norm_gcd() == 1
        product = Matrix.identity(q.labels)
        for step in stage.steps:
            product = product.mul(step.matrix)
        assert product == q


def test_switch_condition_preserved_along_expansion():
    for x in random_fleet(seed=11, count=10):
        current = x
        for _ in range(12):
            try:
                current, _ = rauzy.split(current)
            except Exception:
                break
            perm = current.perm
            top = sum(
                (current.widths[a] for a in perm.reversing_top), F(0)
            )
            bottom = sum(
                (current.widths[a] for a in perm.reversing_bottom), F(0)
            )
            assert top == bottom
            assert current.side_length == sum(current.widths.values(), F(0))


_SMALL_NODES = [p for d in range(1, 6) for p in genperm.enumerate_permutations(d)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(perm=st.sampled_from(_SMALL_NODES), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_step_preserves_positivity_and_the_switch_condition(perm, seed):
    widths = random_grid_widths(perm, random.Random(seed))
    for _ in range(8):
        try:
            perm, widths, _ = rauzy._step(perm, widths)
        except SplitUndefined:
            break
        assert set(widths) == set(perm.alphabet)
        assert all(v > 0 for v in widths.values())
        top = sum(widths[a] for a in perm.reversing_top)
        assert top == sum(widths[a] for a in perm.reversing_bottom)


def test_visit_counts_identity_at_depth_zero():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    assert rauzy.visit_counts(x, 0) == Matrix.identity(("A", "B"))


def test_visit_counts_one_step_equals_elementary():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    stage = rauzy.expand(x, 1)
    assert rauzy.visit_counts(x, 1) == stage.matrix
    assert stage.matrix.rows == [[1, 1], [0, 1]]


def test_visit_counts_match_cocycle_small_fleet():
    rng = random.Random(5)
    for x in random_fleet(seed=12, count=10):
        stage = rauzy.expand(x, 12)
        depth = min(12, stage.depth, rng.randrange(4, 13))
        assert rauzy.visit_counts(x, depth) == rauzy.expand(x, depth).matrix


@settings(derandomize=True, max_examples=260, deadline=None)
@given(perm=st.sampled_from(_SMALL_NODES), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_visit_counts_equal_the_cocycle_up_to_the_halt(perm, seed):
    rng = random.Random(seed)
    denom = rng.randrange(1, 50)
    x = build(perm, {a: F(v, denom) for a, v in random_grid_widths(perm, rng).items()})
    # integer widths halt within L steps, since every step shrinks L
    halt = rauzy.expand(x, 10_000).depth
    assert halt < 10_000
    for depth in (0, halt // 2, halt):
        assert rauzy.visit_counts(x, depth) == rauzy.expand(x, depth).matrix, (x, depth)


def test_return_times_equal_column_norms():
    # a probe's visits sum to its return time
    for x in random_fleet(seed=13, count=6):
        stage = rauzy.expand(x, 10)
        depth = min(10, stage.depth)
        stage = rauzy.expand(x, depth)
        visits = rauzy.visit_counts(x, stage)
        for band in sorted(x.perm.alphabet):
            assert sum(visits.column(band)) == stage.matrix.column_norm(band)


def test_visit_counts_on_a_halted_stage_raises_its_halt():
    # A A B | B C C with widths 1/5, 2/5, 1/5: B and C tie after one split
    perm = genperm.validate(["A", "A", "B"], ["B", "C", "C"])
    x = build(perm, {"A": F(1, 5), "B": F(2, 5), "C": F(1, 5)})
    stage = rauzy.expand(x, 5)
    assert stage.depth == 1 and isinstance(stage.halted, SplitUndefinedTie)
    with pytest.raises(SplitUndefinedTie) as err:
        rauzy.visit_counts(x, stage)
    assert err.value is stage.halted


def test_return_time_depth_zero_is_one():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    visits = rauzy.visit_counts(x, 0)
    assert sum(visits.column("A")) == 1
    assert sum(visits.column("B")) == 1


def test_direction_witness_classical_both_ways():
    for kind in SplitKind:
        w = rauzy._witness_grid(ROTATION, kind)
        assert w is not None
        assert w == reference_direction_witness(ROTATION, kind)
        x = build(ROTATION, w)
        _, step = rauzy.split(x)
        assert step.kind is kind


def test_direction_witness_one_sided_case():
    # top critical winner is reversing and the loser is the only
    # bottom-reversing band: the switch forces the opposite comparison
    p = genperm.validate(["A", "A", "D", "B", "B"], ["D", "C", "C"])
    assert p.orientation_of("B").value == "reversing_top"
    assert p.reversing_bottom == ("C",)
    assert rauzy._witness_grid(p, SplitKind.TOP_WINS) is None
    w = rauzy._witness_grid(p, SplitKind.BOTTOM_WINS)
    assert w is not None
    assert w == reference_direction_witness(p, SplitKind.BOTTOM_WINS)
    _, step = rauzy.split(build(p, w))
    assert step.kind is SplitKind.BOTTOM_WINS


def test_direction_witness_tie_locked_node():
    p = genperm.validate(["A", "B", "A"], ["C", "B", "C"])
    assert rauzy._witness_grid(p, SplitKind.TOP_WINS) is None
    assert rauzy._witness_grid(p, SplitKind.BOTTOM_WINS) is None


def test_stage_json_round_trip_fields():
    x = build(ROTATION, {"A": F(3, 7), "B": F(1, 7)})
    stage = rauzy.expand(x, 2)
    blob = stage.to_json_dict()
    assert blob["matrix"]["rows"] == [["1", "2"], ["0", "1"]]
    assert [s["winner"] for s in blob["steps"]] == ["A", "A"]
    assert blob["halted"] is None


# --- the integer step against its oracles ------------------------------------


def _exchange_oracle(x):
    """The Rauzy step as the public API did it before the integer grid.

    Critical comparison, then ``Exchange.first_return_map`` at the cut
    ``L - w[loser]``; returns (induced exchange, kind, winner, loser).
    """
    alpha_top, alpha_bottom = genperm.critical_bands(x.perm)
    if alpha_top == alpha_bottom:
        raise SplitUndefinedSameBand(alpha_top)
    if x.widths[alpha_top] == x.widths[alpha_bottom]:
        raise SplitUndefinedTie(alpha_top)
    if x.widths[alpha_top] > x.widths[alpha_bottom]:
        kind, winner, loser = SplitKind.TOP_WINS, alpha_top, alpha_bottom
    else:
        kind, winner, loser = SplitKind.BOTTOM_WINS, alpha_bottom, alpha_top
    induced = x.first_return_map(x.side_length - x.widths[loser])
    if induced.perm.alphabet != x.perm.alphabet:
        raise InconsistentStage(f"the return map lost the alphabet: {induced.perm.alphabet}")
    return induced, kind, winner, loser


def _insertion_rule(perm, widths):
    """The Boissy-Lanneau step for generalized permutations, in O(d).

    The loser leaves the end of its row and the winner loses the loser's
    width.  The loser goes right after the winner's other end when that
    end is on the loser's row, else just left of it on the winner's row.
    """
    alpha_top, alpha_bottom = perm.top[-1], perm.bottom[-1]
    top_wins = widths[alpha_top] > widths[alpha_bottom]
    winner, loser = (alpha_top, alpha_bottom) if top_wins else (alpha_bottom, alpha_top)
    win_row, lose_row = (0, 1) if top_wins else (1, 0)
    rows = [list(perm.top), list(perm.bottom)]
    rows[lose_row].pop()
    if winner in rows[lose_row]:
        rows[lose_row].insert(rows[lose_row].index(winner) + 1, loser)
    else:
        rows[win_row].insert(rows[win_row].index(winner), loser)
    new = dict(widths)
    new[winner] -= widths[loser]
    return genperm.validate(rows[0], rows[1]), new, winner, loser


def _grid_cases():
    """(perm, integer widths, denominator) over every node with d <= 5.

    Each node contributes its direction witnesses and two seeded random
    realizable width vectors on a random grid.
    """
    rng = random.Random(2009)
    for d in range(1, 6):
        for perm in genperm.enumerate_permutations(d):
            for kind in SplitKind:
                witness = rauzy._witness_grid(perm, kind)
                if witness is not None:
                    yield perm, witness, 1
            for _ in range(2):
                yield perm, random_grid_widths(perm, rng), rng.randrange(1, 50)


def _fleet_cases(depth: int = 30):
    """Successive (perm, integer widths, denominator) along fleet expansions."""
    pools = perm_pool(CLASSICAL + STUCK_FREE_NONCLASSICAL + ALL_REVERSING)
    fleet = random_fleet(seed=41, count=30, pools=pools)
    fleet += [x for _, x in tower_fleet(seed=43)[:10]]
    for x in fleet:
        denom = common_denominator(x.widths.values())
        perm, widths = x.perm, to_grid(x.widths, denom)
        for _ in range(depth):
            yield perm, widths, denom
            try:
                perm, widths, _ = rauzy._step(perm, widths)
            except SplitUndefined:
                break


def _compare_step_with_oracle(perm, widths, denom):
    """Outcome of one comparison: None on agreement, else the halt class."""
    x = build(perm, {a: F(v, denom) for a, v in widths.items()})
    try:
        induced, kind, winner, loser = _exchange_oracle(x)
    except SplitUndefined as err:
        with pytest.raises(type(err)):
            rauzy._step(perm, widths)
        return type(err)
    node, new_widths, step = rauzy._step(perm, widths)
    assert node == induced.perm
    assert {a: F(v, denom) for a, v in new_widths.items()} == induced.widths
    assert (step.kind, step.winner, step.loser) == (kind, winner, loser)
    assert step.matrix == rauzy.elementary_matrix(sorted(perm.alphabet), winner, loser)
    return None


@pytest.mark.parametrize("cases", [_grid_cases, _fleet_cases])
def test_integer_step_equals_first_return_oracle(cases):
    outcomes: dict = {}
    for perm, widths, denom in cases():
        outcome = _compare_step_with_oracle(perm, widths, denom)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes[None] >= 400
    if cases is _grid_cases:
        assert outcomes.get(SplitUndefinedSameBand, 0) > 0
        assert outcomes.get(SplitUndefinedTie, 0) > 0


@pytest.mark.parametrize("cases", [_grid_cases, _fleet_cases])
def test_integer_step_equals_insertion_rule(cases):
    matched = 0
    for perm, widths, _ in cases():
        try:
            node, new_widths, step = rauzy._step(perm, widths)
        except SplitUndefined:
            continue
        assert _insertion_rule(perm, widths) == (node, new_widths, step.winner, step.loser)
        matched += 1
    assert matched >= 400


def _drop_a_piece(monkeypatch, from_call: int) -> None:
    """Make the return chase lose its last piece from the given call on."""
    real = exchange._chase
    calls = [0]

    def lossy(layout, cut, budget):
        calls[0] += 1
        pieces = real(layout, cut, budget)
        return pieces[:-1] if calls[0] >= from_call else pieces

    monkeypatch.setattr(exchange, "_chase", lossy)


@pytest.mark.parametrize("from_call", [1, 3])
def test_lost_return_piece_is_inconsistent_not_a_halt(monkeypatch, from_call):
    x = sample_exchange(genperm.validate(["A", "A", "B"], ["B", "C", "C"]), seed=7)
    assert rauzy.expand(x, 5).depth == 5
    _drop_a_piece(monkeypatch, from_call)
    if from_call == 1:
        with pytest.raises(InconsistentStage):
            rauzy.split(x)
        with pytest.raises(InconsistentStage):
            diagram.node_edges(x.perm)
    with pytest.raises(InconsistentStage):
        rauzy.expand(x, 5)
    monkeypatch.undo()
    _drop_a_piece(monkeypatch, from_call)
    with pytest.raises(InconsistentStage):
        approx.find_cyclic_tower(x, F(1, 1000), budget=5)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda pieces: pieces + pieces[-1:],  # the last piece twice
        lambda pieces: pieces[:-1] + [(*pieces[-1][:3], pieces[-1][3] + 1)],  # one step off
    ],
    ids=["extra-piece", "shifted-image"],
)
def test_corrupted_return_chase_is_inconsistent(monkeypatch, corrupt):
    # Each corruption keeps the bounds of every expected piece, so only the
    # piece count or an image constant can tell.
    x = sample_exchange(genperm.validate(["A", "A", "B"], ["B", "C", "C"]), seed=7)
    real = exchange._chase
    monkeypatch.setattr(exchange, "_chase", lambda *args: corrupt(sorted(real(*args))))
    with pytest.raises(InconsistentStage, match="disagrees with the return chase"):
        rauzy.split(x)
    with pytest.raises(InconsistentStage, match="disagrees with the return chase"):
        diagram.node_edges(x.perm)


def _insert_one_slot_off(perm, top_wins):
    """The insertion rule with the loser put on the wrong side of the
    winner's other end."""
    top, bottom = list(perm.top), list(perm.bottom)
    win_row, lose_row = (top, bottom) if top_wins else (bottom, top)
    winner = win_row[-1]
    loser = lose_row.pop()
    if winner in lose_row:
        lose_row.insert(lose_row.index(winner), loser)
    else:
        win_row.insert(win_row.index(winner) + 1, loser)
    return genperm.validate(top, bottom)


def test_wrong_insertion_is_inconsistent_everywhere(monkeypatch):
    x = sample_exchange(genperm.validate(["A", "A", "B"], ["B", "C", "C"]), seed=7)
    assert rauzy.expand(x, 5).depth == 5
    monkeypatch.setattr(rauzy, "_insert", _insert_one_slot_off)
    with pytest.raises(InconsistentStage, match="disagrees with the return chase"):
        rauzy.split(x)
    with pytest.raises(InconsistentStage):
        rauzy.expand(x, 5)
    with pytest.raises(InconsistentStage):
        diagram.node_edges(x.perm)
    with pytest.raises(InconsistentStage):
        diagram.forward_closure(x.perm)
    with pytest.raises(InconsistentStage):
        approx.find_cyclic_tower(x, F(1, 1000), budget=5)


def test_swapped_equal_width_labels_are_caught_on_a_witness_edge(monkeypatch):
    # The top-wins witness of A A B | B C C is A 1, B 2, C 1: B wins, and
    # A, B, C all have width 1 after the step.  Swapping A and C in the
    # target leaves the induced flat map unchanged, so only the
    # label-inheritance check can see it.
    perm = genperm.validate(["A", "A", "B"], ["B", "C", "C"])
    widths = rauzy._witness_grid(perm, SplitKind.TOP_WINS)
    target, new_widths, step = rauzy._step(perm, widths)
    assert (step.winner, new_widths) == ("B", {"A": 1, "B": 1, "C": 1})
    swap = {"A": "C", "C": "A"}
    real = rauzy._insert

    def swapping(p, top_wins):
        node = real(p, top_wins)
        return genperm.validate(
            [swap.get(a, a) for a in node.top], [swap.get(a, a) for a in node.bottom]
        )

    swapped = swapping(perm, True)
    assert swapped != target
    assert exchange._grid_layout(swapped, new_widths) == exchange._grid_layout(target, new_widths)
    monkeypatch.setattr(rauzy, "_insert", swapping)
    with pytest.raises(InconsistentStage, match="moved a band off its old ends"):
        rauzy._step(perm, widths)
    with pytest.raises(InconsistentStage):
        diagram.node_edges(perm)


_OPTIMIZED_AUDIT = """
import sys
from fractions import Fraction as F
from linvex import genperm, rauzy
from linvex.errors import InconsistentStage
from linvex.exchange import build
from test_rauzy import _insert_one_slot_off

assert False, "assert statements must be stripped under -O"
x = build(genperm.validate(["A", "A", "B"], ["B", "C", "C"]), {"A": F(1), "B": F(2), "C": F(1)})
rauzy.split(x)
rauzy._insert = _insert_one_slot_off
try:
    rauzy.split(x)
except InconsistentStage:
    print("caught", sys.flags.optimize)
"""


def test_audit_does_not_rely_on_assert():
    src = Path(rauzy.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_AUDIT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "caught 1\n"


# --- winner runs against the per-step oracle ----------------------------------


def _oracle_chain(x, n):
    """Up to n steps of ``_exchange_oracle``: (nodes, (kind, winner, loser)
    per step, the halt class or None, the last exchange)."""
    nodes, steps, halted = [x.perm], [], None
    for _ in range(n):
        try:
            x, kind, winner, loser = _exchange_oracle(x)
        except SplitUndefined as err:
            halted = type(err)
            break
        nodes.append(x.perm)
        steps.append((kind, winner, loser))
    return nodes, steps, halted, x


def _assert_expand_equals_oracle(x, n):
    stage = rauzy.expand(x, n)
    nodes, steps, halted, end = _oracle_chain(x, n)
    assert [(s.kind, s.winner, s.loser) for s in stage.steps] == steps
    assert stage.nodes == nodes
    assert (None if stage.halted is None else type(stage.halted)) is halted
    assert rauzy.widths_at(stage, x) == end.widths
    return stage


def _widen(perm, widths, factor):
    """The widths with one band ``factor`` times wider, keeping the switch
    condition: the first preserving band, else the first reversing band of
    each side grows by the same amount."""
    widths = dict(widths)
    if perm.preserving:
        widths[perm.preserving[0]] *= factor
    else:
        grow = (factor - 1) * widths[perm.reversing_top[0]]
        widths[perm.reversing_top[0]] += grow
        widths[perm.reversing_bottom[0]] += grow
    return widths


def _runs(stage):
    """Lengths of the maximal winner runs of a stage."""
    lengths = []
    for i, step in enumerate(stage.steps):
        if i and step.winner == stage.steps[i - 1].winner:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    perm=st.sampled_from(_SMALL_NODES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    factor=st.sampled_from([1, 1, 7, 400]),
)
def test_expand_equals_the_per_step_oracle_chain(perm, seed, factor):
    widths = _widen(perm, random_grid_widths(perm, random.Random(seed)), factor)
    x = build(perm, {a: F(v) for a, v in widths.items()})
    _assert_expand_equals_oracle(x, 200)


# A A B | B C C with C no wider than A: B wins every step while it is wider
# than C, and the loser C goes back to the end of the bottom row.
_LONG_RUN = genperm.validate(["A", "A", "B"], ["B", "C", "C"])


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name from now on."""
    real = getattr(module, name)
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_run_of_a_thousand_steps_is_audited_by_one_chase(monkeypatch):
    x = build(_LONG_RUN, {"A": F(3, 7), "B": F(3001, 7), "C": F(3, 7)})
    chases = _count_calls(monkeypatch, exchange, "_chase")
    runs = _runs(rauzy.expand(x, 1100))
    # one chase per run, and one more for the split that starts the first
    assert chases[0] == len(runs) + (runs[0] > 1)
    monkeypatch.undo()
    assert _runs(_assert_expand_equals_oracle(x, 1100)) == runs
    assert runs[0] == 1000


@pytest.mark.parametrize("seed", [3, 4])
def test_pool_exchanges_with_a_wide_band_run_long(seed):
    longest = 0
    for perm in perm_pool(STUCK_FREE_NONCLASSICAL)[:6]:
        x = sample_exchange(perm, seed)
        denom = common_denominator(x.widths.values())
        widths = _widen(perm, to_grid(x.widths, denom), 10_000)
        x = build(perm, {a: F(v, denom) for a, v in widths.items()})
        longest = max(longest, *_runs(_assert_expand_equals_oracle(x, 3000)))
    assert longest >= 1000


def test_a_run_cut_by_the_depth_computes_no_step_past_it(monkeypatch):
    x = build(_LONG_RUN, {"A": F(1), "B": F(10**6), "C": F(1)})
    inserts = _count_calls(monkeypatch, rauzy, "_insert")
    chases = _count_calls(monkeypatch, exchange, "_chase")
    stage = rauzy.expand(x, 500)
    assert stage.depth == 500 and stage.halted is None
    assert {s.winner for s in stage.steps} == {"B"}
    assert inserts[0] == 500
    assert chases[0] == 2  # the split, then one run of 499 steps
    assert rauzy.widths_at(stage, x) == {"A": 1, "B": 10**6 - 500, "C": 1}
    inserts[0] = 0
    with pytest.raises(BudgetExceeded):
        approx.find_cyclic_tower(x, F(1, 10**9), budget=40)
    assert inserts[0] == 40


def test_a_tie_inside_a_run_halts_after_its_audited_prefix(monkeypatch):
    # B loses C's width 1 each step and ties with C after 1,199 steps
    x = build(_LONG_RUN, {"A": F(1, 5), "B": F(1200, 5), "C": F(1, 5)})
    chases = _count_calls(monkeypatch, exchange, "_chase")
    rauzy.expand(x, 5000)
    assert chases[0] == 2  # the split, then one run of 1,198 steps
    monkeypatch.undo()
    stage = _assert_expand_equals_oracle(x, 5000)
    assert stage.depth == 1199
    assert isinstance(stage.halted, SplitUndefinedTie)
    with pytest.raises(ExpansionHalted) as err:
        approx.find_cyclic_tower(x, F(1, 10**9), budget=5000)
    assert err.value.depth == 1199


# --- faults inside a run ------------------------------------------------------


def _insert_wrong_at(call, wrong):
    """``_insert`` that runs ``wrong`` instead on its given call."""
    real = rauzy._insert
    calls = [0]

    def insert(perm, top_wins):
        calls[0] += 1
        return (wrong if calls[0] == call else real)(perm, top_wins)

    return insert


# B wins 50 steps in a row from here: 101 - 50 * 2 = 1.
_RUN_START = build(_LONG_RUN, {"A": F(2), "B": F(101), "C": F(2)})


@pytest.mark.parametrize("call", [3, 6])
def test_wrong_insertion_inside_a_run_is_inconsistent(monkeypatch, call):
    stage = rauzy.expand(_RUN_START, 12)
    assert _runs(stage)[0] == 12
    for search in (
        lambda: rauzy.expand(_RUN_START, 12),
        lambda: approx.find_cyclic_tower(_RUN_START, F(1, 1000), budget=12),
    ):
        monkeypatch.setattr(rauzy, "_insert", _insert_wrong_at(call, _insert_one_slot_off))
        with pytest.raises(InconsistentStage, match="disagrees with the return chase"):
            search()
        monkeypatch.undo()


def _swapping(a, b):
    """``_insert`` followed by swapping the labels a and b."""
    real = rauzy._insert
    swap = {a: b, b: a}

    def insert(perm, top_wins):
        node = real(perm, top_wins)
        return genperm.validate(
            [swap.get(c, c) for c in node.top], [swap.get(c, c) for c in node.bottom]
        )

    return insert


@pytest.mark.parametrize("call", [3, 6])
def test_swapped_equal_width_labels_inside_a_run_are_caught(monkeypatch, call):
    # A and C have width 2 throughout the run, so swapping them leaves
    # every flat map unchanged; only the visit vectors can tell.
    for search in (
        lambda: rauzy.expand(_RUN_START, 12),
        lambda: approx.find_cyclic_tower(_RUN_START, F(1, 1000), budget=12),
    ):
        monkeypatch.setattr(rauzy, "_insert", _insert_wrong_at(call, _swapping("A", "C")))
        with pytest.raises(InconsistentStage, match="moved a band off its old ends"):
            search()
        monkeypatch.undo()


@pytest.mark.parametrize(
    "top, bottom, widths, depth, swap",
    [
        # A and B take no part in the run that ends at depth 7 and have
        # equal widths there: only their one-step pieces can tell
        (["A", "A"], ["B", "B", "C", "C", "D", "D"], (82, 2, 40, 40), 7, ("A", "B")),
        # A and B both lose in the run that ends at depth 6 and have equal
        # widths there: only the losers' itineraries can tell
        (["A", "B", "C"], ["C", "B", "A"], (5, 5, 3), 6, ("A", "B")),
    ],
    ids=["bystanders", "losers"],
)
def test_swapped_labels_at_the_end_of_a_run_are_caught(
    monkeypatch, top, bottom, widths, depth, swap
):
    perm = genperm.validate(top, bottom)
    x = build(perm, {a: F(v) for a, v in zip(perm.alphabet, widths)})
    stage = rauzy.expand(x, depth)
    assert stage.depth == depth and _runs(stage)[-1] >= 2
    end = rauzy.widths_at(stage, x)
    assert end[swap[0]] == end[swap[1]]
    monkeypatch.setattr(rauzy, "_insert", _insert_wrong_at(depth, _swapping(*swap)))
    with pytest.raises(InconsistentStage, match="moved a band off its old ends"):
        rauzy.expand(x, depth)


_OPTIMIZED_RUN_AUDIT = """
import sys
from fractions import Fraction as F
from linvex import genperm, rauzy
from linvex.errors import InconsistentStage
from linvex.exchange import build
from test_rauzy import _insert_one_slot_off

assert False, "assert statements must be stripped under -O"
x = build(genperm.validate(["A", "A", "B"], ["B", "C", "C"]), {"A": F(2), "B": F(101), "C": F(2)})
real = rauzy._insert
calls = [0]

def insert(perm, top_wins):
    calls[0] += 1
    return (_insert_one_slot_off if calls[0] == 4 else real)(perm, top_wins)

rauzy._insert = insert
try:
    rauzy.expand(x, 10)
except InconsistentStage:
    print("caught", sys.flags.optimize, calls[0])
"""


def test_run_audit_does_not_rely_on_assert():
    src = Path(rauzy.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_RUN_AUDIT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # the split takes call 1 and the run calls 2 to 10, all before the audit
    assert done.stdout == "caught 1 10\n"
