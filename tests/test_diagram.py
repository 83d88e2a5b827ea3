"""Forward closures, attractors, and shortest paths."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from linvex import diagram, genperm, rauzy
from linvex.errors import (
    ClosureBudgetExceeded,
    InconsistentStage,
    LinvexError,
    NonPositiveWidth,
    SwitchConditionViolated,
    Unreachable,
)
from linvex.genperm import validate
from linvex.rationals import canonical_json_bytes
from linvex.rauzy import SplitKind

from conftest import (
    STUCK_FREE_NONCLASSICAL,
    perm_pool,
    reference_direction_witness,
    reference_node_edges,
)


def test_classical_two_band_closure():
    p = validate(["A", "B"], ["B", "A"])
    g = diagram.forward_closure(p)
    assert g.node_count == 1
    assert len(g.edges[p]) == 2
    assert all(edge.target == p for edge in g.edges[p])


def test_classical_three_band_closure():
    # the class of the order-reversing three-band permutation
    p = validate(["A", "B", "C"], ["C", "B", "A"])
    g = diagram.forward_closure(p)
    assert g.node_count == 3
    expected = {
        (("A", "B", "C"), ("C", "B", "A")),
        (("A", "C", "B"), ("C", "B", "A")),
        (("A", "B", "C"), ("C", "A", "B")),
    }
    assert {(n.top, n.bottom) for n in g.nodes} == expected


def test_closure_deterministic():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    g1 = diagram.forward_closure(p)
    g2 = diagram.forward_closure(p)
    assert g1.nodes == g2.nodes
    assert all(g1.edges[n] == g2.edges[n] for n in g1.nodes)
    assert g1.node_count == 12


def test_budget_zero():
    stuck = validate(["A", "B", "A"], ["C", "B", "C"])  # no feasible edges
    g = diagram.forward_closure(stuck, budget=0)
    assert g.node_count == 1
    with pytest.raises(ClosureBudgetExceeded):
        diagram.forward_closure(validate(["A", "B"], ["B", "A"]), budget=0)


def test_edge_witness_reproduces_edge():
    from linvex import rauzy
    from linvex.exchange import Exchange

    p = validate(["A", "A", "B"], ["B", "C", "C"])
    g = diagram.forward_closure(p)
    for node in g.nodes:
        for edge in g.edges[node]:
            induced, step = rauzy.split(Exchange(node, edge.witness_widths()))
            assert induced.perm == edge.target
            assert (step.winner, step.loser) == (edge.winner, edge.loser)


def test_edge_target_independent_of_witness():
    # the induced combinatorics depend only on the direction
    from linvex import rauzy
    from linvex.exchange import Exchange
    from fractions import Fraction as F

    p = validate(["A", "A", "B"], ["B", "C", "C"])
    g = diagram.forward_closure(p)
    for edge in g.edges[p]:
        w = edge.witness_widths()
        scaled = {k: v * 3 for k, v in w.items()}
        bumped = dict(scaled)
        bumped[edge.winner] += F(1, 97)
        if p.orientation_of(edge.winner).value != "preserving":
            pool = (
                p.reversing_bottom_bands()
                if edge.winner in p.reversing_top_bands()
                else p.reversing_top_bands()
            )
            partner = [b for b in pool if b != edge.loser][0]
            bumped[partner] += F(1, 97)
        induced, _ = rauzy.split(Exchange(p, bumped))
        assert induced.perm == edge.target


def _toy_graph(nodes, arrows):
    perms = {name: validate([f"{name}", "Z"], ["Z", f"{name}"]) for name in nodes}
    edges = {}
    for name in nodes:
        outs = []
        for target in arrows.get(name, ()):  # direction tags unused here
            outs.append(
                diagram.Edge(
                    source=perms[name],
                    kind=list(__import__("linvex.rauzy", fromlist=["SplitKind"]).SplitKind)[0],
                    winner="Z",
                    loser="Z",
                    target=perms[target],
                    witness=(),
                )
            )
        edges[perms[name]] = tuple(outs)
    return perms, diagram.RauzyGraph(
        root=perms[nodes[0]], nodes=[perms[n] for n in nodes], edges=edges
    )


def test_attractors_single_node_self_loop():
    perms, g = _toy_graph(["a"], {"a": ["a"]})
    assert diagram.attractors(g) == [frozenset({perms["a"]})]


def test_attractors_linear_chain():
    perms, g = _toy_graph(["a", "b", "c"], {"a": ["b"], "b": ["c"]})
    assert diagram.attractors(g) == [frozenset({perms["c"]})]


def test_attractors_two_cycles_one_exit():
    perms, g = _toy_graph(
        ["a", "b", "c", "d"],
        {"a": ["b"], "b": ["a", "c"], "c": ["d"], "d": ["c"]},
    )
    comps = diagram.attractors(g)
    assert comps == [frozenset({perms["c"], perms["d"]})]


def test_scc_matches_pairwise_reachability():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    g = diagram.forward_closure(p)
    comps = diagram.strongly_connected_components(g)
    assert sum(len(c) for c in comps) == g.node_count
    for comp in comps:
        for a in comp:
            reach = diagram.reachable_from(g, a)
            assert comp <= reach


def test_shortest_path_trivial_and_unreachable():
    p = validate(["A", "B"], ["B", "A"])
    g = diagram.forward_closure(p)
    assert diagram.shortest_path(g, p, lambda n: True) == []
    with pytest.raises(Unreachable):
        diagram.shortest_path(g, p, lambda n: False)


def test_shortest_path_matches_exhaustive_search():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    g = diagram.forward_closure(p)

    def bfs_len(start, predicate):
        from collections import deque

        seen = {start}
        queue = deque([(start, 0)])
        while queue:
            node, dist = queue.popleft()
            if predicate(node):
                return dist
            for edge in g.edges[node]:
                if edge.target not in seen:
                    seen.add(edge.target)
                    queue.append((edge.target, dist + 1))
        return None

    for target_band in ("A", "B", "C"):
        predicate = lambda n: n.top[-1] == target_band  # noqa: E731
        expected = bfs_len(p, predicate)
        if expected is None:
            with pytest.raises(Unreachable):
                diagram.shortest_path(g, p, predicate)
        else:
            path = diagram.shortest_path(g, p, predicate)
            assert len(path) == expected
            node = p
            for edge in path:
                assert edge.source == node
                node = edge.target
            assert predicate(node)


def test_curated_pool_closures_are_stuck_free():
    for perm in perm_pool(STUCK_FREE_NONCLASSICAL):
        g = diagram.forward_closure(perm, budget=4000)
        assert not g.stuck_nodes(), perm


def test_out_degree_bounded_by_two():
    p = validate(["A", "A", "B"], ["B", "C", "D", "C", "D"])
    g = diagram.forward_closure(p, budget=2000)
    assert all(len(g.edges[n]) <= 2 for n in g.nodes)


# --- the integer witness path against the Fraction reference -----------------


def _outcome(fn, *args):
    """The result of fn(*args), or the class of the domain error it raised."""
    try:
        return fn(*args)
    except LinvexError as err:
        return type(err)


def test_witness_and_edges_equal_the_fraction_reference_on_every_small_node():
    edges = 0
    for d in range(1, 6):
        for perm in genperm.enumerate_permutations(d, realizable_only=False):
            for kind in SplitKind:
                witness = _outcome(rauzy.direction_witness, perm, kind)
                assert witness == _outcome(reference_direction_witness, perm, kind)
                if isinstance(witness, dict):
                    assert list(witness) == list(perm.alphabet)
                    assert all(type(v) is Fraction for v in witness.values())
            got = _outcome(diagram.node_edges, perm)
            assert got == _outcome(reference_node_edges, perm), perm
            if isinstance(got, tuple):
                edges += len(got)
                for edge in got:
                    assert all(type(v) is Fraction for _, v in edge.witness)
    assert edges > 4000


def test_closure_json_equals_the_fraction_reference(monkeypatch):
    starts = [
        p for d in (1, 2, 3) for p in genperm.enumerate_permutations(d, non_classical_only=True)
    ]
    starts += list(genperm.enumerate_permutations(4, non_classical_only=True))[::5]
    got = [canonical_json_bytes(diagram.forward_closure(p).to_json_dict()) for p in starts]
    monkeypatch.setattr(diagram, "node_edges", reference_node_edges)
    want = [canonical_json_bytes(diagram.forward_closure(p).to_json_dict()) for p in starts]
    assert len(starts) == 16 + 41
    assert got == want


# A A B | B C C splits both ways; A is its reversing top band.
_BOTH_WAYS = validate(["A", "A", "B"], ["B", "C", "C"])


def _patch_witness(monkeypatch, edit) -> None:
    """Make ``rauzy._witness_grid`` return ``edit(perm, kind, widths)``."""
    real = rauzy._witness_grid

    def edited(perm, kind):
        widths = real(perm, kind)
        return None if widths is None else edit(perm, kind, widths)

    monkeypatch.setattr(rauzy, "_witness_grid", edited)


def test_faulty_integer_witness_raises_the_width_errors(monkeypatch):
    assert len(diagram.node_edges(_BOTH_WAYS)) == 2
    _patch_witness(monkeypatch, lambda perm, kind, w: {**w, "B": 0})
    with pytest.raises(NonPositiveWidth):
        diagram.node_edges(_BOTH_WAYS)
    monkeypatch.undo()
    _patch_witness(monkeypatch, lambda perm, kind, w: {**w, "A": w["A"] + 1})
    with pytest.raises(SwitchConditionViolated):
        diagram.node_edges(_BOTH_WAYS)


def test_witness_that_splits_the_other_way_is_inconsistent(monkeypatch):
    real = rauzy._witness_grid
    other = {SplitKind.TOP_WINS: SplitKind.BOTTOM_WINS, SplitKind.BOTTOM_WINS: SplitKind.TOP_WINS}
    monkeypatch.setattr(rauzy, "_witness_grid", lambda perm, kind: real(perm, other[kind]))
    with pytest.raises(InconsistentStage, match="split the other way"):
        diagram.node_edges(_BOTH_WAYS)


_OPTIMIZED_SWITCH = """
import sys
from linvex import diagram, genperm, rauzy
from linvex.errors import SwitchConditionViolated

assert False, "assert statements must be stripped under -O"
perm = genperm.validate(["A", "A", "B"], ["B", "C", "C"])
real = rauzy._witness_grid
rauzy._witness_grid = lambda p, kind: {**real(p, kind), "A": real(p, kind)["A"] + 1}
try:
    diagram.node_edges(perm)
except SwitchConditionViolated:
    print("caught", sys.flags.optimize)
"""


def test_witness_check_does_not_rely_on_assert():
    src = Path(diagram.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SWITCH],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "caught 1\n"
