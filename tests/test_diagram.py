"""Forward closures, attractors, and shortest paths."""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvex import diagram, genperm, rauzy
from linvex.errors import (
    LIMITS,
    BudgetExceeded,
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
    reference_attractors,
    reference_direction_witness,
    reference_node_edges,
    reference_strongly_connected_components,
    sample_exchange,
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
    with pytest.raises(BudgetExceeded):
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
                p.reversing_bottom
                if edge.winner in p.reversing_top
                else p.reversing_top
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


@functools.lru_cache(maxsize=None)
def _small_closures(d_max: int, non_classical_only: bool) -> tuple[diagram.RauzyGraph, ...]:
    """The forward closure of every start with d <= ``d_max``, in
    enumeration order."""
    return tuple(
        diagram.forward_closure(p)
        for d in range(1, d_max + 1)
        for p in genperm.enumerate_permutations(d, non_classical_only=non_classical_only)
    )


def _reach(graph, start):
    """The nodes of ``graph`` that ``start`` reaches, itself included."""
    seen, queue = {start}, deque([start])
    while queue:
        for edge in graph.edges[queue.popleft()]:
            if edge.target not in seen:
                seen.add(edge.target)
                queue.append(edge.target)
    return seen


def test_scc_matches_pairwise_reachability():
    d4 = [g for g in _small_closures(4, True) if g.root.band_count == 4]
    largest = sorted(d4, key=lambda g: -g.node_count)[:5]
    graphs = [*_small_closures(3, False), *largest]
    assert largest[0].node_count == 517
    for g in graphs:
        comps = diagram.strongly_connected_components(g)
        assert sum(len(c) for c in comps) == g.node_count
        comp_of = {node: comp for comp in comps for node in comp}
        reach = {node: _reach(g, node) for node in g.nodes}
        for a in g.nodes:
            mutual = {b for b in reach[a] if a in reach[b]}
            assert comp_of[a] == mutual, (g.root, a)


def test_scc_and_attractors_equal_the_object_keyed_reference():
    closures = _small_closures(4, True)
    assert (len(closures), sum(g.node_count for g in closures)) == (217, 40018)
    for g in closures:
        assert diagram.strongly_connected_components(g) == reference_strongly_connected_components(g)
        assert diagram.attractors(g) == reference_attractors(g)


def test_witnesses_come_in_alphabet_order_on_every_small_closure_node():
    for g in _small_closures(4, True):
        for node in g.nodes:
            for kind in SplitKind:
                witness = rauzy._witness_grid(node, kind)
                if witness is not None:
                    assert list(witness) == list(node.alphabet), (node, kind)
            for edge in g.edges[node]:
                assert edge.witness == tuple(sorted(edge.witness))


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
                witness = _outcome(rauzy._witness_grid, perm, kind)
                assert witness == _outcome(reference_direction_witness, perm, kind)
                if isinstance(witness, dict):
                    assert list(witness) == list(perm.alphabet)
                    assert all(type(v) is int for v in witness.values())
            got = _outcome(diagram.node_edges, perm)
            assert got == _outcome(reference_node_edges, perm), perm
            if isinstance(got, tuple):
                edges += len(got)
                for edge in got:
                    assert all(type(v) is int for _, v in edge.witness)
                    assert all(type(v) is Fraction for v in edge.witness_widths().values())
    assert edges > 4000


def _reference_closure(perm, memo, budget=LIMITS["closure_nodes"]):
    """``forward_closure``'s breadth-first search with ``reference_node_edges``
    run on every labelled node (memoised in ``memo``), not once per shape."""
    nodes, seen, queue = [perm], {perm}, deque([perm])
    while queue:
        node = queue.popleft()
        if node not in memo:
            memo[node] = reference_node_edges(node)
        for edge in memo[node]:
            if edge.target not in seen:
                if len(nodes) >= budget:
                    raise BudgetExceeded(str(perm))
                seen.add(edge.target)
                nodes.append(edge.target)
                queue.append(edge.target)
    return diagram.RauzyGraph(root=perm, nodes=nodes, edges={n: memo[n] for n in nodes})


def _closure_bytes(closure, perm, *args):
    """The canonical JSON bytes of a closure, or the class of its domain error."""
    graph = _outcome(closure, perm, *args)
    return graph if isinstance(graph, type) else canonical_json_bytes(graph.to_json_dict())


def test_closure_json_equals_the_fraction_reference():
    starts = [
        p for d in (1, 2, 3, 4) for p in genperm.enumerate_permutations(d, non_classical_only=True)
    ]
    memo: dict = {}
    got = [_closure_bytes(diagram.forward_closure, p) for p in starts]
    want = [_closure_bytes(_reference_closure, p, memo) for p in starts]
    assert len(starts) == 217
    assert got == want


_D5_STARTS = list(genperm.enumerate_permutations(5, non_classical_only=True))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(perm=st.sampled_from(_D5_STARTS))
def test_d5_closure_json_equals_the_per_node_reference(perm):
    # a closure past the budget must stop at the same node on both sides
    got = _closure_bytes(diagram.forward_closure, perm, 3000)
    assert got == _closure_bytes(_reference_closure, perm, {}, 3000)


# A A B | B C C splits both ways; A is its reversing top band.
_BOTH_WAYS = validate(["A", "A", "B"], ["B", "C", "C"])
_OTHER_WAY = {SplitKind.TOP_WINS: SplitKind.BOTTOM_WINS, SplitKind.BOTTOM_WINS: SplitKind.TOP_WINS}


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
    monkeypatch.setattr(rauzy, "_witness_grid", lambda perm, kind: real(perm, _OTHER_WAY[kind]))
    with pytest.raises(InconsistentStage, match="split the other way"):
        diagram.node_edges(_BOTH_WAYS)
    with pytest.raises(InconsistentStage, match="split the other way"):
        diagram.forward_closure(_BOTH_WAYS)


# A B A | C C D D B: 517 labelled nodes of 44 shapes, with 818 edges.
_MANY_SHAPES = validate(["A", "B", "A"], ["C", "C", "D", "D", "B"])


def _shape(perm):
    return (len(perm.top), perm.involution)


def test_closure_audits_one_run_per_shape_direction(monkeypatch):
    real = rauzy._run
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(rauzy, "_run", counting)
    g = diagram.forward_closure(_MANY_SHAPES)
    firsts = {}
    for node in g.nodes:
        firsts.setdefault(_shape(node), node)
    assert (g.node_count, len(firsts)) == (517, 44)
    assert sum(len(g.edges[n]) for n in g.nodes) == 818
    assert calls[0] == sum(len(g.edges[n]) for n in firsts.values()) == 70


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("other-way", InconsistentStage, "split the other way"),
        ("zero-width", NonPositiveWidth, "is 0"),
    ],
    ids=["other-way", "zero-width"],
)
def test_closure_checks_the_witness_of_a_node_after_its_shapes_first(
    monkeypatch, fault, error, message
):
    # the fault reaches one node that splits both ways and whose shape an
    # earlier node of the closure has, so no audited run sees it
    g = diagram.forward_closure(_MANY_SHAPES)
    shapes = set()
    for node in g.nodes:
        if _shape(node) in shapes and len(g.edges[node]) == 2:
            break
        shapes.add(_shape(node))
    real = rauzy._witness_grid

    def faulty(perm, kind):
        if perm != node:
            return real(perm, kind)
        if fault == "other-way":
            return real(perm, _OTHER_WAY[kind])
        return {**real(perm, kind), perm.top[0]: 0}

    monkeypatch.setattr(rauzy, "_witness_grid", faulty)
    with pytest.raises(error, match=message):
        diagram.forward_closure(_MANY_SHAPES)


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


# d = 5 starts whose closures have 600, 1,320 and 10 nodes.
_D5_HASHED = [
    validate(["A", "A"], ["B", "B", "C", "C", "D", "D", "E", "E"]),
    validate(["A", "A", "B", "C"], ["B", "D", "D", "C", "E", "E"]),
    validate(["A", "B", "C", "A", "D"], ["E", "B", "D", "E", "C"]),
]


def _json_digests() -> list[str]:
    """SHA-256 of the canonical JSON of a depth-30 expansion and of the
    forward closure of every non-classical start with d <= 4, of a
    depth-30 expansion from random widths on every 100th non-classical
    d = 5 start, and of the closures of ``_D5_HASHED``."""
    payloads = []
    for d in range(1, 5):
        for perm in genperm.enumerate_permutations(d, non_classical_only=True):
            payloads.append(rauzy.expand(sample_exchange(perm, seed=d), 30).to_json_dict())
            payloads.append(diagram.forward_closure(perm).to_json_dict())
    for perm in _D5_STARTS[::100]:
        payloads.append(rauzy.expand(sample_exchange(perm, seed=5), 30).to_json_dict())
    payloads += [diagram.forward_closure(perm).to_json_dict() for perm in _D5_HASHED]
    return [hashlib.sha256(canonical_json_bytes(p)).hexdigest() for p in payloads]


def test_json_bytes_do_not_depend_on_the_hash_seed():
    # closures and stages are built from sets and dicts keyed by strings and
    # permutations, whose order follows the hash seed; their JSON must not
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    with subprocess.Popen(
        [sys.executable, "-c", "from test_diagram import _json_digests; print(*_json_digests())"],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as other:
        digests = _json_digests()  # meanwhile, under this process's seed
        out, err = other.communicate(timeout=300)
    assert other.returncode == 0, err
    assert len(digests) == 2 * 217 + 29 + 3
    assert out.split() == digests
