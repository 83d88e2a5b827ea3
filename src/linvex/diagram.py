"""Forward Rauzy diagrams over labeled generalized permutations.

Nodes are labeled permutations; no quotient by relabeling is taken, so
paths in the graph line up with matrix cocycle bookkeeping.  Each node
has at most two outgoing edges, one per split direction.  A direction is
present exactly when the witness solver finds positive integer widths
satisfying the switch condition that make the direction's winner strictly
wider.  Every node builds and checks its own integer witness, which the
``Edge`` keeps as ints; it becomes Fractions only in ``witness_widths``
and the JSON.

Inside one ``forward_closure`` most nodes are relabelings of a few
shapes: a shape is ``(len(top), involution)``, the permutation up to
renaming its labels.  The first node of each shape runs ``node_edges``,
whose targets come from the audited one-step run of each witness.  Every
later node of that shape takes its targets from ``rauzy._insert``
alone.  The insertion rule reads positions only (the critical bands and
the other end of the winner), never label names, so its step from a
relabeled node is the audited step with the labels renamed; and the
directions, which ``_witness_grid`` decides from the reversing classes
and the critical positions, are the shape's.  A later node whose
witnesses give other directions, or whose witness does not make its
winner wider, raises InconsistentStage.

Strongly connected components and attractors run on node ids, the
positions in ``RauzyGraph.nodes``: one iterative Tarjan, ``_tarjan``,
takes successor id lists and returns components in the order they close,
which is the order both functions report them in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Mapping

from . import rauzy
from .errors import LIMITS, BudgetExceeded, InconsistentStage, Unreachable
from .exchange import _check_size, _check_widths
from .genperm import GeneralizedPermutation, is_combinatorially_reducible
from .rationals import format_fraction

# Enum members bound once: an attribute read costs far more than a name.
_BOTTOM_WINS, _TOP_WINS = rauzy.SplitKind.BOTTOM_WINS, rauzy.SplitKind.TOP_WINS
_KINDS = (_BOTTOM_WINS, _TOP_WINS)  # direction-tag order
_kind_of = attrgetter("kind")


@dataclass(frozen=True, slots=True)
class Edge:
    source: GeneralizedPermutation
    kind: rauzy.SplitKind
    winner: str
    loser: str
    target: GeneralizedPermutation
    witness: tuple[tuple[str, int], ...]

    def witness_widths(self) -> dict[str, Fraction]:
        return {label: Fraction(v) for label, v in self.witness}

    def to_json_dict(self, node_ids: Mapping[GeneralizedPermutation, int]) -> dict:
        return {
            "source": node_ids[self.source],
            "target": node_ids[self.target],
            "direction": self.kind.value,
            "winner": self.winner,
            "loser": self.loser,
            "witness": {label: format_fraction(v) for label, v in self.witness},
        }


@dataclass
class RauzyGraph:
    """A forward closure: nodes in discovery order plus their out-edges."""

    root: GeneralizedPermutation
    nodes: list[GeneralizedPermutation]
    edges: dict[GeneralizedPermutation, tuple[Edge, ...]]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def reducible_nodes(self) -> list[GeneralizedPermutation]:
        return [n for n in self.nodes if is_combinatorially_reducible(n)]

    def stuck_nodes(self) -> list[GeneralizedPermutation]:
        return [n for n in self.nodes if not self.edges[n]]

    def to_json_dict(self) -> dict:
        ids = {node: i for i, node in enumerate(self.nodes)}
        return {
            "nodes": [dict(id=i, **node.to_json_dict()) for i, node in enumerate(self.nodes)],
            "links": [
                edge.to_json_dict(ids) for node in self.nodes for edge in self.edges[node]
            ],
        }


def node_edges(perm: GeneralizedPermutation) -> tuple[Edge, ...]:
    """Feasible out-edges of a node, in direction-tag order (bottom, top),
    each target from the audited one-step run of its witness."""
    return _edges(perm, audit=True)


def _edges(perm: GeneralizedPermutation, audit: bool) -> tuple[Edge, ...]:
    """The out-edges of ``perm``: each witness is built and checked here,
    and each target comes from ``rauzy._step`` when ``audit`` is set, else
    from ``rauzy._insert`` for a node whose shape was audited."""
    alpha_top, alpha_bottom = perm.top[-1], perm.bottom[-1]  # the critical bands
    out = []
    for kind in _KINDS:
        witness = rauzy._witness_grid(perm, kind)
        if witness is None:
            continue
        _check_widths(perm, witness)
        top_wins = kind is _TOP_WINS
        winner, loser = (alpha_top, alpha_bottom) if top_wins else (alpha_bottom, alpha_top)
        if witness[winner] <= witness[loser]:
            raise InconsistentStage(f"the {kind.value} witness of {perm} split the other way")
        target = rauzy._step(perm, witness)[0] if audit else rauzy._insert(perm, top_wins)
        # Positional fields: keywords cost a third more per record.  The
        # witness items are already in alphabet order.
        out.append(Edge(perm, kind, winner, loser, target, tuple(witness.items())))
    return tuple(out)


def forward_closure(
    perm: GeneralizedPermutation, budget: int = LIMITS["closure_nodes"]
) -> RauzyGraph:
    """Breadth-first closure under feasible splits, up to a node budget.

    Only the first node of each shape runs the audited ``node_edges``;
    the others reuse its directions (see the module docstring).  The
    budget, a nonnegative int, caps the nodes; a closure with more raises
    BudgetExceeded.
    """
    _check_size(budget, "budget")
    edges: dict[GeneralizedPermutation, tuple[Edge, ...]] = {}
    nodes: list[GeneralizedPermutation] = [perm]
    seen = {perm}
    queue = deque([perm])
    directions: dict[tuple[int, tuple[int, ...]], tuple[rauzy.SplitKind, ...]] = {}
    while queue:
        node = queue.popleft()
        shape = (len(node.top), node.involution)
        audited = directions.get(shape)
        outs = node_edges(node) if audited is None else _edges(node, audit=False)
        kinds = tuple(map(_kind_of, outs))
        if audited is None:
            directions[shape] = kinds
        elif kinds != audited:
            raise InconsistentStage(f"{node} does not split the ways its shape does")
        edges[node] = outs
        for edge in outs:
            if edge.target in seen:
                continue
            if len(nodes) >= budget:
                raise BudgetExceeded(f"closure exceeded {budget} nodes from {perm}")
            seen.add(edge.target)
            nodes.append(edge.target)
            queue.append(edge.target)
    if budget == 0 and any(edges[n] for n in nodes):
        raise BudgetExceeded("budget 0 allows only edge-free nodes")
    return RauzyGraph(root=perm, nodes=nodes, edges=edges)


def is_dynamically_irreducible(
    perm: GeneralizedPermutation, budget: int = LIMITS["closure_nodes"]
) -> bool:
    """Proxy irreducibility: the forward Rauzy closure is clean.

    True when the closure is finite within ``budget``, contains no
    combinatorially reducible node, and no node whose two split directions
    are both width-infeasible.  This is a documented proxy, not the exact
    strong-irreducibility notion of the literature; callers should label
    results "proxy-irreducible".
    """
    if is_combinatorially_reducible(perm):
        return False
    graph = forward_closure(perm, budget=budget)
    return all(graph.edges[n] and not is_combinatorially_reducible(n) for n in graph.nodes)


def _tarjan(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm on nodes 0 .. n-1 with successor lists ``succ``,
    iterative to keep deep diagrams off the C stack; the components come
    in the order they close."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for start in range(len(succ)):
        if index[start] >= 0:
            continue
        work = [(start, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            outs = succ[node]
            while edge_pos < len(outs):
                target = outs[edge_pos]
                edge_pos += 1
                if index[target] < 0:
                    work.append((node, edge_pos))
                    work.append((target, 0))
                    break
                if on_stack[target] and index[target] < low[node]:
                    low[node] = index[target]
            else:
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components


def _successors(graph: RauzyGraph) -> list[list[int]]:
    """Each node's edge targets as positions in ``graph.nodes``."""
    ids = {node: i for i, node in enumerate(graph.nodes)}
    return [[ids[edge.target] for edge in graph.edges[node]] for node in graph.nodes]


def strongly_connected_components(graph: RauzyGraph) -> list[frozenset[GeneralizedPermutation]]:
    """The components of ``_tarjan`` on node ids, in the order they close."""
    nodes = graph.nodes
    return [frozenset(nodes[i] for i in comp) for comp in _tarjan(_successors(graph))]


def attractors(graph: RauzyGraph) -> list[frozenset[GeneralizedPermutation]]:
    """Strongly connected components with no edge leaving them."""
    succ = _successors(graph)
    components = _tarjan(succ)
    comp_of = [0] * len(succ)
    for c, comp in enumerate(components):
        for i in comp:
            comp_of[i] = c
    nodes = graph.nodes
    return [
        frozenset(nodes[i] for i in comp)
        for c, comp in enumerate(components)
        if all(comp_of[t] == c for i in comp for t in succ[i])
    ]


def shortest_path(
    graph: RauzyGraph,
    start: GeneralizedPermutation,
    predicate: Callable[[GeneralizedPermutation], bool],
) -> list[Edge]:
    """BFS shortest edge path to any node satisfying the predicate.

    Ties between equal-length paths break lexicographically on direction
    tags because out-edges are stored in tag order.
    """
    if start not in graph.edges:
        raise Unreachable(f"start node {start} not in graph")
    if predicate(start):
        return []
    parent: dict[GeneralizedPermutation, Edge] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for edge in graph.edges[node]:
            if edge.target in seen:
                continue
            parent[edge.target] = edge
            if predicate(edge.target):
                path = [edge]
                while path[0].source != start:
                    path.insert(0, parent[path[0].source])
                return path
            seen.add(edge.target)
            queue.append(edge.target)
    raise Unreachable("no reachable node satisfies the predicate")

