"""Forward Rauzy diagrams over labeled generalized permutations.

Nodes are labeled permutations; no quotient by relabeling is taken, so
paths in the graph line up with matrix cocycle bookkeeping.  Each node
has at most two outgoing edges, one per split direction.  A direction is
present exactly when the witness solver finds positive integer widths
satisfying the switch condition that make the direction's winner strictly
wider.  The witness is checked and the edge target computed by running
the audited split, all on integers; the witness becomes Fractions only on
the ``Edge``, where it is stored for reproducibility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from . import rauzy
from .errors import ClosureBudgetExceeded, InconsistentStage, Unreachable
from .exchange import _check_widths
from .genperm import GeneralizedPermutation, is_combinatorially_reducible
from .rationals import format_fraction

DEFAULT_NODE_BUDGET = 100_000


@dataclass(frozen=True)
class Edge:
    source: GeneralizedPermutation
    kind: rauzy.SplitKind
    winner: str
    loser: str
    target: GeneralizedPermutation
    witness: tuple[tuple[str, Fraction], ...]

    def witness_widths(self) -> dict[str, Fraction]:
        return dict(self.witness)

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
    """Feasible out-edges of a node, in direction-tag order (bottom, top)."""
    out = []
    for kind in (rauzy.SplitKind.BOTTOM_WINS, rauzy.SplitKind.TOP_WINS):
        witness = rauzy._witness_grid(perm, kind)
        if witness is None:
            continue
        _check_widths(perm, witness)
        target, _, step = rauzy._step(perm, witness)
        if step.kind is not kind:
            raise InconsistentStage(f"the {kind.value} witness of {perm} split the other way")
        out.append(
            Edge(
                source=perm,
                kind=kind,
                winner=step.winner,
                loser=step.loser,
                target=target,
                witness=tuple((a, Fraction(witness[a])) for a in sorted(witness)),
            )
        )
    return tuple(out)


def forward_closure(
    perm: GeneralizedPermutation, budget: int = DEFAULT_NODE_BUDGET
) -> RauzyGraph:
    """Breadth-first closure under feasible splits, up to a node budget."""
    edges: dict[GeneralizedPermutation, tuple[Edge, ...]] = {}
    nodes: list[GeneralizedPermutation] = [perm]
    seen = {perm}
    queue = deque([perm])
    while queue:
        node = queue.popleft()
        outs = node_edges(node)
        edges[node] = outs
        for edge in outs:
            if edge.target in seen:
                continue
            if len(nodes) + 1 > budget or budget <= 0:
                raise ClosureBudgetExceeded(
                    f"closure exceeded {budget} nodes from {perm}"
                )
            seen.add(edge.target)
            nodes.append(edge.target)
            queue.append(edge.target)
    if budget <= 0 and any(edges[n] for n in nodes):
        raise ClosureBudgetExceeded("budget 0 allows only edge-free nodes")
    return RauzyGraph(root=perm, nodes=nodes, edges=edges)


def strongly_connected_components(graph: RauzyGraph) -> list[frozenset[GeneralizedPermutation]]:
    """Tarjan's algorithm, iterative to keep deep diagrams off the C stack."""
    index_of: dict[GeneralizedPermutation, int] = {}
    low: dict[GeneralizedPermutation, int] = {}
    on_stack: set[GeneralizedPermutation] = set()
    stack: list[GeneralizedPermutation] = []
    components: list[frozenset[GeneralizedPermutation]] = []
    counter = 0

    for start in graph.nodes:
        if start in index_of:
            continue
        work: list[tuple[GeneralizedPermutation, int]] = [(start, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            outs = graph.edges[node]
            while edge_pos < len(outs):
                target = outs[edge_pos].target
                edge_pos += 1
                if target not in index_of:
                    work.append((node, edge_pos))
                    work.append((target, 0))
                    advanced = True
                    break
                if target in on_stack:
                    low[node] = min(low[node], index_of[target])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def attractors(graph: RauzyGraph) -> list[frozenset[GeneralizedPermutation]]:
    """Strongly connected components with no edge leaving them."""
    out = []
    for component in strongly_connected_components(graph):
        if all(
            edge.target in component
            for node in component
            for edge in graph.edges[node]
        ):
            out.append(component)
    return out


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


def reachable_from(
    graph: RauzyGraph, start: GeneralizedPermutation
) -> set[GeneralizedPermutation]:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for edge in graph.edges[node]:
            if edge.target not in seen:
                seen.add(edge.target)
                queue.append(edge.target)
    return seen
