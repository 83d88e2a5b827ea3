"""Shared fixtures: permutation pools, seeded fleets, acceptance summary."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from fractions import Fraction as F
from typing import Iterator, Mapping, NamedTuple

import pytest

from linvex import diagram, genperm, lab, rauzy
from linvex.errors import (
    LIMITS,
    BudgetExceeded,
    EndpointHit,
    InconsistentStage,
    InvalidInput,
    LabelCountError,
    NonPositiveWidth,
    SideEmptyError,
    SwitchConditionViolated,
)
from linvex.exchange import Exchange, Point, Side
from linvex.genperm import GeneralizedPermutation, Orientation, critical_bands
from linvex.rationals import common_denominator, to_grid
from linvex.rauzy import SplitKind

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
    top, bottom = perm.reversing_top, perm.reversing_bottom
    excess = sum(widths[a] for a in top) - sum(widths[a] for a in bottom)
    if excess > 0:
        widths[rng.choice(bottom)] += excess
    elif excess < 0:
        widths[rng.choice(top)] -= excess
    return widths


class FractionLayout:
    """The layout of an exchange in Fractions, built from its rows and widths.

    The test-side reference for the library's flat integer map, sharing no
    code with it.  Per global position p it holds the end's side, start,
    width and label; the side the map sends it to (``apply_side``) and the
    affine map there, offset t going to ``apply_const[p] +
    apply_slope[p] * t``; and the side of the band's other end
    (``flow_side``).  ``starts`` and ``positions`` list each side's ends
    left to right.
    """

    def __init__(self, perm, widths):
        self.perm = perm
        self.widths = {label: F(widths[label]) for label in perm.alphabet}
        self.side_length = sum(self.widths.values(), F(0))

        total = 2 * perm.band_count
        pos_side: list[Side] = [Side.TOP] * total
        pos_start: list[F] = [F(0)] * total
        pos_label: list[str] = [""] * total
        pos_width: list[F] = [F(0)] * total
        starts: dict[Side, list[F]] = {Side.TOP: [], Side.BOTTOM: []}
        positions: dict[Side, list[int]] = {Side.TOP: [], Side.BOTTOM: []}

        cursor = F(0)
        for i, label in enumerate(perm.top):
            pos_side[i] = Side.TOP
            pos_start[i] = cursor
            pos_label[i] = label
            pos_width[i] = self.widths[label]
            starts[Side.TOP].append(cursor)
            positions[Side.TOP].append(i)
            cursor += self.widths[label]
        top_total = cursor
        cursor = F(0)
        for k, label in enumerate(perm.bottom):
            i = len(perm.top) + k
            pos_side[i] = Side.BOTTOM
            pos_start[i] = cursor
            pos_label[i] = label
            pos_width[i] = self.widths[label]
            starts[Side.BOTTOM].append(cursor)
            positions[Side.BOTTOM].append(i)
            cursor += self.widths[label]
        if top_total != cursor or top_total != self.side_length:
            raise InconsistentStage("layout does not tile both sides equally")

        apply_side: list[Side] = [Side.TOP] * total
        apply_slope: list[int] = [1] * total
        apply_const: list[F] = [F(0)] * total
        flow_side: list[Side] = [Side.TOP] * total
        for p in range(total):
            q = perm.involution[p]
            same_side = pos_side[p] is pos_side[q]
            flow_side[p] = pos_side[q]
            apply_side[p] = pos_side[q].flipped()
            if same_side:
                apply_slope[p] = -1
                apply_const[p] = pos_start[q] + pos_width[p] + pos_start[p]
            else:
                apply_slope[p] = 1
                apply_const[p] = pos_start[q] - pos_start[p]

        self.starts = {side: tuple(vals) for side, vals in starts.items()}
        self.positions = {side: tuple(vals) for side, vals in positions.items()}
        self.apply_side = tuple(apply_side)
        self.apply_slope = tuple(apply_slope)
        self.apply_const = tuple(apply_const)
        self.flow_side = tuple(flow_side)
        self.pos_side = tuple(pos_side)
        self.pos_start = tuple(pos_start)
        self.pos_label = tuple(pos_label)
        self.pos_width = tuple(pos_width)

    def locate(self, side: Side, offset: F) -> int:
        """Global position index of the end containing the offset."""
        if offset < 0 or offset >= self.side_length:
            raise InvalidInput(f"offset {offset} outside [0, {self.side_length})")
        idx = bisect_right(self.starts[side], offset) - 1
        return self.positions[side][idx]

    def end_intervals(self, label: str) -> tuple[tuple[Side, F, F], ...]:
        out = []
        for p in self.perm.positions_of(label):
            lo = self.pos_start[p]
            out.append((self.pos_side[p], lo, lo + self.pos_width[p]))
        return tuple(out)

    def apply(self, point: Point) -> Point:
        p = self.locate(point.side, point.offset)
        if self.apply_slope[p] == -1 and point.offset == self.pos_start[p]:
            raise EndpointHit(point)
        return Point(
            self.apply_side[p], self.apply_const[p] + self.apply_slope[p] * point.offset
        )

    def apply_inverse(self, point: Point) -> Point:
        # The inverse swaps sides first, then flows along the band.
        side = point.side.flipped()
        p = self.locate(side, point.offset)
        if self.apply_slope[p] == -1 and point.offset == self.pos_start[p]:
            raise EndpointHit(point)
        return Point(
            self.flow_side[p], self.apply_const[p] + self.apply_slope[p] * point.offset
        )

    def image_of_interval(
        self, side: Side, lo: F, hi: F
    ) -> tuple[list[tuple[Side, F, F]], bool]:
        """Exact image of [lo, hi) under one application, and whether the
        interval had to be split across several ends."""
        pieces: list[tuple[Side, F, F]] = []
        cursor = lo
        split = False
        while cursor < hi:
            p = self.locate(side, cursor)
            seg_hi = min(hi, self.pos_start[p] + self.pos_width[p])
            if seg_hi < hi:
                split = True
            const, slope = self.apply_const[p], self.apply_slope[p]
            if slope == 1:
                pieces.append((self.apply_side[p], const + cursor, const + seg_hi))
            else:
                pieces.append((self.apply_side[p], const - seg_hi, const - cursor))
            cursor = seg_hi
        return pieces, split


class IntegerLayout:
    """Exact integer-scaled copy of an exchange's layout and flow maps.

    Every endpoint is a multiple of 1 / denominator, so interval images
    are plain integer arithmetic with no precision loss.  The Side-keyed
    reference layout of the differential tests, scaled from
    ``FractionLayout`` independently of the library's flat grid map.
    """

    __slots__ = ("denominator", "length", "starts", "pos_of", "out_side", "slope", "const")

    def __init__(self, x: Exchange):
        ref = FractionLayout(x.perm, x.widths)
        denom = 1
        for w in ref.widths.values():
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
        self.denominator = denom
        self.length = int(ref.side_length * denom)
        self.starts: dict[Side, list[int]] = {}
        self.pos_of: dict[Side, list[int]] = {}
        for side in (Side.TOP, Side.BOTTOM):
            self.starts[side] = [int(s * denom) for s in ref.starts[side]]
            self.pos_of[side] = list(ref.positions[side])
        self.out_side = list(ref.apply_side)
        self.slope = list(ref.apply_slope)
        self.const = [int(c * denom) for c in ref.apply_const]


# --- reference first-return oracle ------------------------------------------
#
# A side-keyed integer first-return chase that shares no code with the
# library's flat one: each side is tiled on its own, and a work item
# carries its source and image sides explicitly.  The differential tests
# compare ``linvex.exchange.first_return_on_grid`` against it.


class _GridLayout(NamedTuple):
    """Integer layout of a permutation with integer widths.

    Sides are 0 (top) and 1 (bottom); the end at index ``idx`` of side
    ``s`` is global position ``offset[s] + idx``, and the map sends offset
    t of position p to ``const[p] + slope[p] * t`` on ``out_side[p]``.
    """

    starts: tuple[list[int], list[int]]
    offset: tuple[int, int]
    out_side: list[int]
    slope: list[int]
    const: list[int]
    length: int


def _grid_layout(perm: GeneralizedPermutation, widths: Mapping[str, int]) -> _GridLayout:
    rows = (perm.top, perm.bottom)
    starts: tuple[list[int], list[int]] = ([], [])
    totals = []
    for side, row in enumerate(rows):
        cursor = 0
        side_starts = starts[side]
        for label in row:
            side_starts.append(cursor)
            cursor += widths[label]
        totals.append(cursor)
    if totals[0] != totals[1]:
        raise InconsistentStage("layout does not tile both sides equally")
    n_top = len(perm.top)
    labels = perm.top + perm.bottom
    pos_start = starts[0] + starts[1]
    total = len(labels)
    out_side = [0] * total
    slope = [1] * total
    const = [0] * total
    involution = perm.involution
    for p in range(total):
        q = involution[p]
        q_bottom = q >= n_top
        out_side[p] = 0 if q_bottom else 1
        if (p >= n_top) == q_bottom:
            slope[p] = -1
            const[p] = pos_start[q] + widths[labels[p]] + pos_start[p]
        else:
            const[p] = pos_start[q] - pos_start[p]
    return _GridLayout(starts, (0, n_top), out_side, slope, const, totals[0])


def _split_item(side, slo, shi, cs, clo, chi, slope, steps, at):
    """Split a work item at image ordinate ``at`` in (clo, chi)."""
    if slope == 1:
        mid = slo + (at - clo)
        return [
            (side, slo, mid, cs, clo, at, slope, steps),
            (side, mid, shi, cs, at, chi, slope, steps),
        ]
    mid = slo + (chi - at)
    return [
        (side, slo, mid, cs, at, chi, slope, steps),
        (side, mid, shi, cs, clo, at, slope, steps),
    ]


def _chase(layout: _GridLayout, cut: int, budget: int) -> list[tuple]:
    """Integer first-return chase to the cut; sides are 0 (top) and 1 (bottom).

    Returns pieces (src_side, src_lo, src_hi, out_side, out_lo, out_hi,
    slope, steps) on the layout's grid.
    """
    starts, offset, out_side, slopes, consts, length = layout
    work: deque = deque()
    for side_idx in (0, 1):
        edges = [0]
        edges.extend(s for s in starts[side_idx] if 0 < s < cut)
        edges.append(cut)
        for lo, hi in zip(edges, edges[1:]):
            work.append((side_idx, lo, hi, side_idx, lo, hi, 1, 0))

    done: list[tuple] = []
    while work:
        item = work.popleft()
        side, slo, shi, cs, clo, chi, slope, steps = item
        if steps > 0:
            if chi <= cut:
                done.append(item)
                continue
            if clo < cut:
                work.extend(_split_item(*item, at=cut))
                continue
        if steps >= budget:
            raise BudgetExceeded(
                f"piece [{slo}, {shi}) on side {side} exceeded {budget} steps"
            )
        side_starts = starts[cs]
        idx = bisect_right(side_starts, clo) - 1
        end_hi = side_starts[idx + 1] if idx + 1 < len(side_starts) else length
        if chi > end_hi:
            work.extend(_split_item(*item, at=end_hi))
            continue
        p = offset[cs] + idx
        const, pslope = consts[p], slopes[p]
        if pslope == 1:
            nlo, nhi = const + clo, const + chi
        else:
            nlo, nhi = const - chi, const - clo
        work.append(
            (side, slo, shi, out_side[p], nlo, nhi, slope * pslope, steps + 1)
        )
    return done


def reference_first_return_on_grid(
    perm: GeneralizedPermutation,
    widths: Mapping[str, int],
    cut: int,
    budget: int = LIMITS["chase_steps"],
) -> tuple[GeneralizedPermutation, dict[str, int]]:
    """The induced permutation and integer widths on [0, cut) of each side.

    The integer core of ``Exchange.first_return_map``: widths and cut live
    on one grid, and the induced widths stay on it.  The return pieces are
    checked to tile both sides up to the cut, to be isometries, and to pair
    up under the induced flow as a fixed-point-free involution; a failure
    raises InconsistentStage.  Tiling both sides to the same length also
    gives the induced switch condition, and every piece is nonempty.
    """
    layout = _grid_layout(perm, widths)
    pieces = _chase(layout, cut, budget)
    by_side: dict[int, list[tuple]] = {0: [], 1: []}
    for piece in pieces:
        by_side[piece[0]].append(piece)
    index: dict[tuple[int, int], tuple] = {}
    for side in (0, 1):
        by_side[side].sort(key=lambda r: r[1])
        cursor = 0
        for piece in by_side[side]:
            _, slo, shi, _, olo, ohi, _, _ = piece
            if slo != cursor:
                raise InconsistentStage("return pieces do not tile the domain")
            if ohi - olo != shi - slo:
                raise InconsistentStage("return piece is not an isometry")
            cursor = shi
            index[(side, slo)] = piece
        if cursor != cut:
            raise InconsistentStage("return pieces do not reach the cut")

    # Pair each piece with its partner under the flow part of the induced
    # map (the image with the side flipped back).  The induced map of an
    # exchange is again an exchange, so this pairing must be a
    # fixed-point-free involution on pieces.
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for piece in pieces:
        key = (piece[0], piece[1])
        pkey = (1 - piece[3], piece[4])
        mate = index.get(pkey)
        if mate is None or mate[2] != piece[5]:
            raise InconsistentStage("induced flow does not pair pieces")
        if pkey == key:
            raise InconsistentStage("a piece pairs with itself")
        partner[key] = pkey
    for key, pkey in partner.items():
        if partner.get(pkey) != key:
            raise InconsistentStage("induced flow pairing is not an involution")

    bands: list[tuple[tuple[int, int], tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()
    ordered_keys = [(side, piece[1]) for side in (0, 1) for piece in by_side[side]]
    for key in ordered_keys:
        if key in seen:
            continue
        mate = partner[key]
        seen.add(key)
        seen.add(mate)
        bands.append((key, mate))

    old_ends: dict[tuple[int, int, int], str] = {}
    for side, row in enumerate((perm.top, perm.bottom)):
        for lo, label in zip(layout.starts[side], row):
            old_ends[(side, lo, lo + widths[label])] = label

    claimed: dict[int, str] = {}
    used: dict[str, int] = {}
    inherited = True
    for i, (key, mate) in enumerate(bands):
        labels = set()
        for piece_key in (key, mate):
            piece = index[piece_key]
            found = old_ends.get((piece[0], piece[1], piece[2]))
            if found is not None:
                labels.add(found)
        if len(labels) > 1:
            inherited = False
            break
        if labels:
            label = labels.pop()
            if label in used:
                inherited = False
                break
            used[label] = i
            claimed[i] = label
    if inherited:
        leftover_bands = [i for i in range(len(bands)) if i not in claimed]
        leftover_labels = [a for a in perm.alphabet if a not in used]
        if len(leftover_bands) == len(leftover_labels) == 1:
            claimed[leftover_bands[0]] = leftover_labels[0]
        elif leftover_bands or leftover_labels:
            inherited = False
    if not inherited or len(claimed) != len(bands):
        claimed = {i: f"b{i + 1}" for i in range(len(bands))}

    label_of_key: dict[tuple[int, int], str] = {}
    induced_widths: dict[str, int] = {}
    for i, (key, mate) in enumerate(bands):
        label = claimed[i]
        label_of_key[key] = label
        label_of_key[mate] = label
        piece = index[key]
        induced_widths[label] = piece[2] - piece[1]

    top_row = [label_of_key[(0, piece[1])] for piece in by_side[0]]
    bottom_row = [label_of_key[(1, piece[1])] for piece in by_side[1]]
    return genperm.validate(top_row, bottom_row), induced_widths


# --- the Fraction witness path, as the diagram ran it before integers --------


def _reference_validate_widths(
    perm: GeneralizedPermutation, widths: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Check positivity and the switch condition; returns a sorted copy."""
    if set(widths) != set(perm.alphabet):
        raise InvalidInput(
            f"width labels {sorted(widths)} do not match alphabet {list(perm.alphabet)}"
        )
    cleaned = {label: Fraction(widths[label]) for label in perm.alphabet}
    for label, value in cleaned.items():
        if value <= 0:
            raise NonPositiveWidth(f"width of band {label} is {value}")
    top_sum = sum((cleaned[a] for a in perm.reversing_top), Fraction(0))
    bottom_sum = sum((cleaned[a] for a in perm.reversing_bottom), Fraction(0))
    if top_sum != bottom_sum:
        raise SwitchConditionViolated(
            f"reversing totals differ: top {top_sum} vs bottom {bottom_sum}"
        )
    return cleaned


def reference_direction_witness(
    perm: GeneralizedPermutation, kind: SplitKind
) -> dict[str, Fraction] | None:
    """Integer widths making the given split direction strictly feasible.

    The library's witness before it moved to integers, kept verbatim as
    the differential reference for ``rauzy._witness_grid``.

    Returns None when the switch condition forces the opposite comparison,
    which happens exactly when the would-be winner is a reversing band and
    the loser is alone in the opposite reversing class.
    """
    alpha_top, alpha_bottom = critical_bands(perm)
    if alpha_top == alpha_bottom:
        return None
    if kind is SplitKind.TOP_WINS:
        winner, loser = alpha_top, alpha_bottom
    else:
        winner, loser = alpha_bottom, alpha_top

    top_rev = set(perm.reversing_top)
    bottom_rev = set(perm.reversing_bottom)
    if bool(top_rev) != bool(bottom_rev):
        return None  # no positive widths satisfy the switch at all

    widths: dict[str, Fraction] = {}
    base_top = Fraction(max(len(bottom_rev), 1))
    base_bottom = Fraction(max(len(top_rev), 1))
    for label in perm.alphabet:
        if label in top_rev:
            widths[label] = base_top
        elif label in bottom_rev:
            widths[label] = base_bottom
        else:
            widths[label] = Fraction(1)

    if widths[winner] <= widths[loser]:
        bump = widths[loser] - widths[winner] + 1
        if perm.orientation_of(winner) is Orientation.PRESERVING:
            widths[winner] += bump
        elif winner in top_rev:
            partners = sorted(bottom_rev - {loser})
            if not partners:
                return None
            widths[winner] += bump
            widths[partners[0]] += bump
        else:
            partners = sorted(top_rev - {loser})
            if not partners:
                return None
            widths[winner] += bump
            widths[partners[0]] += bump
    return widths


def reference_node_edges(perm: GeneralizedPermutation) -> tuple[diagram.Edge, ...]:
    """Feasible out-edges of a node, in direction-tag order (bottom, top).

    The library's Fraction path before the integer witness, kept verbatim
    (with the reference witness and width check) as the differential
    reference for ``diagram.node_edges``.
    """
    out = []
    for kind in sorted(rauzy.SplitKind, key=lambda k: k.value):
        witness = reference_direction_witness(perm, kind)
        if witness is None:
            continue
        witness = _reference_validate_widths(perm, witness)
        grid = to_grid(witness, common_denominator(witness.values()))
        target, _, step = rauzy._step(perm, grid)
        if step.kind is not kind:
            raise InconsistentStage(f"the {kind.value} witness of {perm} split the other way")
        out.append(
            diagram.Edge(
                source=perm,
                kind=kind,
                winner=step.winner,
                loser=step.loser,
                target=target,
                witness=tuple(sorted(witness.items())),
            )
        )
    return tuple(out)


def reference_strongly_connected_components(
    graph: diagram.RauzyGraph,
) -> list[frozenset[GeneralizedPermutation]]:
    """Tarjan's algorithm, iterative to keep deep diagrams off the C stack.

    The library's SCC before it moved to integer node ids, kept verbatim
    (dicts and sets keyed by the permutations) as the differential
    reference for ``diagram.strongly_connected_components``.
    """
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


def reference_attractors(graph: diagram.RauzyGraph) -> list[frozenset[GeneralizedPermutation]]:
    """The reference components with no edge leaving them, tested by
    membership of each edge target, as the library did before node ids."""
    return [
        component
        for component in reference_strongly_connected_components(graph)
        if all(edge.target in component for node in component for edge in graph.edges[node])
    ]


def reference_validate(top: tuple[str, ...], bottom: tuple[str, ...]) -> GeneralizedPermutation:
    """The record of two rows, built by rescanning the ends per label.

    The library's ``genperm._validate_cached`` before the one-pass record,
    kept verbatim (without its cache) as the differential reference.
    """
    if not top or not bottom:
        raise SideEmptyError("each side needs at least one interval end")

    counts: dict[str, int] = {}
    for label in top + bottom:
        counts[label] = counts.get(label, 0) + 1
    bad = {label: n for label, n in counts.items() if n != 2}
    if bad:
        raise LabelCountError(f"labels must occur exactly twice, got {bad}")

    alphabet = tuple(sorted(counts))
    total = len(top) + len(bottom)

    seen: dict[str, int] = {}
    involution = [-1] * total
    for i in range(total):
        label = top[i] if i < len(top) else bottom[i - len(top)]
        if label in seen:
            j = seen.pop(label)
            involution[i] = j
            involution[j] = i
        else:
            seen[label] = i

    classes: dict[str, Orientation] = {}
    for label in alphabet:
        ends = [
            i
            for i in range(total)
            if (top[i] if i < len(top) else bottom[i - len(top)]) == label
        ]
        on_top = sum(1 for i in ends if i < len(top))
        if on_top == 2:
            classes[label] = Orientation.REVERSING_TOP
        elif on_top == 0:
            classes[label] = Orientation.REVERSING_BOTTOM
        else:
            classes[label] = Orientation.PRESERVING

    def members(orientation: Orientation) -> tuple[str, ...]:
        return tuple(a for a in alphabet if classes[a] is orientation)

    return GeneralizedPermutation(
        top=top,
        bottom=bottom,
        alphabet=alphabet,
        involution=tuple(involution),
        classes=classes,
        preserving=members(Orientation.PRESERVING),
        reversing_top=members(Orientation.REVERSING_TOP),
        reversing_bottom=members(Orientation.REVERSING_BOTTOM),
        _hash=hash((top, bottom)),
    )


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _pairings(positions: list[int]) -> Iterator[list[tuple[int, int]]]:
    if not positions:
        yield []
        return
    first = positions[0]
    for k in range(1, len(positions)):
        partner = positions[k]
        rest = positions[1:k] + positions[k + 1 :]
        for sub in _pairings(rest):
            yield [(first, partner)] + sub


def reference_enumerate(
    d: int,
    *,
    realizable_only: bool = True,
    non_classical_only: bool = False,
) -> Iterator[GeneralizedPermutation]:
    """Canonical permutations on d bands, labelled pairing by pairing.

    The library's ``genperm.enumerate_permutations`` before the one
    generator over canonical words, kept verbatim (on the reference
    record) as the differential reference for its sequence.
    """
    if d > len(_LETTERS):
        raise ValueError("enumeration supports at most 26 bands")
    total = 2 * d
    for l in range(1, total):
        for pairing in _pairings(list(range(total))):
            assignment = [""] * total
            next_label = 0
            for i in range(total):
                if assignment[i]:
                    continue
                label = _LETTERS[next_label]
                next_label += 1
                for a, b in pairing:
                    if a == i or b == i:
                        assignment[a] = assignment[b] = label
                        break
            perm = reference_validate(tuple(assignment[:l]), tuple(assignment[l:]))
            if realizable_only and not perm.is_realizable():
                continue
            if non_classical_only and not perm.is_non_classical:
                continue
            yield perm


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
