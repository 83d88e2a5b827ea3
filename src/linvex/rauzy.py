"""Rauzy induction as an exact combinatorial-arithmetic step.

One induction step compares the widths of the two critical bands (the
rightmost on each side).  The wider band (the winner) keeps its critical
position and loses the narrower band's width; the narrower band (the
loser) moves by the Boissy-Lanneau insertion rule, in O(d).  Steps with
one winner form a run (Zorich's acceleration), itself a first return to
the side length minus its losers' widths.  Every run, not a sample, is
checked by one chase of the exchange module, against the map at its end
and against its cocycle's columns as visit counts; a disagreement raises
InconsistentStage.  A single step is a run of length one.

Widths live on one integer grid: widths only ever subtract, so the common
denominator of the starting widths never changes along an expansion, and
every step (insertion, chase, audit) runs on the integer numerators and
the flat integer map, which each run hands to the next.  An
``Exchange`` is materialized only at the API boundary: the public
``split`` converts in and out, and stages, towers and diagram edges
convert back to fractions only for the values they emit.

A stage is a finite splitting sequence with its accumulated integer
matrix, the product of the elementary step factors.  The product is
maintained by column operations: at each step the winner's column adds to
the loser's column.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .errors import (
    EndpointHit,
    InconsistentStage,
    InvalidInput,
    NotReturning,
    SplitUndefined,
    SplitUndefinedSameBand,
    SplitUndefinedTie,
)
from . import exchange, genperm
from .exchange import DEFAULT_RETURN_BUDGET, Exchange, Point, _grid_layout
from .genperm import GeneralizedPermutation, Orientation, critical_bands
from .rationals import to_grid


class Matrix:
    """A square integer matrix indexed by a fixed tuple of band labels."""

    __slots__ = ("labels", "rows", "_index")

    def __init__(self, labels: Sequence[str], rows: list[list[int]]):
        self.labels = tuple(labels)
        self.rows = rows
        self._index = {label: i for i, label in enumerate(self.labels)}

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "Matrix":
        n = len(labels)
        return cls(labels, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, row_label: str, col_label: str) -> int:
        return self.rows[self._index[row_label]][self._index[col_label]]

    def column(self, label: str) -> list[int]:
        j = self._index[label]
        return [row[j] for row in self.rows]

    def column_norm(self, label: str) -> int:
        return sum(self.column(label))

    def column_norms(self) -> dict[str, int]:
        return {label: self.column_norm(label) for label in self.labels}

    def add_column(self, source: str, target: str) -> None:
        """target column += source column (right multiplication by E)."""
        i, j = self._index[source], self._index[target]
        for row in self.rows:
            row[j] += row[i]

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.rows for v in row)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.labels != other.labels:
            raise InvalidInput("matrix label sets differ")
        n = len(self.labels)
        rows = [
            [sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return Matrix(self.labels, rows)

    def apply_to_widths(self, widths: Mapping[str, Fraction]) -> dict[str, Fraction]:
        return {
            row_label: sum(
                (self.entry(row_label, col) * widths[col] for col in self.labels),
                Fraction(0),
            )
            for row_label in self.labels
        }

    def determinant(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        n = len(self.labels)
        m = [row[:] for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for r in range(k + 1, n):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def column_norm_gcd(self) -> int:
        return math.gcd(*(self.column_norm(a) for a in self.labels))

    def to_json_rows(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.labels == other.labels and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Matrix({self.labels}, {self.rows})"


class SplitKind(Enum):
    TOP_WINS = "top"
    BOTTOM_WINS = "bottom"


@dataclass(frozen=True)
class SplitStep:
    """One induction step: which side won, over which sorted band labels."""

    kind: SplitKind
    winner: str
    loser: str
    labels: tuple[str, ...] = field(compare=False, repr=False)

    @property
    def matrix(self) -> Matrix:
        """The elementary factor, built on access."""
        return elementary_matrix(self.labels, self.winner, self.loser)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "winner": self.winner, "loser": self.loser}


# Steps are immutable and few per alphabet, so each is built once.
_split_step = lru_cache(maxsize=4096)(SplitStep)


def elementary_matrix(labels: Sequence[str], winner: str, loser: str) -> Matrix:
    m = Matrix.identity(labels)
    m.rows[m._index[winner]][m._index[loser]] = 1
    return m


@dataclass
class Stage:
    """A finite splitting sequence with its accumulated cocycle matrix."""

    nodes: list[GeneralizedPermutation]
    steps: list[SplitStep]
    matrix: Matrix
    halted: SplitUndefined | None = None

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def start(self) -> GeneralizedPermutation:
        return self.nodes[0]

    @property
    def end(self) -> GeneralizedPermutation:
        return self.nodes[-1]

    def to_json_dict(self) -> dict:
        return {
            "nodes": [node.to_json_dict() for node in self.nodes],
            "steps": [step.to_json_dict() for step in self.steps],
            "matrix": {
                "labels": list(self.matrix.labels),
                "rows": self.matrix.to_json_rows(),
            },
            "halted": None if self.halted is None else type(self.halted).__name__,
        }


def _insert(perm: GeneralizedPermutation, top_wins: bool) -> GeneralizedPermutation:
    """The target node of a step, by the Boissy-Lanneau insertion rule.

    The loser leaves the end of its row.  It goes right after the winner's
    other end when that end is on the loser's row, else just left of it on
    the winner's row.
    """
    top, bottom = list(perm.top), list(perm.bottom)
    win_row, lose_row = (top, bottom) if top_wins else (bottom, top)
    winner = win_row[-1]
    loser = lose_row.pop()
    if winner in lose_row:
        lose_row.insert(lose_row.index(winner) + 1, loser)
    else:
        win_row.insert(win_row.index(winner), loser)
    return genperm._validate_cached(tuple(top), tuple(bottom))


def _step(
    perm: GeneralizedPermutation, widths: Mapping[str, int]
) -> tuple[GeneralizedPermutation, dict[str, int], SplitStep]:
    """One induction step on integer widths; returns (node, widths, step).

    The widths are numerators on one grid and the induced widths stay on
    it.  The step is a run of one step (see ``_run``), whose chase returns
    one piece per induced end: positivity and the switch condition hold.
    """
    return _run(perm, widths, _grid_layout(perm, widths), 1)[0][0]


def _run(
    perm: GeneralizedPermutation, widths: Mapping[str, int], flat: tuple, cap: int
) -> tuple[list[tuple[GeneralizedPermutation, dict[str, int], SplitStep]], tuple]:
    """Up to ``cap`` steps with one winner from (perm, widths), whose flat
    map is ``flat``: the (node, widths, step) items and the end's map.

    Each step is the critical comparison, ``_insert`` for the loser and
    the winner losing the loser's width, so ``old = E @ new`` holds by
    construction; the run stops before another winner or an undefined
    step (raised if first).  The run is the first return of ``flat`` to
    ``L - dropped``, so one audit covers it, raising InconsistentStage:
    - the chase must equal the end's map position by position, in the
      start coordinates, where the end's bottom side sits ``dropped`` up;
    - each band's pieces must visit the old bands as its column of the
      run's cocycle says: its own once, the winner once per loss.  No two
      columns are equal, so a swap of equal-width labels is caught.
    """
    alphabet = perm.alphabet
    run: list[tuple[GeneralizedPermutation, dict[str, int], SplitStep]] = []
    losses: dict[str, int] = {}
    node, winner = perm, None
    while len(run) < cap:
        alpha_top, alpha_bottom = critical_bands(node)
        w_top, w_bottom = widths[alpha_top], widths[alpha_bottom]
        if alpha_top == alpha_bottom or w_top == w_bottom:
            if run:
                break
            if alpha_top == alpha_bottom:
                raise SplitUndefinedSameBand(f"band {alpha_top} occupies both critical positions")
            raise SplitUndefinedTie(f"critical bands {alpha_top} and {alpha_bottom} tie in width")
        top_wins = w_top > w_bottom
        win, loser = (alpha_top, alpha_bottom) if top_wins else (alpha_bottom, alpha_top)
        if winner is None:
            winner, kind = win, SplitKind.TOP_WINS if top_wins else SplitKind.BOTTOM_WINS
        elif win != winner:
            break
        node = _insert(node, top_wins)
        if node.alphabet != alphabet:
            raise InconsistentStage(f"the step changed the alphabet to {node.alphabet}")
        widths = dict(widths)
        widths[winner] -= widths[loser]
        losses[loser] = losses.get(loser, 0) + 1
        run.append((node, widths, _split_step(kind, winner, loser, alphabet)))

    # The end map in the start coordinates: a preserving end f -> c + f
    # stays on its side, so c is unchanged; a reversing end f -> c - f
    # swaps sides, so c grows by ``dropped``.
    end_flat = _grid_layout(node, widths)
    cut, new_bounds, new_slopes, new_shifts = end_flat
    length, bounds, slopes, shifts = flat
    dropped = length - cut
    pieces = exchange._chase(flat, cut, DEFAULT_RETURN_BUDGET)
    if len(pieces) != len(new_slopes):
        raise InconsistentStage(f"the step from {perm} disagrees with the return chase")
    pieces.sort()
    n_top = len(node.top)
    old_labels = perm.top + perm.bottom
    moved = False
    for p, label in enumerate(node.top + node.bottom):
        lo, hi, slope, const = new_bounds[p], new_bounds[p + 1], new_slopes[p], new_shifts[p]
        if p >= n_top:
            lo += dropped
            hi += dropped
        if slope == -1:
            const += dropped
        if pieces[p] != (lo, hi, slope, const):
            raise InconsistentStage(f"the step from {perm} disagrees with the return chase")
        if node.involution[p] < p:
            continue  # the partner end's itinerary is this one's, reversed
        m = losses.get(label)
        if m is None:  # column e_label: one step, the old map on its own old end
            q = bisect_right(bounds, lo) - 1
            one_step = (old_labels[q], slopes[q], shifts[q]) == (label, slope, const)
            moved = moved or not one_step or hi > bounds[q + 1]
        else:  # column e_label + m e_winner: follow it to its return
            visits = []
            for _ in range(m + 1):
                q = bisect_right(bounds, lo) - 1
                visits.append(old_labels[q] if hi <= bounds[q + 1] else None)
                if slopes[q] == 1:
                    lo, hi = shifts[q] + lo, shifts[q] + hi
                else:
                    lo, hi = shifts[q] - hi, shifts[q] - lo
                if hi <= (length if lo >= length else 0) + cut:
                    break
            else:
                moved = True  # no return within m + 1 steps
            moved = moved or visits.count(label) != 1 or visits.count(winner) != m
    if moved:
        raise InconsistentStage(f"the step from {perm} moved a band off its old ends")
    return run, end_flat


def split(x: Exchange) -> tuple[Exchange, SplitStep]:
    """One induction step, checked against the return chase.

    Raises the undefined-case errors when the critical bands coincide or
    tie.  It is a run of one step on the flat map of ``x`` (see ``_run``).
    """
    denom = x._flat[0]
    induced, widths, step = _run(x.perm, to_grid(x.widths, denom), x._flat[1:], 1)[0][0]
    return Exchange(induced, {a: Fraction(v, denom) for a, v in widths.items()}), step


def _walk(x: Exchange, n: int) -> Iterator[tuple]:
    """The stages of ``x``'s expansion at depths 0 .. n as (node, widths,
    norms, step), with ``step`` None at depth 0; ``n`` must be a
    nonnegative int (not a bool), else InvalidInput.

    Widths are numerators on the grid of ``x``'s common denominator.
    Norms are the cocycle's column norms, the bands' return times: a step
    adds the winner's norm to the loser's.  Every stage has fresh dicts,
    so a consumer may keep them.  No run (see ``_run``) goes past depth n,
    each is audited before its steps are yielded, and an undefined split
    raises at its own step.  The first step goes through the public
    ``split`` because the bench's tracer sees expansions only through its
    ``rauzy.split`` span, and ``bench/test_bench.py`` checks that span is hit.
    """
    if type(n) is not int or n < 0:
        raise InvalidInput(f"expansion depth must be a nonnegative int, got {n!r}")
    denom = x._flat[0]
    node, widths = x.perm, to_grid(x.widths, denom)
    norms = dict.fromkeys(node.alphabet, 1)
    yield node, widths, norms, None
    if n:
        induced, step = split(x)
        node, widths = induced.perm, to_grid(induced.widths, denom)
        run, flat = [(node, widths, step)], _grid_layout(node, widths)
    while n:
        for node, widths, step in run:
            norms = dict(norms)
            norms[step.loser] += norms[step.winner]
            yield node, widths, norms, step
        n -= len(run)
        if n:
            # a run's chase takes one round more than the losses of one loser
            run, flat = _run(node, widths, flat, min(n, DEFAULT_RETURN_BUDGET - 1))


def expand(x: Exchange, n: int) -> Stage:
    """The first n steps of ``_walk`` as a stage: nodes, steps and matrix.

    An undefined split ends the stage early; the cause is attached rather
    than raised because halting is data for rational widths.
    """
    labels = sorted(x.perm.alphabet)
    stage = Stage(nodes=[x.perm], steps=[], matrix=Matrix.identity(labels))
    try:
        for depth, (node, _, _, step) in enumerate(_walk(x, n)):
            if depth:
                stage.steps.append(step)
                stage.nodes.append(node)
                stage.matrix.add_column(step.winner, step.loser)
    except SplitUndefined as err:
        stage.halted = err
    return stage


def widths_at(stage: Stage, x: Exchange) -> dict[str, Fraction]:
    """Induced widths after the stage, by factor-wise back-substitution.

    Each elementary factor inverts to ``winner -= loser``; no matrix
    inversion is ever performed and the common denominator never grows.
    """
    if stage.nodes[0] != x.perm:
        raise InconsistentStage("stage does not start at this exchange")
    values = dict(x.widths)
    for step in stage.steps:
        values[step.winner] -= values[step.loser]
        if values[step.winner] <= 0:
            raise InconsistentStage(
                f"back-substitution made band {step.winner} nonpositive"
            )
    return values


def induced_exchange(stage: Stage, x: Exchange) -> Exchange:
    return Exchange(stage.end, widths_at(stage, x))


_PROBE_FRACTIONS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(3, 7),
    Fraction(5, 11),
    Fraction(4, 13),
)
# Original-map steps a probe takes before NotReturning.
PROBE_BUDGET = 10**7


def _reached(x: Exchange, n: int | Stage) -> Stage:
    """The stage ``n`` of x, or x expanded to depth n; raises a halt."""
    stage = n if isinstance(n, Stage) else expand(x, n)
    if stage.halted is not None:
        raise stage.halted
    return stage


def _probe_visits(x: Exchange, induced: Exchange, band: str) -> dict[str, int]:
    """Original-band visits of one return orbit from the induced end of ``band``.

    A probe point inside the band's first end in the induced exchange is
    iterated under the original map until it returns to the truncated
    domain, counting how many times it lands in each original band (the
    start point included, the return point excluded), so the visits sum
    to the return time.  Probe points sit at interior fractions of the end
    and are re-sampled on an endpoint hit.
    """
    cut = induced.side_length
    labels = x.perm.top + x.perm.bottom
    side, lo, hi = induced.end_intervals(band)[0]
    for probe in _PROBE_FRACTIONS:
        point = Point(side, lo + (hi - lo) * probe)
        counts = dict.fromkeys(x.perm.alphabet, 0)
        try:
            for _ in range(PROBE_BUDGET):
                counts[labels[x.locate(point.side, point.offset)]] += 1
                point = x.apply(point)
                if point.offset < cut:
                    return counts
        except EndpointHit:
            continue
        raise NotReturning(f"probe for band {band} did not return in {PROBE_BUDGET} steps")
    raise EndpointHit(None, f"all probe points for band {band} hit endpoints")


def visit_counts(x: Exchange, n: int | Stage) -> Matrix:
    """Count band visits of depth-n return orbits, one probe per band.

    ``n`` is a depth, or a stage of x already expanded to it (so a caller
    holding the stage does not expand twice).  Column ``a`` holds the
    visits of the return orbit of a probe inside band a's end at depth n.
    """
    induced = induced_exchange(_reached(x, n), x)
    labels = sorted(x.perm.alphabet)
    columns = {band: _probe_visits(x, induced, band) for band in labels}
    return Matrix(labels, [[columns[band][row] for band in labels] for row in labels])


def return_time(x: Exchange, n: int | Stage, band: str) -> int:
    """First-return time of the depth-n end of ``band``, by direct orbit."""
    induced = induced_exchange(_reached(x, n), x)
    return sum(_probe_visits(x, induced, band).values())


def _witness_grid(perm: GeneralizedPermutation, kind: SplitKind) -> dict[str, int] | None:
    """Integer widths making the given split direction strictly feasible.

    The widths are positive and satisfy the switch condition, on the grid
    of denominator 1.  Returns None when the switch condition forces the
    opposite comparison, which happens exactly when the would-be winner
    is a reversing band and the loser is alone in the opposite reversing
    class.
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

    widths: dict[str, int] = {}
    base_top = max(len(bottom_rev), 1)
    base_bottom = max(len(top_rev), 1)
    for label in perm.alphabet:
        if label in top_rev:
            widths[label] = base_top
        elif label in bottom_rev:
            widths[label] = base_bottom
        else:
            widths[label] = 1

    if widths[winner] <= widths[loser]:
        bump = widths[loser] - widths[winner] + 1
        if perm.orientation_of(winner) is not Orientation.PRESERVING:
            partners = sorted((bottom_rev if winner in top_rev else top_rev) - {loser})
            if not partners:
                return None
            widths[partners[0]] += bump
        widths[winner] += bump
    return widths


def direction_witness(
    perm: GeneralizedPermutation, kind: SplitKind
) -> dict[str, Fraction] | None:
    """The witness of ``_witness_grid`` as Fractions, or None."""
    widths = _witness_grid(perm, kind)
    return None if widths is None else {a: Fraction(v) for a, v in widths.items()}
