"""Every loop with a limit raises BudgetExceeded just past it, and only there.

Each row gives a run that takes its limit and the count that run needs,
predicted from the mathematics or read off an unlimited run; the run
passes at that count and raises BudgetExceeded one below it.  Each row
names its entry of ``errors.LIMITS``: the run sets that entry, or passes
it as the argument of a budget parameter.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from linvex import approx, diagram, lab, modp, rauzy
from linvex.errors import LIMITS, BudgetExceeded, InvalidInput, InvariantViolation
from linvex.exchange import Exchange, Point, Side, first_return_on_grid
from linvex.genperm import validate

from test_approx import _composed_totals, _reference_work

_ROTATION = validate(["A", "B"], ["B", "A"])
# A A B | B C C: a non-classical start whose forward closure has 12 nodes.
_AAB = validate(["A", "A", "B"], ["B", "C", "C"])
_X = Exchange(
    _AAB, {"A": F(330696682521, 2**40), "B": F(438118262734, 2**40), "C": F(330696682521, 2**40)}
)
# On this 8-point grid many short orbits hit an endpoint, so starts are redrawn.
_SMALL = Exchange(_AAB, {"A": F(3, 16), "B": F(5, 16), "C": F(3, 16)})
_TOWER = approx.find_cyclic_tower(_X, F(2, 5))


class _Draws:
    """An rng stand-in whose ``randrange`` returns scripted values."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, start, stop):
        return next(self._values)


def _closure_nodes(monkeypatch):
    return (lambda limit: diagram.forward_closure(_AAB, limit)), 12


def _chase_steps(monkeypatch):
    # Widths 3 and 1 cut at 1: by Kac's lemma the two returning pieces of
    # length 1 take 8 / 2 = 4 steps on average, and here each takes 4.
    def run(limit):
        monkeypatch.setitem(LIMITS, "chase_steps", limit)
        return first_return_on_grid(_ROTATION, {"A": 3, "B": 1}, 1)

    return run, 4


def _verify_steps(monkeypatch):
    # The replay's interval steps: the pieces of levels 1 .. height - 1.
    def run(limit):
        monkeypatch.setitem(LIMITS, "verify_steps", limit)
        return approx.verify_tower(_X, _TOWER)

    return run, _reference_work(_X, _TOWER)


def _probe_steps(monkeypatch):
    # A probe in band b's induced end returns after b's column norm.
    stage = rauzy.expand(_X, 6)

    def run(limit):
        monkeypatch.setitem(LIMITS, "probe_steps", limit)
        return rauzy.visit_counts(_X, stage)

    return run, max(stage.matrix.column_norms().values())


def _mod_p_states(monkeypatch):
    # With every remainder 0 no band ever turns coprime, so the search takes
    # one state per closure node and then finds itself exhausted.
    state = modp.RemainderState(prime=3, node=_AAB, remainders=(("A", 0), ("B", 0), ("C", 0)))

    def run(limit):
        monkeypatch.setitem(LIMITS, "mod_p_states", limit)
        with pytest.raises(InvariantViolation, match="falsifies the constructive"):
            modp.coprime_band_sequence(_AAB, state)

    return run, 12


def _search_depth(monkeypatch):
    # The first tower the search certifies sits at its depth.
    return (lambda limit: approx.find_cyclic_tower(_X, F(2, 5), limit)), _TOWER.depth


def _composed_pieces(monkeypatch):
    def run(limit):
        monkeypatch.setitem(LIMITS, "composed_pieces", limit)
        return approx.rigidity_profile(_X, 9)

    return run, _composed_totals(_X, 9)[-1]


def _sampler_retries(monkeypatch):
    # Cuts 0 and 2 of [0, 1] on a 1/2 grid leave an empty gap; cut 1 does not.
    def run(limit):
        monkeypatch.setitem(LIMITS, "draws", limit)
        return lab._gaps(_Draws([0, 2, 1]), 2, 2)

    return run, 3


def _product_attempts(monkeypatch):
    def run(limit):
        monkeypatch.setitem(LIMITS, "draws", limit)
        return lab.product_experiment(_SMALL, _SMALL, 2, 3, seed=3)

    return run, run(LIMITS["draws"]).records[0]["attempts"]


def _orbit_restarts(monkeypatch):
    # The limit counts orbit starts, as it counts draws in the two rows above:
    # a run takes its restarts plus one.
    def run(limit):
        monkeypatch.setitem(LIMITS, "draws", limit)
        return lab._occupancy_run(_SMALL, lab.substream(3, "birkhoff"), 3, 1, 2)

    return run, run(LIMITS["draws"])[1] + 1


# Each row: its entry of ``LIMITS`` and the run that takes it.
ROWS = {
    "closure-nodes": ("closure_nodes", _closure_nodes),
    "chase-steps": ("chase_steps", _chase_steps),
    "verify-steps": ("verify_steps", _verify_steps),
    "probe-steps": ("probe_steps", _probe_steps),
    "mod-p-states": ("mod_p_states", _mod_p_states),
    "search-depth": ("tower_splits", _search_depth),
    "composed-pieces": ("composed_pieces", _composed_pieces),
    "sampler-retries": ("draws", _sampler_retries),
    "product-attempts": ("draws", _product_attempts),
    "orbit-restarts": ("draws", _orbit_restarts),
}


@pytest.mark.parametrize("row", [row for _, row in ROWS.values()], ids=ROWS)
def test_each_limit_raises_just_past_its_count(monkeypatch, row):
    run, count = row(monkeypatch)
    assert count > 1
    run(count)
    with pytest.raises(BudgetExceeded):
        run(count - 1)


def test_every_limit_has_a_row():
    # A rigidity scan records its searches' BudgetExceeded as rows rather
    # than raising, so ``scan_splits`` is checked where the scan passes it on.
    assert {entry for entry, _ in ROWS.values()} == LIMITS.keys() - {"scan_splits"}


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: diagram.forward_closure(_AAB, v), "budget"),
        (lambda v: _X.orbit(Point(Side.TOP, F(1, 3)), v), "orbit length"),
    ],
    ids=["closure", "orbit"],
)
@pytest.mark.parametrize("value", [-1, 2.5, True, "3"])
def test_budgets_and_lengths_are_nonnegative_ints(call, what, value):
    with pytest.raises(InvalidInput) as err:
        call(value)
    assert str(err.value) == f"{what} must be a nonnegative int, got {value!r}"
