"""Value records: every frozen dataclass is slotted, and every copy keeps
equality and hash, across interpreters with different hash seeds too.
Records the library builds without their ``__init__``, or shares, equal
their keyword-built twins."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from linvex import approx, diagram, exchange, genperm, lab, modp, rauzy
from linvex.exchange import Point, Side

PERM = genperm.validate(["A", "A", "B"], ["B", "C", "C"])
STATE = modp.RemainderState(prime=3, node=PERM, remainders=(("A", 1), ("B", 2), ("C", 1)))


def _samples() -> dict[type, object]:
    """One instance of each frozen dataclass of the library."""
    x = exchange.build(PERM, {"A": F(1, 5), "B": F(2, 5), "C": F(1, 5)})
    tower = approx.CyclicTower(
        band="B", depth=0, height=1, base=((Side.TOP, F(0), F(1, 5)),), delta=F(1, 2), xi=F(1, 3)
    )
    records = [
        PERM,
        diagram.node_edges(PERM)[0],
        rauzy.SplitStep(rauzy.SplitKind.TOP_WINS, "B", "C", PERM.alphabet),
        STATE,
        modp.CoprimeOP(band="B", remainder=2),
        modp.ReversingPair(top_band="A", bottom_band="C", top_remainder=1, bottom_remainder=2),
        modp.ClaimViolation(state=STATE),
        modp.StructuralObstruction(reason="no preserving band"),
        tower,
        approx.verify_tower(x, tower),
        approx.RigidityRecord(n=1, defect=F(1, 5), flagged=False),
        x.orbit(Point(Side.TOP, F(1, 10)), 3),
        lab.SamplerConfig(perm=PERM, seed=7),
    ]
    return {type(record): record for record in records}


def _frozen_dataclasses() -> list[type]:
    modules = (approx, diagram, exchange, genperm, lab, modp, rauzy)
    return [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
    ]


def test_every_frozen_dataclass_has_a_sample():
    assert sorted(c.__qualname__ for c in _frozen_dataclasses()) == sorted(
        c.__qualname__ for c in _samples()
    )


def _assert_copies_keep(record: object) -> None:
    assert not hasattr(record, "__dict__")  # slotted: no per-instance dict
    for other in (
        dataclasses.replace(record),
        copy.copy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(other) is type(record)
        assert other == record
        assert hash(other) == hash(record)


@pytest.mark.parametrize("cls", _frozen_dataclasses(), ids=lambda cls: cls.__qualname__)
def test_copies_keep_equality_and_hash(cls):
    record = _samples()[cls]
    assert type(record) is cls
    _assert_copies_keep(record)


_EDGE = diagram.node_edges(PERM)[0]
# Records the library builds without the dataclass __init__ (states) or
# hands out as shared instances (statuses), each with its keyword-built twin.
_LIBRARY_BUILT = {
    "propagate": (
        lambda: modp.propagate(
            modp.initial_state(PERM, 3), _EDGE.winner, _EDGE.loser, _EDGE.target
        ),
        modp.RemainderState(
            prime=3,
            node=_EDGE.target,
            remainders=tuple((b, 2 if b == _EDGE.loser else 1) for b in PERM.alphabet),
        ),
    ),
    "initial_state": (
        lambda: modp.initial_state(PERM, 5),
        modp.RemainderState(prime=5, node=PERM, remainders=(("A", 1), ("B", 1), ("C", 1))),
    ),
    "coprime_op": (
        lambda: modp.check_claim_invariant(modp.initial_state(PERM, 3)),
        modp.CoprimeOP(band="B", remainder=1),
    ),
    "reversing_pair": (
        lambda: modp.check_claim_invariant(
            modp.initial_state(genperm.validate(["A", "A"], ["B", "B", "C", "C"]), 3)
        ),
        modp.ReversingPair(top_band="A", bottom_band="B", top_remainder=1, bottom_remainder=1),
    ),
}


@pytest.mark.parametrize("name", list(_LIBRARY_BUILT))
def test_library_built_records_equal_keyword_built_ones(name):
    make, keyword_built = _LIBRARY_BUILT[name]
    record = make()
    assert type(record) is type(keyword_built)
    assert record == keyword_built and hash(record) == hash(keyword_built)
    assert make() == record  # a second call, shared instance or not
    _assert_copies_keep(record)
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(keyword_built, field.name))


_PICKLE_UNDER_ANOTHER_SEED = """
import pickle, sys
from linvex import diagram, genperm
perm = genperm.validate(["A", "A", "B"], ["B", "C", "C"])
sys.stdout.write(pickle.dumps([perm, diagram.node_edges(perm)]).hex())
"""


def test_a_pickle_loads_with_the_loading_interpreters_hash():
    # a permutation stores its hash; one pickled under another hash seed
    # must still find its own key in this interpreter's sets and dicts
    src = Path(genperm.__file__).resolve().parent.parent
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    done = subprocess.run(
        [sys.executable, "-c", _PICKLE_UNDER_ANOTHER_SEED],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    perm, edges = pickle.loads(bytes.fromhex(done.stdout))
    assert perm == PERM and hash(perm) == hash(PERM)
    assert perm in {PERM} and PERM in {perm}
    assert edges == diagram.node_edges(PERM)
    graph = diagram.forward_closure(PERM)
    assert graph.edges[perm] == edges
    assert {edge.target for edge in edges} <= set(graph.nodes)
