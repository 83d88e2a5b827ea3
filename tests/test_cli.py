"""End-to-end command-line flows and exit codes."""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from linvex import approx, cli, diagram, modp, rauzy
from linvex.errors import LIMITS, InconsistentStage
from linvex.rationals import canonical_json_bytes


@pytest.fixture()
def rotation_files(tmp_path):
    perm = tmp_path / "perm.json"
    widths = tmp_path / "widths.json"
    perm.write_bytes(canonical_json_bytes({"top": ["A", "B"], "bottom": ["B", "A"]}))
    widths.write_bytes(canonical_json_bytes({"A": "3/7", "B": "1/7"}))
    return str(perm), str(widths)


@pytest.fixture()
def nonclassical_files(tmp_path):
    perm = tmp_path / "ncperm.json"
    widths = tmp_path / "ncwidths.json"
    perm.write_bytes(
        canonical_json_bytes({"top": ["A", "A", "B"], "bottom": ["B", "C", "C"]})
    )
    widths.write_bytes(
        canonical_json_bytes(
            {
                "A": "330696682521/1099511627776",
                "B": "438118262734/1099511627776",
                "C": "330696682521/1099511627776",
            }
        )
    )
    return str(perm), str(widths)


def _write_exchange(tmp_path, top, bottom, widths) -> list[str]:
    """``--perm`` and ``--widths`` arguments for files holding an exchange."""
    perm, widths_path = tmp_path / "perm.json", tmp_path / "widths.json"
    perm.write_bytes(canonical_json_bytes({"top": top, "bottom": bottom}))
    widths_path.write_bytes(canonical_json_bytes(widths))
    return ["--perm", str(perm), "--widths", str(widths_path)]


@pytest.fixture()
def tie_files(tmp_path):
    # A A B | B C C with widths 1/5, 2/5, 1/5: the orbit of top 0 hits an
    # endpoint at once, and B and C tie after one split
    widths = {"A": "1/5", "B": "2/5", "C": "1/5"}
    return _write_exchange(tmp_path, ["A", "A", "B"], ["B", "C", "C"], widths)


def test_validate_command(rotation_files, capsys):
    perm, _ = rotation_files
    assert cli.main(["validate", "--perm", perm]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classical"] is True
    assert payload["critical"] == ["B", "A"]


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(canonical_json_bytes({"top": ["A", "B"], "bottom": ["A", "A"]}))
    assert cli.main(["validate", "--perm", str(bad)]) == 1


def test_apply_command(rotation_files, capsys):
    perm, widths = rotation_files
    code = cli.main(
        ["apply", "--perm", perm, "--widths", widths, "--side", "top", "--offset", "0/1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"side": "Top", "offset": "1/7"}


def test_orbit_jsonl(rotation_files, tmp_path, capsys):
    perm, widths = rotation_files
    out = tmp_path / "orbit.jsonl"
    code = cli.main(
        [
            "orbit", "--perm", perm, "--widths", widths,
            "--side", "top", "--offset", "0/1", "--steps", "3",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0]) == {"k": 0, "side": "Top", "offset": "0/1"}
    assert json.loads(lines[1]) == {"k": 1, "side": "Top", "offset": "1/7"}


def test_orbit_that_hits_an_endpoint_says_so_and_succeeds(tie_files, capsys):
    argv = ["orbit", *tie_files, "--side", "top", "--offset", "0", "--steps", "3"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == '{"k":0,"offset":"0/1","side":"Top"}\n'
    assert captured.err == "orbit stopped: endpoint hit at index 0\n"


def test_split_command(rotation_files, capsys):
    perm, widths = rotation_files
    assert cli.main(["split", "--perm", perm, "--widths", widths]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["widths"] == {"A": "2/7", "B": "1/7"}
    assert payload["step"]["winner"] == "A"


def test_expand_and_artifact(rotation_files, tmp_path, capsys):
    perm, widths = rotation_files
    out = tmp_path / "stage.json"
    code = cli.main(
        ["expand", "--perm", perm, "--widths", widths, "--steps", "2", "--out", str(out)]
    )
    assert code == 0
    stage = json.loads(out.read_bytes())
    assert stage["matrix"]["rows"] == [["1", "2"], ["0", "1"]]
    # artifacts re-parse and re-serialize byte-identically
    assert canonical_json_bytes(json.loads(out.read_bytes())) == out.read_bytes()


def test_visits_verdict_equal(rotation_files, capsys):
    perm, widths = rotation_files
    code = cli.main(["visits", "--perm", perm, "--widths", widths, "--depth", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "EQUAL"


def test_diagram_and_attractors(nonclassical_files, tmp_path, capsys):
    perm, _ = nonclassical_files
    out = tmp_path / "graph.json"
    assert cli.main(["diagram", "--perm", perm, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["nodes"] == 12
    graph = json.loads(out.read_bytes())
    assert len(graph["nodes"]) == 12
    assert cli.main(["attractors", "--perm", perm]) == 0
    attractors = json.loads(capsys.readouterr().out)["attractors"]
    assert attractors


def _spent_budgets(monkeypatch, module, name, keyword):
    """Spy on ``module.name``: the list fills with the ``keyword`` value of
    each call, its default included when the caller passes none."""
    real = getattr(module, name)
    spent = []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        spent.append(bound.arguments[keyword])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return spent


@pytest.mark.parametrize(
    "command, spends",
    [
        (["diagram"], "forward_closure"),
        (["attractors"], "forward_closure"),
        (["validate", "--check-closure"], "is_dynamically_irreducible"),
    ],
)
def test_closure_commands_spend_the_node_budget_by_default(
    nonclassical_files, monkeypatch, capsys, command, spends
):
    perm, _ = nonclassical_files
    spent = _spent_budgets(monkeypatch, diagram, spends, "budget")
    assert cli.main([*command, "--perm", perm]) == 0
    assert cli.main([*command, "--perm", perm, "--budget", "500"]) == 0
    assert spent == [LIMITS["closure_nodes"], 500]


def test_tower_command_spends_the_split_budget_by_default(nonclassical_files, monkeypatch, capsys):
    perm, widths = nonclassical_files
    spent = _spent_budgets(monkeypatch, approx, "find_cyclic_tower", "budget")
    assert cli.main(["tower", "--perm", perm, "--widths", widths, "--delta", "2/5"]) == 0
    assert spent == [LIMITS["tower_splits"]]


def test_tower_roundtrip(nonclassical_files, tmp_path, capsys):
    perm, widths = nonclassical_files
    out = tmp_path / "tower.json"
    code = cli.main(
        ["tower", "--perm", perm, "--widths", widths, "--delta", "2/5", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    tower = json.loads(out.read_bytes())
    assert tower["verification"]["passed"] is True
    code = cli.main(
        ["verify-tower", "--perm", perm, "--widths", widths, "--tower", str(out)]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize(
    "changes",
    [{"band": 5}, {"band": "Z"}, {"band": [1]}, {"depth": -1}],
    ids=["band-5", "band-Z", "band-list", "depth-neg"],
)
def test_verify_tower_rejects_an_edited_band_or_depth(
    nonclassical_files, tmp_path, capsys, changes
):
    perm, widths = nonclassical_files
    out = tmp_path / "tower.json"
    argv = ["--perm", perm, "--widths", widths]
    assert cli.main(["tower", *argv, "--delta", "2/5", "--out", str(out)]) == 0
    tower = json.loads(out.read_bytes())
    out.write_bytes(canonical_json_bytes({**tower, **changes}))
    capsys.readouterr()
    assert cli.main(["verify-tower", *argv, "--tower", str(out)]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_budget_exit_code(nonclassical_files, capsys):
    perm, widths = nonclassical_files
    code = cli.main(
        ["tower", "--perm", perm, "--widths", widths, "--delta", "1/1000000", "--budget", "0"]
    )
    assert code == 3


def test_sampler_retries_past_the_cap_exit_3(tmp_path, capsys):
    # Six positive gaps on a grid of six need five distinct interior cuts.
    perm = tmp_path / "perm.json"
    perm.write_bytes(
        canonical_json_bytes(
            {"top": ["A", "A", "B", "B", "C"], "bottom": ["C", "D", "D", "E", "E", "F", "F"]}
        )
    )
    argv = ["scan", "--perm", str(perm), "--count", "1", "--denominator-bound", "6"]
    assert cli.main([*argv, "--xi", "1/4", "--horizon", "3"]) == cli.EXIT_EXHAUSTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exhausted: could not draw 6 positive gaps on grid 6\n"


@pytest.mark.parametrize(
    "top, bottom", [("A A B", "B"), ("A B", "B C C A")], ids=["no-bottom", "no-top"]
)
def test_scan_of_a_permutation_without_widths_is_a_domain_error(tmp_path, capsys, top, bottom):
    perm = tmp_path / "perm.json"
    perm.write_bytes(canonical_json_bytes({"top": top.split(), "bottom": bottom.split()}))
    argv = ["scan", "--perm", str(perm), "--count", "1", "--xi", "1/4", "--horizon", "3"]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no widths of {top} | {bottom} satisfy the switch condition\n"


def test_a_probe_past_its_budget_exits_3(nonclassical_files, capsys, monkeypatch):
    perm, widths = nonclassical_files
    monkeypatch.setitem(LIMITS, "probe_steps", 1)
    argv = ["visits", "--perm", perm, "--widths", widths, "--depth", "6"]
    assert cli.main(argv) == cli.EXIT_EXHAUSTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: probe for band ")


def test_a_negative_closure_budget_is_a_domain_error(nonclassical_files, capsys):
    perm, _ = nonclassical_files
    assert cli.main(["diagram", "--perm", perm, "--budget", "-1"]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be a nonnegative int, got -1\n"


def test_rigidity_command(rotation_files, capsys):
    perm, widths = rotation_files
    code = cli.main(
        [
            "rigidity", "--perm", perm, "--widths", widths,
            "--xi", "1/2", "--candidates", "1,2,3",
        ]
    )
    assert code == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert {r["n"] for r in records} >= {1, 2, 3}


def test_modp_trace(rotation_files, capsys):
    perm, widths = rotation_files
    code = cli.main(
        ["modp-trace", "--perm", perm, "--widths", widths, "--p", "3", "--steps", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "band" in out.splitlines()[0]


def test_modp_trace_ends_where_the_expansion_halts(tie_files, capsys):
    assert cli.main(["modp-trace", *tie_files, "--p", "3", "--steps", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [0, 0, 0, 1, 1, 1]


def test_modp_trace_reports_the_p2_obstruction_as_coprime_tower_does(tmp_path, capsys):
    # All four bands reverse, so at p = 2 the claim fails by design from
    # depth 0; the trace names the obstruction instead of a violation.
    widths = {"A": "1/8", "B": "3/8", "C": "3/16", "D": "5/16"}
    files = _write_exchange(tmp_path, ["A", "A", "B", "B"], ["C", "C", "D", "D"], widths)
    x = cli._load_exchange(files[1], files[3])
    assert isinstance(
        modp.check_claim_invariant(modp.initial_state(x.perm, 2)), modp.ClaimViolation
    )
    assert cli.main(["coprime-tower", *files, "--delta", "1/4", "--p", "2"]) == 0
    reason = json.loads(capsys.readouterr().out)["reason"]
    out = tmp_path / "trace.json"
    argv = ["modp-trace", *files, "--p", "2", "--steps", "3", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == f"structural obstruction: {reason}\n"
    artifact = json.loads(out.read_bytes())
    assert artifact["violation_depth"] is None
    assert max(row["depth"] for row in artifact["rows"]) == 3


def test_modp_trace_reports_the_first_violating_depth(
    monkeypatch, nonclassical_files, tmp_path, capsys
):
    # every check from the third on fails: the first of them is reported
    perm, widths = nonclassical_files
    real = modp.check_claim_invariant
    calls = []

    def check(state):
        calls.append(state)
        return modp.ClaimViolation(state=state) if len(calls) >= 3 else real(state)

    monkeypatch.setattr(modp, "check_claim_invariant", check)
    out = tmp_path / "trace.json"
    argv = ["modp-trace", "--perm", perm, "--widths", widths, "--p", "3", "--steps", "8"]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_VIOLATION
    assert json.loads(out.read_bytes())["violation_depth"] == 2
    assert capsys.readouterr().err == (
        "INVARIANT VIOLATION: remainder invariant violated at depth 2 for p=3\n"
    )


def test_coprime_tower_at_p_2_reports_an_all_reversing_obstruction(tmp_path, capsys):
    widths = {"A": "1/2", "B": "1/4", "C": "1/4"}
    argv = _write_exchange(tmp_path, ["A", "A"], ["B", "B", "C", "C"], widths)
    assert cli.main(["coprime-tower", *argv, "--delta", "2/5", "--p", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "structural_obstruction"
    assert payload["reason"].startswith("all bands reverse orientation")


def test_a_screened_tower_that_fails_verification_is_an_inconsistency(
    nonclassical_files, capsys, monkeypatch
):
    # On the search's rung the verification repeats the two screens, so a
    # certificate that passes both and then fails is a fault: exit 4.
    perm, widths = nonclassical_files
    ladder = approx._verify_on_ladder
    monkeypatch.setattr(
        approx, "_verify_on_ladder", lambda *args: replace(ladder(*args), disjoint_levels=False)
    )
    x = cli._load_exchange(perm, widths)
    with pytest.raises(InconsistentStage, match="passed both screens but not verification"):
        approx.find_cyclic_tower(x, Fraction(2, 5))
    argv = ["tower", "--perm", perm, "--widths", widths, "--delta", "2/5"]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("INVARIANT VIOLATION: band ")


def test_coprime_tower_command(nonclassical_files, capsys):
    perm, widths = nonclassical_files
    code = cli.main(
        [
            "coprime-tower", "--perm", perm, "--widths", widths,
            "--delta", "2/5", "--p", "3",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] in ("tower", "structural_obstruction")
    if payload["outcome"] == "tower":
        assert int(payload["height"]) % 3 != 0


def test_a_non_coprime_tower_is_an_inconsistency(nonclassical_files, capsys, monkeypatch):
    # A search that returns a height the prime divides is a fault of the
    # library, not of its input: exit 4, not 1.
    perm, widths = nonclassical_files
    tower = approx.CyclicTower(
        band="A", depth=0, height=6, base=(), delta=Fraction(2, 5), xi=Fraction(1, 2)
    )
    monkeypatch.setattr(modp, "find_cyclic_tower", lambda *args, **kwargs: tower)
    x = cli._load_exchange(perm, widths)
    with pytest.raises(InconsistentStage, match="non-coprime height"):
        modp.find_coprime_tower(x, Fraction(2, 5), 3)
    argv = ["coprime-tower", "--perm", perm, "--widths", widths, "--delta", "2/5", "--p", "3"]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    assert capsys.readouterr().out == ""


def test_a_chase_that_does_not_return_is_an_inconsistency(
    nonclassical_files, capsys, monkeypatch
):
    # Every piece of a run returns within the chase's budget, so a chase
    # past it fails the run's audit instead of becoming an experiment row.
    perm, widths = nonclassical_files
    monkeypatch.setitem(LIMITS, "chase_steps", 1)
    with pytest.raises(InconsistentStage, match="disagrees with the return chase"):
        rauzy.split(cli._load_exchange(perm, widths))
    argv = [
        "ergodicity", "--perm", perm, "--widths", widths,
        "--p", "3", "--bins", "4", "--iters", "100",
    ]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    assert capsys.readouterr().out == ""


def test_ergodicity_and_product(nonclassical_files, rotation_files, tmp_path, capsys):
    nperm, nwid = nonclassical_files
    rperm, rwid = rotation_files
    out = tmp_path / "erg.json"
    code = cli.main(
        [
            "ergodicity", "--perm", nperm, "--widths", nwid,
            "--p", "2", "--bins", "10", "--iters", "5000", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists() and out.with_suffix(".csv").exists()
    capsys.readouterr()
    code = cli.main(
        [
            "product",
            "--perm1", nperm, "--widths1", nwid,
            "--perm2", nperm, "--widths2", nwid,
            "--boxes", "5", "--iters", "4000",
        ]
    )
    assert code == 0


def test_scan_command(rotation_files, capsys):
    perm, _ = rotation_files
    code = cli.main(
        [
            "scan", "--perm", perm, "--count", "2", "--xi", "1/20",
            "--horizon", "6", "--denominator-bound", "4000",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "rigidity_scan"


def test_usage_error_exit_code(rotation_files):
    perm, widths = rotation_files
    with pytest.raises(SystemExit) as exc:
        cli.main(["split", "--perm", perm, "--widths", widths, "--bogus-flag"])
    assert exc.value.code == 2


# The shared flags each subcommand takes: exactly those its handler reads.
_SHARED_FLAGS = {
    "validate": {"--budget", "--out"},
    "apply": set(),
    "orbit": {"--out"},
    "split": {"--out"},
    "expand": {"--out"},
    "visits": {"--out"},
    "diagram": {"--budget", "--out"},
    "attractors": {"--budget", "--out"},
    "tower": {"--budget", "--out"},
    "verify-tower": {"--out"},
    "rigidity": {"--budget", "--out"},
    "modp-trace": {"--out"},
    "coprime-tower": {"--budget", "--out"},
    "ergodicity": {"--seed", "--budget", "--out"},
    "product": {"--seed", "--out"},
    "scan": {"--seed", "--out"},
}


def test_shared_flags_per_subcommand():
    (sub,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    shared = {"--seed", "--budget", "--out"}
    flags = {
        name: {opt for action in parser._actions for opt in action.option_strings} & shared
        for name, parser in sub.choices.items()
    }
    assert flags == _SHARED_FLAGS
    assert sum(len(v) for v in flags.values()) == 25


# The parser as the hand-written subcommand blocks built it, written out
# by hand: each flag's (dest, type, default, required, choices, action),
# the same on every subcommand that takes it, and each subcommand's flags
# in --help order.
_STORE, _TRUE = argparse._StoreAction, argparse._StoreTrueAction
_FLAG_SHAPES = {
    "--seed": ("seed", int, 0, False, None, _STORE),
    "--budget": ("budget", int, None, False, None, _STORE),
    "--out": ("out", None, None, False, None, _STORE),
    "--perm": ("perm", None, None, True, None, _STORE),
    "--widths": ("widths", None, None, True, None, _STORE),
    "--check-closure": ("check_closure", None, False, False, None, _TRUE),
    "--side": ("side", None, None, True, ["top", "bottom", "Top", "Bottom"], _STORE),
    "--offset": ("offset", None, None, True, None, _STORE),
    "--inverse": ("inverse", None, False, False, None, _TRUE),
    "--steps": ("steps", int, None, True, None, _STORE),
    "--depth": ("depth", int, None, True, None, _STORE),
    "--delta": ("delta", None, None, True, None, _STORE),
    "--tower": ("tower", None, None, True, None, _STORE),
    "--xi": ("xi", None, None, True, None, _STORE),
    "--candidates": ("candidates", None, "", False, None, _STORE),
    "--p": ("p", int, None, True, None, _STORE),
    "--bins": ("bins", int, 100, False, None, _STORE),
    "--iters": ("iters", int, 100_000, False, None, _STORE),
    "--perm1": ("perm1", None, None, True, None, _STORE),
    "--widths1": ("widths1", None, None, True, None, _STORE),
    "--perm2": ("perm2", None, None, True, None, _STORE),
    "--widths2": ("widths2", None, None, True, None, _STORE),
    "--boxes": ("boxes", int, 20, False, None, _STORE),
    "--count": ("count", int, 10, False, None, _STORE),
    "--denominator-bound": ("denominator_bound", int, 2**40, False, None, _STORE),
    "--horizon": ("horizon", int, 10, False, None, _STORE),
}
_PARSER_SHAPE = [
    ("validate", "--budget --out --perm --check-closure"),
    ("apply", "--perm --widths --side --offset --inverse"),
    ("orbit", "--out --perm --widths --side --offset --steps"),
    ("split", "--out --perm --widths"),
    ("expand", "--out --perm --widths --steps"),
    ("visits", "--out --perm --widths --depth"),
    ("diagram", "--budget --out --perm"),
    ("attractors", "--budget --out --perm"),
    ("tower", "--budget --out --perm --widths --delta"),
    ("verify-tower", "--out --perm --widths --tower"),
    ("rigidity", "--budget --out --perm --widths --xi --candidates"),
    ("modp-trace", "--out --perm --widths --p --steps"),
    ("coprime-tower", "--budget --out --perm --widths --delta --p"),
    ("ergodicity", "--seed --budget --out --perm --widths --p --bins --iters"),
    ("product", "--seed --out --perm1 --widths1 --perm2 --widths2 --boxes --iters"),
    ("scan", "--seed --out --perm --count --denominator-bound --xi --horizon"),
]


def test_parser_shape_is_pinned():
    # Help text aside, the golden hashes do not see the parser: an
    # option's type, default or action could move with every case passing.
    (sub,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    shape = [
        (
            name,
            [
                (a.option_strings, a.dest, a.type, a.default, a.required, a.choices, type(a))
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        )
        for name, parser in sub.choices.items()
    ]
    assert shape == [
        (name, [([flag], *_FLAG_SHAPES[flag]) for flag in flags.split()])
        for name, flags in _PARSER_SHAPE
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--side", "top", "--offset", "0/1", "--out", "{tmp}/f"],
        ["expand", "--steps", "2", "--budget", "5"],
        ["tower", "--delta", "2/5", "--seed", "1"],
        ["scan", "--xi", "1/20", "--count", "1", "--horizon", "3", "--budget", "9"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[-2]}",
)
def test_unread_shared_flag_is_a_usage_error(nonclassical_files, tmp_path, capsys, argv):
    perm, widths = nonclassical_files
    files = ["--perm", perm] if argv[0] == "scan" else ["--perm", perm, "--widths", widths]
    argv = [argv[0], *files, *(a.replace("{tmp}", str(tmp_path)) for a in argv[1:])]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_rigidity_ladder_is_bounded_by_the_compose_budget(
    nonclassical_files, capsys, monkeypatch
):
    # The tower ladder reaches heights whose defects no budget composes;
    # those heights are dropped without composing toward them.
    perm, widths = nonclassical_files
    argv = [
        "rigidity", "--perm", perm, "--widths", widths,
        "--xi", "1/4", "--candidates", "1,2,3,5,8", "--budget",
    ]
    composed = 0
    compose = approx._compose

    def counting(*args):
        nonlocal composed
        pieces = compose(*args)
        composed += len(pieces)
        return pieces

    monkeypatch.setattr(approx, "_compose", counting)
    started = time.perf_counter()
    code = cli.main([*argv, "50"])
    assert code == 0
    assert time.perf_counter() - started < 30
    out = capsys.readouterr().out
    records = json.loads(out)["records"]
    assert {1, 2, 3, 5, 8} <= {r["n"] for r in records}
    # the height past the budget is dropped within a few thousand pieces
    assert composed < 10**4
    assert cli.main([*argv, "20"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("candidates, bad", [("1.5", "1.5"), ("3,x", "x"), ("2, 4,,y ", "y")])
def test_rigidity_rejects_non_integer_candidates(rotation_files, capsys, candidates, bad):
    perm, widths = rotation_files
    argv = ["rigidity", "--perm", perm, "--widths", widths, "--xi", "1/2"]
    assert cli.main([*argv, "--candidates", candidates]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and repr(bad) in captured.err


def test_linvex_seed_in_the_environment_changes_nothing(
    rotation_files, tmp_path, monkeypatch, capsys
):
    perm, _ = rotation_files
    argv = ["scan", "--perm", perm, "--xi", "1/20", "--count", "2", "--horizon", "3"]
    runs = []
    for env in (None, "abc", "777"):
        if env is None:
            monkeypatch.delenv("LINVEX_SEED", raising=False)
        else:
            monkeypatch.setenv("LINVEX_SEED", env)
        out = tmp_path / f"scan{len(runs)}.json"
        assert cli.main([*argv, "--seed", "5", "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), out.read_bytes(), out.with_suffix(".csv").read_bytes()))
    assert runs[0][0].err == ""
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--boxes", "0", "--iters", "100"],
        ["ergodicity", "--p", "2", "--bins", "0", "--iters", "100"],
    ],
    ids=["boxes-0", "bins-0"],
)
def test_zero_sizes_are_domain_errors(nonclassical_files, capsys, argv):
    perm, widths = nonclassical_files
    if argv[0] == "product":
        files = ["--perm1", perm, "--widths1", widths, "--perm2", perm, "--widths2", widths]
    else:
        files = ["--perm", perm, "--widths", widths]
    assert cli.main([argv[0], *files, *argv[1:]]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "flag, word", [("--horizon", "horizon"), ("--count", "sample count")], ids=["horizon", "count"]
)
def test_scan_rejects_negative_horizon_and_count(rotation_files, capsys, flag, word):
    perm, _ = rotation_files
    argv = ["scan", "--perm", perm, "--xi", "1/20", "--count", "1", "--horizon", "3"]
    assert cli.main([*argv, flag, "-2"]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {word} must be a nonnegative int, got -2\n"


@pytest.mark.parametrize(
    "argv, word",
    [
        (["tower", "--delta", "1/4", "--budget", "-1"], "budget"),
        (["expand", "--steps", "-1"], "expansion depth"),
        (["modp-trace", "--p", "3", "--steps", "-1"], "expansion depth"),
        (["ergodicity", "--p", "3", "--iters", "-1"], "iters"),
    ],
    ids=["tower-budget", "expand-steps", "modp-trace-steps", "ergodicity-iters"],
)
def test_negative_budget_or_depth_is_a_domain_error(nonclassical_files, capsys, argv, word):
    perm, widths = nonclassical_files
    assert cli.main([argv[0], "--perm", perm, "--widths", widths, *argv[1:]]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {word} must be a nonnegative int, got -1\n"


@pytest.mark.parametrize("p", ["4", "9"])
@pytest.mark.parametrize(
    "argv",
    [
        ["coprime-tower", "--delta", "2/5", "--budget", "300"],
        ["ergodicity", "--bins", "6", "--iters", "3000"],
        ["modp-trace", "--steps", "20"],
    ],
    ids=["coprime-tower", "ergodicity", "modp-trace"],
)
def test_composite_p_is_a_domain_error(nonclassical_files, capsys, argv, p):
    perm, widths = nonclassical_files
    argv = [argv[0], "--perm", perm, "--widths", widths, "--p", p, *argv[1:]]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: p must be a prime int, got {p}\n"


_TOWER = {
    "band": "A",
    "depth": 0,
    "height": 2,
    "base_intervals": [{"side": "Top", "lo": "0/1", "hi": "1/7"}],
    "delta": "1/4",
    "xi": "1/2",
}


def _tower_bytes(**changes) -> bytes:
    tower = {**_TOWER, **changes}
    return canonical_json_bytes({k: v for k, v in tower.items() if v is not None})


@pytest.mark.parametrize(
    "command, name, content",
    [
        pytest.param("validate", "perm", b'{"bottom":["A"]}', id="perm-without-top"),
        pytest.param("validate", "perm", b'{"top":"AB","bottom":["B","A"]}', id="row-not-list"),
        pytest.param("validate", "perm", b'["A","B"]', id="perm-not-object"),
        pytest.param("split", "perm", b"\xff\xfe", id="perm-not-utf8"),
        pytest.param("split", "widths", b'["3/7","1/7"]', id="widths-not-object"),
        pytest.param("split", "widths", b'{"A":"3/7","B":"one"}', id="width-not-rational"),
        pytest.param("verify-tower", "tower", b"not json {", id="tower-not-json"),
        pytest.param("verify-tower", "tower", _tower_bytes(band=None), id="tower-without-band"),
        pytest.param(
            "validate", "perm", b'{"top":[null,null,1],"bottom":[1,2,2]}', id="labels-not-strings"
        ),
        pytest.param("verify-tower", "tower", _tower_bytes(height="two"), id="height-not-int"),
        pytest.param("verify-tower", "tower", _tower_bytes(height=2.9), id="height-not-integral"),
        pytest.param("verify-tower", "tower", _tower_bytes(depth=True), id="depth-bool"),
        pytest.param("verify-tower", "tower", _tower_bytes(delta="1/0"), id="delta-over-zero"),
        pytest.param(
            "verify-tower",
            "tower",
            _tower_bytes(base_intervals=[["Top", "0/1", "1/7"]]),
            id="base-interval-not-object",
        ),
    ],
)
def test_malformed_json_is_a_domain_error(
    rotation_files, tmp_path, capsys, command, name, content
):
    perm, widths = rotation_files
    tower = tmp_path / "tower.json"
    tower.write_bytes(canonical_json_bytes(_TOWER))
    paths = {"perm": perm, "widths": widths, "tower": str(tower)}
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    paths[name] = str(bad)
    argv = [command, "--perm", paths["perm"]]
    if command != "validate":
        argv += ["--widths", paths["widths"]]
    if command == "verify-tower":
        argv += ["--tower", paths["tower"]]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: ")


def test_invariant_violation_exit_code(monkeypatch, rotation_files, capsys):
    # force the verdict path that signals a falsified invariant
    from linvex import rauzy as rauzy_mod

    perm, widths = rotation_files
    real = rauzy_mod.visit_counts

    def fake(x, depth):
        m = real(x, depth)
        m.rows[0][0] += 1
        return m

    monkeypatch.setattr(cli.rauzy, "visit_counts", fake)
    code = cli.main(["visits", "--perm", perm, "--widths", widths, "--depth", "1"])
    assert code == 4


def test_inconsistent_stage_exit_code(monkeypatch, rotation_files, capsys):
    # a return chase that loses a piece falsifies the split's own checks
    from linvex import exchange

    perm, widths = rotation_files
    real = exchange._chase
    monkeypatch.setattr(exchange, "_chase", lambda *args: real(*args)[:-1])
    code = cli.main(["split", "--perm", perm, "--widths", widths])
    assert code == 4
    assert "INVARIANT VIOLATION" in capsys.readouterr().err


def test_visits_expands_once(monkeypatch, rotation_files, tmp_path, capsys):
    from linvex import rauzy as rauzy_mod

    perm, widths = rotation_files
    real = rauzy_mod.expand
    calls = []

    def counting(x, n):
        calls.append(n)
        return real(x, n)

    monkeypatch.setattr(rauzy_mod, "expand", counting)
    out = tmp_path / "visits.json"
    code = cli.main(
        ["visits", "--perm", perm, "--widths", widths, "--depth", "2", "--out", str(out)]
    )
    assert code == 0 and calls == [2]
    payload = json.loads(out.read_bytes())
    assert payload["orbit_counts"] == payload["cocycle"]
    assert payload["verdict"] == "EQUAL"


@pytest.mark.parametrize(
    "base, height",
    [
        ([("Top", "3/7", "5/7")], 2),  # hi beyond the side length 4/7
        ([("Top", "3/7", "2/7")], 2),  # reversed
        ([("Top", "-1/7", "1/7")], 2),  # negative lo
        ([("Top", "0/1", "2/7"), ("Top", "1/7", "3/7")], 2),  # overlapping
        ([("Top", "0/1", "1/7")], 0),  # no levels
        ([("top", "0/1", "1/7")], 2),  # not a side name
    ],
)
def test_verify_tower_rejects_malformed_base(rotation_files, tmp_path, capsys, base, height):
    perm, widths = rotation_files
    tower = tmp_path / "tower.json"
    tower.write_bytes(
        canonical_json_bytes(
            {
                "band": "A",
                "depth": 0,
                "height": height,
                "base_intervals": [{"side": s, "lo": lo, "hi": hi} for s, lo, hi in base],
                "delta": "1/4",
                "xi": "1/2",
            }
        )
    )
    code = cli.main(["verify-tower", "--perm", perm, "--widths", widths, "--tower", str(tower)])
    assert code == cli.EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: ")


def _quadratic_modp_trace(args) -> int:
    """The modp-trace command as it rebuilt the stage prefix at every depth."""
    from linvex import modp, rauzy
    from linvex.errors import InvariantViolation

    x = cli._load_exchange(args.perm, args.widths)
    stage = rauzy.expand(x, args.steps)
    rows = []
    violation = None
    for depth in range(stage.depth + 1):
        partial = rauzy.Stage(
            nodes=stage.nodes[: depth + 1],
            steps=stage.steps[:depth],
            matrix=rauzy.Matrix.identity(stage.matrix.labels),
        )
        for step in partial.steps:
            partial.matrix.add_column(step.winner, step.loser)
        state = modp.remainder_state(partial, args.p)
        node = partial.end
        for band in node.alphabet:
            rows.append(
                {
                    "depth": depth,
                    "band": band,
                    "class": node.orientation_of(band).value,
                    "column_norm": partial.matrix.column_norm(band),
                    "remainder": state.remainder(band),
                }
            )
        if node.is_non_classical and violation is None:
            status = modp.check_claim_invariant(state)
            if isinstance(status, modp.ClaimViolation):
                violation = depth
    header = f"{'depth':>5} {'band':>6} {'class':>16} {'|Q(a)|':>12} {'r':>4}"
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(
            f"{row['depth']:>5} {row['band']:>6} {row['class']:>16} "
            f"{row['column_norm']:>12} {row['remainder']:>4}\n"
        )
    cli._write_artifact(args.out, {"rows": rows, "violation_depth": violation})
    if violation is not None:
        raise InvariantViolation(
            f"remainder invariant violated at depth {violation} for p={args.p}"
        )
    return cli.EXIT_OK


@pytest.mark.parametrize("violate_at", [None, 17])
def test_modp_trace_equals_stage_rebuild(
    monkeypatch, nonclassical_files, tmp_path, capsys, violate_at
):
    # the one-pass table against the per-depth rebuild on a deep expansion;
    # a forced claim violation (the n-th non-classical check) must give the
    # same violation depth and exit code
    from linvex import modp

    perm, widths = nonclassical_files
    real = modp.check_claim_invariant
    runs = []
    for name, command in (("rebuild", _quadratic_modp_trace), ("cli", None)):
        if violate_at is not None:
            calls = []

            def check(state, calls=calls):
                calls.append(state)
                if len(calls) == violate_at:
                    return modp.ClaimViolation(state=state)
                return real(state)

            monkeypatch.setattr(modp, "check_claim_invariant", check)
        out = tmp_path / f"{name}.json"
        argv = ["modp-trace", "--perm", perm, "--widths", widths, "--p", "3"]
        argv += ["--steps", "40", "--out", str(out)]
        if command is None:
            code = cli.main(argv)
        else:
            args = cli.build_parser().parse_args(argv)
            try:
                code = command(args)
            except cli.InvariantViolation:
                code = cli.EXIT_VIOLATION
        runs.append((code, capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
    artifact = json.loads(runs[1][2])
    assert max(row["depth"] for row in artifact["rows"]) >= 30
    assert (artifact["violation_depth"] is None) == (violate_at is None)
    assert runs[1][0] == (cli.EXIT_OK if violate_at is None else cli.EXIT_VIOLATION)
