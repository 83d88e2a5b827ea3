"""End-to-end command-line flows and exit codes."""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from linvex import cli
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
    "changes", [{"band": 5}, {"band": "Z"}, {"depth": -1}], ids=["band-5", "band-Z", "depth-neg"]
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


def test_rigidity_ladder_is_bounded_by_the_compose_budget(nonclassical_files, capsys):
    # The tower ladder reaches heights whose defects no budget composes;
    # those heights are dropped instead of composing for minutes.
    perm, widths = nonclassical_files
    started = time.perf_counter()
    code = cli.main(
        [
            "rigidity", "--perm", perm, "--widths", widths,
            "--xi", "1/4", "--candidates", "1,2,3,5,8", "--budget", "50",
        ]
    )
    assert code == 0
    assert time.perf_counter() - started < 30
    records = json.loads(capsys.readouterr().out)["records"]
    assert {1, 2, 3, 5, 8} <= {r["n"] for r in records}


@pytest.mark.parametrize("candidates, bad", [("1.5", "1.5"), ("3,x", "x"), ("2, 4,,y ", "y")])
def test_rigidity_rejects_non_integer_candidates(rotation_files, capsys, candidates, bad):
    perm, widths = rotation_files
    argv = ["rigidity", "--perm", perm, "--widths", widths, "--xi", "1/2"]
    assert cli.main([*argv, "--candidates", candidates]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and repr(bad) in captured.err


def test_malformed_env_seed_is_a_domain_error(rotation_files, monkeypatch, capsys):
    perm, _ = rotation_files
    monkeypatch.setenv("LINVEX_SEED", "abc")
    argv = ["scan", "--perm", perm, "--xi", "1/20", "--count", "1", "--horizon", "3"]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "LINVEX_SEED='abc'" in captured.err


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
    assert captured.err.startswith("error: ") and f"{word} must be nonnegative" in captured.err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["tower", "--delta", "1/4", "--budget", "-1"], "budget"),
        (["expand", "--steps", "-1"], "expansion depth"),
        (["modp-trace", "--p", "3", "--steps", "-1"], "expansion depth"),
    ],
    ids=["tower-budget", "expand-steps", "modp-trace-steps"],
)
def test_negative_budget_or_depth_is_a_domain_error(nonclassical_files, capsys, argv, word):
    perm, widths = nonclassical_files
    assert cli.main([argv[0], "--perm", perm, "--widths", widths, *argv[1:]]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {word} must be a nonnegative int, got -1\n"


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
        if node.is_non_classical:
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
