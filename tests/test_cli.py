"""End-to-end command-line flows and exit codes."""

from __future__ import annotations

import json

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
