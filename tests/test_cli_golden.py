"""Pinned stdout and artifacts of every subcommand on small fixed inputs.

Each case runs one subcommand through ``cli.main`` and compares its exit
code and the SHA-256 of its stdout and of every file it writes with
digests recorded once, so a refactor that changes any output byte fails
here.  After a deliberate output change, re-record the table with
``PYTHONPATH=src python tests/test_cli_golden.py``.  Rejected inputs pin
their exit code and exact stderr in ``ERRORS``, written out by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from linvex import cli

# In a case, {x} names the non-classical exchange and {tall} an exchange
# whose tower certificate is tall enough for the ladder (depth 27, height
# 2165 > 64 * 28); {in} and {out} are the input and artifact directories.
_X = "--perm {in}/nc.json --widths {in}/ncw.json"
_TALL = "--perm {in}/tall.json --widths {in}/tallw.json"

INPUTS = {
    "nc.json": b'{"top":["A","A","B"],"bottom":["B","C","C"]}',
    "ncw.json": b'{"A":"330696682521/1099511627776","B":"438118262734/1099511627776",'
    b'"C":"330696682521/1099511627776"}',
    "rot.json": b'{"top":["A","B"],"bottom":["B","A"]}',
    "rotw.json": b'{"A":"3/7","B":"1/7"}',
    "tower.json": b'{"band":"A","base_intervals":['
    b'{"hi":"115853522095/1099511627776","lo":"4215970941/274877906944","side":"Top"},'
    b'{"hi":"98989638331/1099511627776","lo":"0/1","side":"Bottom"}],'
    b'"delta":"2/5","depth":7,"height":10,"xi":"16863883764/115853522095"}',
    "tall.json": b'{"top":["A","B","B"],"bottom":["C","C","A"]}',
    "tallw.json": b'{"A":"159213330053/549755813888","B":"390542483835/1099511627776",'
    b'"C":"390542483835/1099511627776"}',
    "talltower.json": b'{"band":"C","base_intervals":['
    b'{"hi":"113938409/274877906944","lo":"0/1","side":"Top"},'
    b'{"hi":"263619849/549755813888","lo":"35743031/549755813888","side":"Bottom"}],'
    b'"delta":"1/4","depth":27,"height":2165,"xi":"35743031/263619849"}',
    "zerow.json": b'{"A":"1/4","B":"0/1","C":"1/4"}',
    "switchw.json": b'{"A":"1/4","B":"1/2","C":"1/3"}',
    "missingw.json": b'{"A":"1/4","B":"1/2"}',
    "boolw.json": b'{"A":true,"B":"1/2","C":true}',
    "zerodenw.json": b'{"A":"1/4","B":"1/0","C":"1/4"}',
}

CASES = {
    "validate": "validate --perm {in}/nc.json --check-closure --budget 500 --out {out}/a.json",
    "apply": "apply {x} --side bottom --offset 1/5 --inverse",
    "orbit": "orbit {x} --side top --offset 1/9 --steps 25 --out {out}/a.jsonl",
    "split": "split {x} --out {out}/a.json",
    "expand": "expand {x} --steps 30 --out {out}/a.json",
    "visits": "visits {x} --depth 6 --out {out}/a.json",
    "diagram": "diagram --perm {in}/nc.json --budget 500 --out {out}/a.json",
    "attractors": "attractors --perm {in}/nc.json --budget 500 --out {out}/a.json",
    "tower": "tower {x} --delta 2/5 --budget 200 --out {out}/a.json",
    "verify-tower": "verify-tower {x} --tower {in}/tower.json --out {out}/a.json",
    "tower-ladder": "tower {tall} --delta 1/4 --budget 48 --out {out}/a.json",
    "verify-tower-ladder": "verify-tower {tall} --tower {in}/talltower.json --out {out}/a.json",
    "rigidity": "rigidity {x} --xi 1/4 --candidates 1,2,3,5,8 --budget 20 --out {out}/a.json",
    "modp-trace": "modp-trace {x} --p 3 --steps 20 --out {out}/a.json",
    "coprime-tower": "coprime-tower {x} --delta 2/5 --p 3 --budget 300 --out {out}/a.json",
    "ergodicity": "ergodicity {x} --p 2 --bins 6 --iters 3000 --seed 3 --budget 200"
    " --out {out}/a.json",
    "product": "product --perm1 {in}/nc.json --widths1 {in}/ncw.json --perm2 {in}/rot.json"
    " --widths2 {in}/rotw.json --boxes 4 --iters 2000 --seed 5 --out {out}/a.json",
    "scan": "scan --perm {in}/nc.json --count 2 --xi 1/8 --horizon 5 --denominator-bound 4000"
    " --seed 7 --out {out}/a.json",
}
# The mod-p commands at more primes.
for _p in (5, 7, 11):
    CASES[f"modp-trace-p{_p}"] = CASES["modp-trace"].replace("--p 3", f"--p {_p}")
    CASES[f"coprime-tower-p{_p}"] = CASES["coprime-tower"].replace("--p 3", f"--p {_p}")
    CASES[f"ergodicity-p{_p}"] = CASES["ergodicity"].replace("--p 2", f"--p {_p}")

# Exit code, stdout SHA-256 and artifact SHA-256s of every case.
GOLDEN: dict[str, tuple[int, str, dict[str, str]]] = {
    "apply": (0, "9be15137894ffbeeebd98f650091474965eae3bb15a841e03b139757783ed370", {
    }),
    "attractors": (0, "fd4b8508d409a66bec94eded50f5f31cf31f933cc64999fb1a44a22f9f9a3ce1", {
        "a.json": "65f62fcdb9af7d9d54b78d316857762e33e996458f280d050183ae319e22a31e",
    }),
    "coprime-tower": (0, "a5ef62383ead2aad6718ed438216294af0b206e8959eb68d955149713994f34e", {
        "a.json": "a26f87bb41e4fc3ff195957c8de84ca5ec16de70ed79340e835ddba32cad0220",
    }),
    "coprime-tower-p11": (0, "a5ef62383ead2aad6718ed438216294af0b206e8959eb68d955149713994f34e", {
        "a.json": "a26f87bb41e4fc3ff195957c8de84ca5ec16de70ed79340e835ddba32cad0220",
    }),
    "coprime-tower-p5": (0, "f67380771be8e2f187a26b2f437d671e1c9a9a56ea662ab69a9520292c309025", {
        "a.json": "e2a78587b32de49120feb1bd688a1d5678e0e2773b6e4cc9c4c0aedeb6b5b647",
    }),
    "coprime-tower-p7": (0, "a5ef62383ead2aad6718ed438216294af0b206e8959eb68d955149713994f34e", {
        "a.json": "a26f87bb41e4fc3ff195957c8de84ca5ec16de70ed79340e835ddba32cad0220",
    }),
    "diagram": (0, "9c39f07ba4cdf4de77d798dfd95b9fba16ccc153096834ee0bb6dc92838d80c8", {
        "a.json": "15967e9f4e15496bfd62c5b135d0814d0fb07268148b7be4f7a6e88fba97f2cc",
    }),
    "ergodicity": (0, "709154fe86ab0a16bb3c45b40642c603245ea7612c80baa3c8eebec24e173480", {
        "a.csv": "87a3b8c208e50b043ad2aca31a8fddca552a3712bb36b8078fbffe6b4d1c1e41",
        "a.json": "7865448159fa99a5f4c6208b0f122bcb515eb90c141839e8ce6dc367a2889681",
    }),
    "ergodicity-p11": (0, "acd8deb0110b996da95b45de2274ebc711d1fccbdc4397b10ffb1909e9a9ddbb", {
        "a.csv": "055f905de5f93828586d6b1b2ec8db4d021c28b21aad412c9d546cc5820a13b6",
        "a.json": "b09dfebb692d87529c0ff1474c43c0a594a7ee043f044f52c114361c340341eb",
    }),
    "ergodicity-p5": (0, "af19be9ea3ae1f608eb309e12fb2f17e975f1094172d5fe88e5a0c9fc267eaf4", {
        "a.csv": "b03b80f07a756cee1e50ea5472dc3f51824b1412cfc204fc5848135a4c5f8c48",
        "a.json": "2927d44899bb0721593e6e3842730c86986795fddab23c44b9dce90c09b2df18",
    }),
    "ergodicity-p7": (0, "0c607500aecac3ff4400c9e549a2bdb848c9804fcbc961ccd4b197725f27b284", {
        "a.csv": "50f07ba9023fcd885f97e247613cd681b281aa5cf3079c7575d2bfc173ae7bad",
        "a.json": "fef3548dccb90ccb8d8c0f763d3e016076a53c74ff5eb076ba27407c9e33a39d",
    }),
    "expand": (0, "e806a5aaa67a8edf992d2fbafebc46af95a04bde78b0b635bb24b2ded75463e2", {
        "a.json": "9198f75d8f90f6662d8de19c26a579f336fa67bda5a94cab90c88ef762131470",
    }),
    "modp-trace": (0, "d616ce7f4d75ddbe8c54de86ef725848cb8f47a1e88f5237fcc52e41439b87ba", {
        "a.json": "5cf271e1b5cbbd75a05c6c91f5f6325c7aba14b7dd0dbeda1cea6d1fc01f996b",
    }),
    "modp-trace-p11": (0, "9afecf4849b4b76888db1388854703a99738f292754c51c8aa0f06440bcee62d", {
        "a.json": "ab3ca6aabb5234c6172ace6569055818a9b6e4f1d1ba0653d78a2f693c6c4966",
    }),
    "modp-trace-p5": (0, "c30c223222826cfd8922f9a9cad31d3c0e79bd7d528347c52f376ebd9401baa6", {
        "a.json": "a54ca786b8e37cbc3f9f4835c3c68723cc34ef644e1a52a153ad6668d6340bc1",
    }),
    "modp-trace-p7": (0, "9aba1984f20394c6730448b8ed3cc76e1ea2004c043bd802ef45190a24f2c9d2", {
        "a.json": "1efce0df08281ba8e4742feee2518a2060f90261d72715d4c3d89f2e55cc62a5",
    }),
    "orbit": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "a.jsonl": "8311f4db60b465ac42394792f91dbb0067ef0f7e7162f66775211cf30d884545",
    }),
    "product": (0, "d69fc12f0521ce257197588aa567b264e4791cf1286d2c59b86251a1dba6e1ca", {
        "a.csv": "32be86f923a4241e62abbae96156d2942d8c4a86520314b8e941b5495032cab1",
        "a.json": "0536327fb2e5c423198033bce3269e9e36f45e142e7b40004e3e6b4049217205",
    }),
    "rigidity": (0, "6683349753b5f143f02923d1cd0c740437eb67bc985c2f77207cb6cd62d3bcc0", {
        "a.json": "1adf9d0aa4f6159b20dbf3b7a970160f6fa49543fda262c6e5fadaaa2be6cc03",
    }),
    "scan": (0, "979ed86d5f2f07d80c81944b73707e1628707aafd060ba4ed16237055a933c4c", {
        "a.csv": "2fd9b9a5e0a074e5743b7d395fee2c1a2788d37fb24e7b6433197512b564a302",
        "a.json": "25f24c012c94cc1da752b647a9c2808324cf32ecd10c96db336b151079f8bee3",
    }),
    "split": (0, "9eb407dc0dacdac369b9904212824329834ef562a9149708ae43e526f8a079fc", {
        "a.json": "07e7b227d9f5576f8bc3ca9f57b9976fdbcdcbbf6dad9d2367ef517a8842ea30",
    }),
    "tower": (0, "02588082efdffdf82ac903e66091fdda5691e2127de322124a42c3343894273f", {
        "a.json": "41d7c788b6dd1d5aff81311eab9c3f754aa8eb754bfe6f1de76bc52588114334",
    }),
    "tower-ladder": (0, "a20a5e6e5e1c3f52a2c6cd4f744981983df6996426e123562898824378c466bd", {
        "a.json": "ca90b2834de82a94b289c2c23dd00bd9d3d0c309fa8fdf05df3134550a29d293",
    }),
    "validate": (0, "939da7a6213e78e9453c8ff1af88081915fe6a6de4b320257d1776252b14d573", {
        "a.json": "1b900e16f560f15c0737c2b7f04a4d2f9d3d4f738ad4c32e08d676b44ddd85b5",
    }),
    "verify-tower": (0, "7ace37695d09ef1f634acd56b12378dccb47ec2a7a1ec96ebacd0b2761d8733a", {
        "a.json": "aca013e1d17ffbe9d6184a91ab5780ec5b5c3388ae578383727ab8fa330f54b4",
    }),
    "verify-tower-ladder": (0, "3dd74e70428fc833cf8e335a35ec5033ac58a2d332c867dc8c74951ee986a256", {
        "a.json": "2d3716953d742710083b2c53b44e4c13fdc74458013ed66748781025b37045ff",
    }),
    "visits": (0, "2e47759a18b149a3064348e9534156b659d8b1def6dd572976d2887229d46248", {
        "a.json": "d7268268ea0061a2bf06da87d21a61716ec8a604e6ab96ceba5c3bf17b629c3f",
    }),
}


# Rejected inputs: the case, then its exit code and its exact stderr.
# Nothing is written to stdout or --out.
ERRORS: dict[str, tuple[str, int, str]] = {
    "split-zero-width": (
        "split --perm {in}/nc.json --widths {in}/zerow.json --out {out}/a.json",
        1,
        "error: width of band B is 0\n",
    ),
    "split-switch": (
        "split --perm {in}/nc.json --widths {in}/switchw.json --out {out}/a.json",
        1,
        "error: reversing totals differ: top 1/4 vs bottom 1/3\n",
    ),
    "split-missing-label": (
        "split --perm {in}/nc.json --widths {in}/missingw.json --out {out}/a.json",
        1,
        "error: width labels ['A', 'B'] do not match alphabet ['A', 'B', 'C']\n",
    ),
    "split-bool-width": (
        "split --perm {in}/nc.json --widths {in}/boolw.json --out {out}/a.json",
        1,
        "error: width of band A: true is not a rational p/q\n",
    ),
    "split-zero-denominator": (
        "split --perm {in}/nc.json --widths {in}/zerodenw.json --out {out}/a.json",
        1,
        "error: width of band B: '1/0' is not a rational p/q\n",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(case: str, root: Path) -> tuple[int, str, str, dict[str, str]]:
    """Exit code, stdout, stderr and artifact digests of one command line."""
    src, out = root / "in", root / "out"
    src.mkdir()
    out.mkdir()
    for file, data in INPUTS.items():
        (src / file).write_bytes(data)
    argv = case.replace("{x}", _X).replace("{tall}", _TALL).replace("{in}", str(src))
    argv = argv.replace("{out}", str(out)).split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    artifacts = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    return code, stdout.getvalue(), stderr.getvalue(), artifacts


def run_case(name: str, root: Path) -> tuple[int, str, dict[str, str]]:
    """Exit code, stdout digest and artifact digests of one case."""
    code, stdout, _, artifacts = _run(CASES[name], root)
    return code, _sha(stdout.encode()), artifacts


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_output_is_pinned(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_rejected_input_is_pinned(name, tmp_path):
    case, code, stderr = ERRORS[name]
    assert _run(case, tmp_path) == (code, "", stderr, {})


def test_every_subcommand_has_a_case():
    (sub,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(CASES) == set(GOLDEN)
    assert {case.split()[0] for case in CASES.values()} == set(sub.choices)


if __name__ == "__main__":
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, artifacts = run_case(name, Path(tmp))
        sys.stdout.write(f'    "{name}": ({code}, "{stdout}", {{\n')
        for file, digest in artifacts.items():
            sys.stdout.write(f'        "{file}": "{digest}",\n')
        sys.stdout.write("    }),\n")
