"""Source rules that no behavioural test can see.

No check in the library may rest on ``assert``, which ``python -O``
strips, and no handler may catch every exception, which would turn a bug
into a data row.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import linvex

MODULES = sorted(Path(linvex.__file__).resolve().parent.glob("*.py"))
_BROAD = {"Exception", "BaseException"}


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for name in caught:
                if name is None or (isinstance(name, ast.Name) and name.id in _BROAD):
                    what = "bare except" if name is None else f"except {name.id}"
                    found.append(f"line {node.lineno}: {what}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_has_no_assert_and_no_broad_except(path):
    assert _violations(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_rule_sees_every_banned_form():
    source = """
assert x
try:
    pass
except:
    pass
try:
    pass
except (ValueError, Exception):
    pass
try:
    pass
except BaseException as err:
    pass
try:
    pass
except ValueError:
    pass
"""
    assert _violations(ast.parse(source)) == [
        "line 2: assert",
        "line 5: bare except",
        "line 9: except Exception",
        "line 13: except BaseException",
    ]
