"""Source rules that no behavioural test can see.

No check in the library may rest on ``assert``, which ``python -O``
strips, and no handler may catch every exception, which would turn a bug
into a data row.  Every error class is raised somewhere in the library,
or is a base of one that is, so a deleted raise leaves no dead class.
No function body imports, so the module graph is the one the top-level
imports show and a cycle between modules fails at import time.  No budget
default is a number: each names the module constant that holds it, so no
limit is written twice, and every budget parameter is passed by some call
in the library, so a limit no caller sets is a module constant instead.
Every private module-level name is read somewhere outside its own
definition, so a replaced helper leaves no dead copy.  Every frozen
dataclass is slotted, which makes its records cheaper to build.  Every
``lru_cache`` passes an int ``maxsize`` and nothing uses ``functools.cache``,
so no cache that outlives a call grows without bound.
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


def _function_imports(tree: ast.AST) -> list[str]:
    """The import statements that sit inside a function body."""
    lines = {
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    return [f"line {n}: import in a function body" for n in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_function_body_imports(path):
    assert _function_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_import_rule_sees_nested_and_method_imports():
    source = """
import os
from . import diagram


def f():
    from . import diagram

    def g():
        import json


class C:
    async def m(self):
        import math
"""
    assert _function_imports(ast.parse(source)) == [
        "line 7: import in a function body",
        "line 10: import in a function body",
        "line 15: import in a function body",
    ]


def _unraised_errors(errors: ast.AST, modules: list[ast.AST]) -> list[str]:
    """Classes defined in ``errors`` that no ``raise`` in ``modules`` names,
    directly or through a subclass."""
    bases = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for node in errors.body
        if isinstance(node, ast.ClassDef)
    }
    stack = []
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                stack.append(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    live = set()
    while stack:
        name = stack.pop()
        if name in bases and name not in live:
            live.add(name)
            stack.extend(bases[name])
    return sorted(bases.keys() - live)


def test_every_error_class_is_raised():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    errors = trees[[path.name for path in MODULES].index("errors.py")]
    assert _unraised_errors(errors, trees) == []


def test_the_error_rule_follows_bases_and_attributes():
    errors = ast.parse(
        """
class Base(Exception): pass
class Middle(Base): pass
class Leaf(Middle, ValueError): pass
class Named(Base): pass
class Dead(Base): pass
class DeadLeaf(Dead): pass
"""
    )
    module = ast.parse(
        """
raise Leaf("x")
raise errors.Named
raise
raise stage.halted
"""
    )
    assert _unraised_errors(errors, [module]) == ["Dead", "DeadLeaf"]


def _is_number(node: ast.AST) -> bool:
    """A numeric literal: number constants, signs and arithmetic only."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float, complex)
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_number(node.left) and _is_number(node.right)
    return False


def _literal_budgets(tree: ast.AST) -> list[str]:
    """Numeric defaults of a parameter whose name contains ``budget``, and
    of the ``budget`` entry of a ``_FLAGS`` dict."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [
                *zip(positional[len(positional) - len(args.defaults):], args.defaults),
                *zip(args.kwonlyargs, args.kw_defaults),
            ]
            found += [
                (default.lineno, f"{arg.arg}={ast.unparse(default)}")
                for arg, default in pairs
                if "budget" in arg.arg and default is not None and _is_number(default)
            ]
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_FLAGS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for key, value in zip(node.value.keys, node.value.values):
                if isinstance(key, ast.Constant) and key.value == "budget":
                    found += [
                        (kw.value.lineno, f"_FLAGS budget default={ast.unparse(kw.value)}")
                        for kw in getattr(value, "keywords", ())
                        if kw.arg == "default" and _is_number(kw.value)
                    ]
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_budget_default_is_a_literal(path):
    assert _literal_budgets(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_budget_rule_sees_every_literal_default():
    source = """
def f(x, budget=10_000, step_budget=LIMIT, *, tower_budget=2 * 10**6):
    pass


def g(budget=-1, /, size=5, *, node_budget=None, other=3):
    return lambda state_budget=1.5: state_budget


_FLAGS = {
    "seed": dict(type=int, default=0),
    "budget": dict(type=int, default=10_000),
}
_FLAGS = {"budget": dict(type=int, default=approx.DEFAULT_SPLIT_BUDGET)}
"""
    assert _literal_budgets(ast.parse(source)) == [
        "line 2: budget=10000",
        "line 2: tower_budget=2 * 10 ** 6",
        "line 6: budget=-1",
        "line 7: state_budget=1.5",
        "line 12: _FLAGS budget default=10000",
    ]


def _unpassed_budgets(modules: list[ast.Module]) -> list[str]:
    """``function(parameter)`` for each parameter whose name contains
    ``budget`` that no call in ``modules`` to a function of that name
    passes: by keyword, by ``**kwargs``, or by position (a starred
    argument passes every position).  ``self`` and ``cls`` take no
    position of a call."""
    params: dict[tuple[str, str], int | None] = {}
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional = node.args.posonlyargs + node.args.args
                if positional and positional[0].arg in ("self", "cls"):
                    positional = positional[1:]
                for index, arg in enumerate(positional):
                    if "budget" in arg.arg:
                        params[node.name, arg.arg] = index
                for arg in node.args.kwonlyargs:
                    if "budget" in arg.arg:
                        params[node.name, arg.arg] = None
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, param: str, index: int | None) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        return index is not None and (starred or len(call.args) > index)

    return sorted(
        f"{function}({param})"
        for (function, param), index in params.items()
        if not any(passes(call, param, index) for call in calls.get(function, ()))
    )


def test_every_budget_parameter_is_passed():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    assert _unpassed_budgets(trees) == []


def test_the_budget_parameter_rule_sees_each_way_of_passing():
    module = ast.parse(
        """
def unpassed(x, budget=LIMIT, other=None):
    return x


def by_keyword(x, budget=LIMIT):
    return x


def by_kwargs(x, *, node_budget=LIMIT):
    return x


def by_position(x, step_budget=LIMIT):
    return x


def by_star(x, budget=LIMIT):
    return x


class Search:
    def run(self, x, tower_budget=LIMIT):
        return x
"""
    )
    calls = ast.parse(
        """
unpassed(1, other=2)
unpassed(1)
by_keyword(1, budget=2)
by_kwargs(1, **options)
module.by_position(1, 2)
by_star(*args)
Search().run(1, 5)
"""
    )
    assert _unpassed_budgets([module, calls]) == ["unpassed(budget)"]


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _unread_private_names(modules: list[ast.Module]) -> list[str]:
    """Private module-level names of ``modules`` (one underscore, not
    dunders) that no statement other than their own definition loads, by
    name or as an attribute."""
    private, loaded = set(), set()
    for tree in modules:
        for top in tree.body:
            own = _defined_names(top)
            private.update(n for n in own if n.startswith("_") and not n.startswith("__"))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    loaded.add(name)
    return sorted(private - loaded)


def test_every_private_name_is_read():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    assert _unread_private_names(trees) == []


def test_the_private_name_rule_sees_unused_and_recursive_only_helpers():
    module = ast.parse(
        """
def _unused():
    return 1


def _recursive(n):
    return _recursive(n - 1) if n else 0


def _used():
    return 2


class _Read:
    pass


_TABLE: dict = {"a": _used}
_COUNT = __version__ = 0


def public(x: _Read):
    return _TABLE[x]
"""
    )
    other = ast.parse("from . import module\n\nmodule._COUNT += 1\nprint(module._COUNT)\n")
    assert _unread_private_names([module, other]) == ["_recursive", "_unused"]


def _unslotted_records(tree: ast.AST) -> list[str]:
    """Class decorators ``dataclass(frozen=True, ...)`` that do not also
    pass ``slots=True``."""

    def is_true(flags: dict[str, ast.expr], key: str) -> bool:
        value = flags.get(key)
        return isinstance(value, ast.Constant) and value.value is True

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            flags = {kw.arg: kw.value for kw in decorator.keywords}
            if name == "dataclass" and is_true(flags, "frozen") and not is_true(flags, "slots"):
                found.append(f"line {decorator.lineno}: {node.name} is frozen but not slotted")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_frozen_dataclass_is_slotted(path):
    assert _unslotted_records(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_slots_rule_sees_every_unslotted_frozen_form():
    source = """
@dataclass(frozen=True)
class Bare:
    x: int


@dataclasses.dataclass(frozen=True, slots=False)
class Off:
    x: int


@dataclass(slots=True, frozen=True, eq=False)
class Slotted:
    x: int


@dataclass
class Mutable:
    x: int


@dataclass(order=True)
class Ordered:
    x: int


class Outer:
    @dataclass(eq=True, frozen=True)
    class Inner:
        x: int
"""
    assert _unslotted_records(ast.parse(source)) == [
        "line 2: Bare is frozen but not slotted",
        "line 7: Off is frozen but not slotted",
        "line 28: Inner is frozen but not slotted",
    ]


def _unbounded_caches(tree: ast.AST) -> list[str]:
    """Uses of ``functools.cache``, and of ``lru_cache`` other than a call
    that passes an int ``maxsize`` by position or keyword."""

    def name(node: ast.AST) -> str | None:
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache"
    ]
    found = []
    for call in calls:
        sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
        if not (sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
            found.append((call.lineno, "lru_cache without an int maxsize"))
    called = {id(call.func) for call in calls}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if name(node) == "lru_cache" and id(node) not in called:
                found.append((node.lineno, "lru_cache without an int maxsize"))
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "functools.cache":
                found.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                found.append((node.lineno, "functools.cache"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_cache_is_bounded(path):
    assert _unbounded_caches(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_cache_rule_sees_every_unbounded_form():
    source = """
import functools
from functools import cache, lru_cache


@lru_cache
def bare(x):
    return x


@lru_cache()
def empty(x):
    return x


@functools.lru_cache(maxsize=None)
def unbounded(x):
    return x


@functools.cache
def cached(x):
    return x


by_position = lru_cache(None)(dict)
by_name = lru_cache(maxsize=SIZE)(dict)
by_bool = lru_cache(maxsize=True)(dict)
wrapped = lru_cache(dict)
kept = lru_cache(maxsize=4096)(dict)
kept_by_position = functools.lru_cache(256, typed=True)(dict)
"""
    assert _unbounded_caches(ast.parse(source)) == [
        "line 3: functools.cache",
        "line 6: lru_cache without an int maxsize",
        "line 11: lru_cache without an int maxsize",
        "line 16: lru_cache without an int maxsize",
        "line 21: functools.cache",
        "line 26: lru_cache without an int maxsize",
        "line 27: lru_cache without an int maxsize",
        "line 28: lru_cache without an int maxsize",
        "line 29: lru_cache without an int maxsize",
    ]
