"""Static checks on the package source, with the stdlib `ast` only.

No module in src/cmfields/ except `__init__.py` (whose imports are its
re-exports) imports a name that it never uses, and no module in
src/cmfields/ has a bare `assert`, which `python -O` strips: a check the
theory requires raises a typed error.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cmfields"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _imported(tree):
    """name bound by each import -> line, `from __future__` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used(tree):
    """Every name the module reads, those in quoted annotations included."""
    quoted = [ast.parse(a.value, mode="eval") for a in _annotations(tree)
              if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {node.id for t in [tree, *quoted] for node in ast.walk(t)
            if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n"
                     "def f(x: 'sep') -> 'list[int]':\n    return 'math'\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "path"}


def _asserts(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_has_no_bare_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _asserts(tree), f"{path.name} has a bare assert on lines {_asserts(tree)}"


def test_check_sees_a_bare_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, x\n    return x\n")
    assert _asserts(tree) == [3]
