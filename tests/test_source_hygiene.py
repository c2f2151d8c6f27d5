"""Static checks on the package source, with the stdlib `ast` only.

No module in src/cmfields/ except `__init__.py` (whose imports are its
re-exports) imports a name that it never uses or a sibling module that
LAYERS does not allow, and no module in src/cmfields/ has a bare `assert`,
which `python -O` strips: a check the theory requires raises a typed error.
No module imports `dataclasses` or `typing`, which would load `inspect`,
`ast` and more before every command (checked also by a real import).
"""

import ast
import subprocess
import sys
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


# module -> the sibling modules it may import.  The character layer and the
# quadratic-form layer stand on `arith` alone, so the quadratic oracles stay
# independent of the character theory they cross-check, and Q(zeta) numbers
# reach only the h- engine.
LAYERS = {
    "errors": set(),
    "arith": {"errors"},
    "cyclotomic": {"arith", "errors"},
    "characters": {"arith", "errors"},
    "quadratic": {"arith", "errors"},
    "fields": {"arith", "characters", "errors"},
    "unitindex": {"arith", "errors", "fields", "quadratic"},
    "hminus": {"arith", "characters", "cyclotomic", "errors", "fields", "unitindex"},
    "theorems": {"arith", "characters", "errors", "fields", "hminus", "quadratic",
                 "unitindex"},
    "fieldspec": {"characters", "errors", "fields"},
    "cli": {"arith", "errors", "fieldspec", "fields", "hminus", "theorems",
            "unitindex"},
    "__main__": {"cli"},
}


def _siblings(tree):
    """The package modules named by each relative import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
    return found


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_lower_layers(path):
    assert path.stem in LAYERS, f"{path.name} has no entry in LAYERS"
    tree = ast.parse(path.read_text(), filename=str(path))
    extra = _siblings(tree) - LAYERS[path.stem]
    assert not extra, f"{path.name} imports modules above its layer: {sorted(extra)}"


def test_check_sees_a_layer_breach():
    tree = ast.parse("import math\nfrom .arith import kronecker\n"
                     "from .fields import AbelianField\nfrom . import cyclotomic\n")
    assert _siblings(tree) == {"arith", "cyclotomic", "fields"}
    assert _siblings(tree) - LAYERS["quadratic"] == {"cyclotomic", "fields"}


def _asserts(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_has_no_bare_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _asserts(tree), f"{path.name} has a bare assert on lines {_asserts(tree)}"


def test_check_sees_a_bare_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, x\n    return x\n")
    assert _asserts(tree) == [3]


# stdlib modules that cost every command start-up time and buy the package
# nothing: `dataclasses` loads `inspect`, `ast`, `dis`, `tokenize` and more
SLOW_IMPORTS = {"dataclasses", "typing"}


def _absolute_imports(tree):
    """The top-level module named by each absolute import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_no_slow_stdlib_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    slow = _absolute_imports(tree) & SLOW_IMPORTS
    assert not slow, f"{path.name} imports {sorted(slow)}"


def test_check_sees_a_slow_import():
    tree = ast.parse("import dataclasses as dc\nfrom typing import Optional\n"
                     "from __future__ import annotations\nfrom .typing import x\n"
                     "import collections.abc\n")
    assert _absolute_imports(tree) == {"dataclasses", "typing", "__future__",
                                       "collections"}
    assert _absolute_imports(tree) & SLOW_IMPORTS == {"dataclasses", "typing"}


def test_cli_import_leaves_slow_modules_unloaded():
    """`python3 -S` skips site, whose .pth files may load these themselves."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cmfields.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
