"""Static checks on the package source, with the stdlib `ast` only.

No module in src/cmfields/ except `__init__.py` (whose imports are its
re-exports) imports a name that it never uses or a sibling module that
LAYERS does not allow, and no module in src/cmfields/ has a bare `assert`,
which `python -O` strips: a check the theory requires raises a typed error.
Only `arith` raises `NotFundamentalDiscriminant`: every module that needs a
fundamental discriminant calls its one gate.
No module imports `dataclasses` or `typing`, which would load `inspect`,
`ast` and more before every command (checked also by a real import).
Every name in `cmfields.__all__` resolves.
Every function, class and method that a module defines is called or read
somewhere else in the package: the only exceptions are dunders and the
names `perfbench/tracer.py` wraps or rebinds.  A helper that only tests
use lives in an oracle module under tests/.
"""

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cmfields"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def test_every_exported_name_resolves():
    import cmfields

    assert len(set(cmfields.__all__)) == len(cmfields.__all__)
    missing = [name for name in cmfields.__all__ if not hasattr(cmfields, name)]
    assert not missing, f"cmfields.__all__ names what it does not define: {missing}"


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


def _constructs(tree, name):
    """Lines that call `name`, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def test_discriminant_gate_has_one_owner():
    owners = [p.name for p in ALL_MODULES
              if _constructs(ast.parse(p.read_text()), "NotFundamentalDiscriminant")]
    assert owners == ["arith.py"]


def test_check_sees_a_second_gate():
    tree = ast.parse("from . import errors\n"
                     "from .errors import NotFundamentalDiscriminant\n"
                     "def f(d):\n    if d % 4 == 2:\n"
                     "        raise NotFundamentalDiscriminant(f'{d}')\n"
                     "    raise errors.NotFundamentalDiscriminant(str(d))\n")
    assert _constructs(tree, "NotFundamentalDiscriminant") == [5, 6]


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


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and
    of each method, dunders left out."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                      if isinstance(sub, ast.FunctionDef)]
        for qualname, sub in found:
            if not (sub.name.startswith("__") and sub.name.endswith("__")):
                yield qualname, sub


def _references(node):
    """Every name read under `node`, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _uncalled(trees, exempt=frozenset()):
    """(module, qualified name) of each definition, outside `exempt`, whose
    name the package refers to nowhere outside the definition itself."""
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return [(module, qualname) for module, tree in trees.items()
            if module != "__init__"
            for qualname, node in _definitions(tree)
            if (module, qualname) not in exempt
            and total[node.name] == _references(node)[node.name]]


def _traced_names():
    """(module, qualified name) of every SPANS target of the benchmark's
    tracer, and the conjugate map it rebinds to count calls."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return set(tracer.SPANS) | {("cyclotomic", "galois_apply")}


def test_every_definition_is_called():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    uncalled = _uncalled(trees, _traced_names())
    assert not uncalled, f"defined in src/cmfields but never used there: {uncalled}"


def test_check_sees_an_uncalled_definition():
    trees = {
        "__init__": ast.parse("from .a import kept, unused\n"),
        "a": ast.parse("def kept(x):\n    return kept(x - 1) if x else helper(x)\n"
                       "def helper(x):\n    return x\n"
                       "def unused():\n    return unused()\n"
                       "class Box:\n    def __init__(self):\n        self.v = 1\n"
                       "    def shown(self):\n        return self.v\n"
                       "    def hidden(self):\n        return 0\n"),
        "b": ast.parse("from .a import Box, kept\nprint(kept(Box().shown()))\n"),
    }
    assert _uncalled(trees) == [("a", "unused"), ("a", "Box.hidden")]
    assert _uncalled(trees, {("a", "Box.hidden")}) == [("a", "unused")]
