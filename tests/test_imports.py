"""Every name the package and the scripts import is used, every private
helper of the package is referenced, and nothing in the package is kept
only for its tests.

No linter runs on this repository, so these stdlib `ast` checks stand in
for one.  A name counts as used when the module reads it, lists it in
``__all__``, or names it in a quoted annotation.  A dead import in a
module that the command line loads costs start-up time in every process.
A module-level private function or class counts as referenced when some
source of the repository reads its name, as a name, an attribute or a
string, outside its own definition; one that nothing names is a helper
left behind.  A module-level function or class of the package, public or
private, that the tests read but no module of the package, script or
benchmark does is kept only for its tests, and belongs with them.  A
module of the package reads an attribute ``x._name`` of another object
only when it defines ``_name`` itself: a private name of another module,
such as the normal-form kernel of ``UnstableAlgebra``, is read through
that module's public calls.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/conjspaces/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("scripts/*.py")])
PROGRAM = sorted([*FILES, *ROOT.glob("perfbench/*.py")])
TESTS = sorted(ROOT.glob("tests/*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.List, ast.Tuple))
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "from json import dumps, loads as read\n"
              "from typing import Mapping\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'Mapping') -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["read"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _names(node) -> Counter:
    """How often each name is read under node: bare names, attributes and
    strings that spell an identifier."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out[n.value] += 1
    return out


def unreferenced_helpers(module: str, read: Counter, tested: Counter) -> list[str]:
    """The module-level functions and classes of ``module`` that the
    program sources, by their count ``read`` (``module`` among them), read
    only inside their own definition, and that are private or that the
    tests read, by their count ``tested``; in definition order."""
    tree = ast.parse(module)
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
            and (node.name.startswith("_") or tested[node.name])
            and read[node.name] == _names(node)[node.name]]


def test_checker_finds_an_unreferenced_helper():
    module = ("def _used():\n"
              "    return 1\n"
              "def _dead(n):\n"
              "    return _dead(n - 1) if n else 0\n"
              "class _Read:\n"
              "    pass\n"
              "def _by_name():\n"
              "    pass\n"
              "def _tested():\n"
              "    pass\n"
              "def tested():\n"
              "    pass\n"
              "def public():\n"
              "    return _used()\n")
    reader = "import m\nm._Read()\ngetattr(m, '_by_name')\nm.public()\n"
    test = "import m\nm._tested()\nm.tested()\nm.public()\n"
    read = _names(ast.parse(module)) + _names(ast.parse(reader))
    assert unreferenced_helpers(module, read, _names(ast.parse(test))) == [
        "_dead", "_tested", "tested"]


def _read_by(paths) -> Counter:
    read: Counter = Counter()
    for path in paths:
        read += _names(ast.parse(path.read_text(encoding="utf-8")))
    return read


def test_no_unreferenced_helpers():
    read, tested = _read_by(PROGRAM), _read_by(TESTS)
    dead = {path.name: unreferenced_helpers(path.read_text(encoding="utf-8"),
                                            read, tested)
            for path in PACKAGE}
    assert {name: helpers for name, helpers in dead.items() if helpers} == {}


def foreign_private_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each read ``x._name``, x other than ``self`` or
    ``cls``, of a single-underscore name that ``source`` does not define
    as a function, class, variable or attribute of ``self`` or ``cls``;
    in line order."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) in ("self", "cls")):
            defined.add(node.attr)
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and n.attr.startswith("_") and not n.attr.endswith("__")
                  and getattr(n.value, "id", None) not in ("self", "cls")
                  and n.attr not in defined)


def test_checker_finds_a_foreign_private_read():
    source = ("import m\n"
              "class A:\n"
              "    def __init__(self):\n"
              "        self._own = 1\n"
              "    def _helper(self):\n"
              "        return self._other\n"
              "    @classmethod\n"
              "    def make(cls):\n"
              "        return cls._made\n"
              "def f(a, b):\n"
              "    a._rows[0] = b._helper() + a._own + a.__class__.__name__\n"
              "    b._kernel = m._table\n"
              "    return a._decode(b._kernel)\n")
    assert foreign_private_reads(source) == [
        (11, "_rows"), (12, "_table"), (13, "_decode"), (13, "_kernel")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_foreign_private_reads(path):
    assert foreign_private_reads(path.read_text(encoding="utf-8")) == []
