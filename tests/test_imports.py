"""Every name a repgame module imports is used in that module, and every
private module-level name has a reader inside the package.

No linter is assumed, so the checks walk each module's syntax tree with the
standard library's ``ast``. A name counts as used when it appears anywhere
in the module as a bare name (calls, annotations, attribute bases). Names
imported only to re-export them are allowed where they are named: in
``__init__.py``, the package's public surface, and in ``REEXPORTS``.

A private function, class or constant (one leading underscore) that only
tests read is code with no reader other than a test of itself, so it should
go. A reader is a module of the package that loads the name, reads it as an
attribute or imports it.
"""
import ast
from pathlib import Path

import pytest

import repgame

PACKAGE = Path(repgame.__file__).resolve().parent

# experiment.INCONCLUSIVE is read from the module that writes the statuses.
REEXPORTS = {"experiment.py": {"INCONCLUSIVE"}}
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set:
    """Names bound by the import statements of ``source`` that it never uses."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.linalg\n"
              "from math import inf, pi as PI\n"
              "def f(x: inf) -> None:\n    return numpy.linalg.norm(PI)\n")
    assert unused_imports(source) == {"os", "osp"}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    allowed = REEXPORTS.get(module, set())
    unused = unused_imports((PACKAGE / module).read_text())
    assert unused <= allowed, f"{module} imports but never uses {sorted(unused - allowed)}"


def private_definitions(source: str) -> set:
    """The private functions, classes and constants ``source`` defines at top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(source: str) -> set:
    """Names ``source`` loads as bare names, reads as attributes or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_checker_finds_unread_private_names():
    source = ("import math\n_A = 1\n_B: int = 2\n_C, D = 3, 4\n"
              "def _f():\n    return _A\nclass _K:\n    pass\n"
              "def _g():\n    return math._private\n__all__ = []\n")
    assert private_definitions(source) == {"_A", "_B", "_C", "_f", "_K", "_g"}
    assert private_definitions(source) - read_names(source) == {"_B", "_C", "_f", "_K", "_g"}
    assert "_g" in read_names("from .m import _g\n")


def test_every_private_name_has_a_reader():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    read = set().union(*map(read_names, sources.values()))
    unread = {module: sorted(private_definitions(source) - read)
              for module, source in sources.items()}
    unread = {module: names for module, names in unread.items() if names}
    assert not unread, f"private names no module reads: {unread}"
