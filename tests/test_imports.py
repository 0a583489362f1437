"""Every name a repgame module imports is used in that module.

No linter is assumed, so the check walks each module's syntax tree with the
standard library's ``ast``. A name counts as used when it appears anywhere
in the module as a bare name (calls, annotations, attribute bases). Names
imported only to re-export them are allowed where they are named: in
``__init__.py``, the package's public surface, and in ``REEXPORTS``.
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
