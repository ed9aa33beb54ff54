"""No module of the package or its tests imports a name it never uses, and
the package defines no private name that it never reads.

A stale-import check on the standard library's ``ast``: a name counts as
used where the module reads it, or where a string that is not a docstring
names it (a patch target such as ``"locmax.bench.read_graph"``). The
package's ``__init__`` re-exports are its public names, so they are exempt.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "locmax").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """The names that ``source`` imports and never uses; relative imports
    count as used when ``reexports`` is set."""
    tree = ast.parse(source)
    imported = []
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if not (reexports and node.level):
                imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.body and isinstance(node.body[0], ast.Expr):
                docstrings.add(id(node.body[0].value))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    strings = " ".join(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                       and isinstance(n.value, str) and id(n) not in docstrings)
    return [name for name in imported
            if name not in names and not re.search(rf"\b{re.escape(name)}\b", strings)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def test_an_unused_import_is_found():
    source = ('"""Mentions np."""\nimport numpy as np\nfrom pathlib import Path\n'
              'from .graph import Graph\n\ndef f(monkeypatch):\n'
              '    monkeypatch.setattr("pathlib.Path", None)\n')
    assert unused_imports(source) == ["np", "Graph"]
    assert unused_imports(source, reexports=True) == ["np"]


def dead_private_names(sources: list[str]) -> list[str]:
    """The module-level private functions, classes and constants (one
    leading underscore) of the modules ``sources`` that no module reads,
    by name or as an attribute, outside the statement defining them."""
    defined = []  # (name, id of its top-level statement)
    readers = defaultdict(set)  # name -> ids of the top-level statements reading it
    for tree in map(ast.parse, sources):
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(name, id(stmt)) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers[node.id].add(id(stmt))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    readers[node.attr].add(id(stmt))
    return [name for name, stmt in defined if not readers[name] - {stmt}]


def test_every_private_name_of_the_package_is_read():
    assert dead_private_names([path.read_text() for path in PACKAGE]) == []


def test_a_dead_private_name_is_found():
    a = ('_LIMIT = 3\n_unused = 4\n\n'
         'def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n\n'
         'class _Kept:\n    pass\n\n'
         'def _shared():\n    return _Kept\n')
    b = 'from .a import _shared\n\ndef public():\n    return _shared()\n'
    assert dead_private_names([a, b]) == ["_unused", "_helper"]
