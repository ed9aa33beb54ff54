"""No module of the package or its tests imports a name it never uses.

A stale-import check on the standard library's ``ast``: a name counts as
used where the module reads it, or where a string that is not a docstring
names it (a patch target such as ``"locmax.bench.read_graph"``). The
package's ``__init__`` re-exports are its public names, so they are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "locmax").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
