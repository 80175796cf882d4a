"""No module of the package imports a name it never uses.  Only the
standard library's `ast` is needed, so the gate runs wherever the tests
do."""

import ast
from pathlib import Path

import pytest

import badicdim

MODULES = sorted(Path(badicdim.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by module-level imports of `source` that it never
    reads.  `from __future__` imports are exempt, and so are the names
    listed in `__all__` (re-exports)."""
    module = ast.parse(source)
    imported, exported = {}, set()
    for stmt in module.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and \
                stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt.lineno
        elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            exported |= set(ast.literal_eval(stmt.value))
    read = {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_gate_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math as m\n"
              "from .core import CubeNode, CubeTree\n"
              "from .core import read_bdt\n"
              "__all__ = ['read_bdt']\n"
              "def f(x: CubeTree):\n    return m.log(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: CubeNode"]
