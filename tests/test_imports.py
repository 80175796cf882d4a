"""No module of the package imports a name it never uses, defines a
function, class or constant that nothing reads or exports, calls `id`,
imports anything beyond the standard library or holds a tolerance-sized
float literal, and a CLI run loads no `dataclasses`, `inspect`, `ast` or
`dis`.  Only the standard library's `ast` is needed, so the gates run
wherever the tests do."""

import ast
import subprocess
import sys
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


def dead_names(sources: dict, exported) -> list:
    """The module-level functions, classes and single-name assignments
    (`X = ...`, dunders exempt) of `sources` (file name -> text) that
    are not in `exported` and that no module reads: no `ast.Name` load
    and no `ast.Attribute` load names them."""
    defined, read = [], set()
    for name, source in sources.items():
        module = ast.parse(source)
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                target = stmt.name
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target = stmt.targets[0].id
            else:
                continue
            if not (target.startswith("__") and target.endswith("__")):
                defined.append((name, stmt.lineno, target))
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{name} line {line}: {def_name}"
            for name, line, def_name in defined
            if def_name not in read and def_name not in exported]


def test_every_module_level_name_is_exported_or_read():
    assert dead_names({path.name: path.read_text() for path in MODULES},
                      badicdim.__all__) == []


def test_gate_finds_dead_names():
    sources = {
        "a.py": ("def called():\n    pass\ndef dead():\n    pass\n"
                 "class Unread:\n    def method(self):\n        pass\n"
                 "def public():\n    pass\ndef by_attribute():\n    pass\n"
                 "def stored():\n    pass\n"),
        "b.py": ("from .a import called, dead\nfrom . import a\n"
                 "a.stored = 1\nx = called(), a.by_attribute\n"
                 "async def tail():\n    pass\n"),
        "c.py": ("__version__ = '1'\nLIMIT = 3\nUNUSED = 'tag'\n"
                 "ROWS: int = 2\nA = B = 0\nC, D = 1, 2\n"
                 "def f():\n    LOCAL = LIMIT\n    return LOCAL\n")}
    assert dead_names(sources, ["public", "f"]) == [
        "a.py line 3: dead", "a.py line 5: Unread", "a.py line 12: stored",
        "b.py line 4: x", "b.py line 5: tail", "c.py line 3: UNUSED"]


def id_calls(source: str) -> list:
    """The lines of `source` that call the builtin `id`.  A cache keyed
    by `id(node)` can alias a node that died and left its id to another;
    caches key by the node itself, which hashes by identity and stays
    alive while cached."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "id")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_calls_no_id(path):
    assert id_calls(path.read_text()) == []


def test_gate_finds_id_calls():
    source = ("memo = {}\n"
              "def f(node, k):\n    return memo.get((id(node), k))\n"
              "def g(node):\n    node.id = 1\n    return node.id, id\n"
              "h = lambda n: {id(n): n}\n")
    assert id_calls(source) == ["line 3", "line 7"]


def foreign_imports(source: str) -> list:
    """The absolute imports of `source`, at any depth (lazy imports in
    functions too), whose top-level module is not in the standard
    library.  Relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def test_stdlib_gate_finds_foreign_and_lazy_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy\nfrom . import core\n"
              "from .core import CubeTree\n"
              "def f():\n    import scipy.linalg\n"
              "    from json import loads\n"
              "    from mpmath import mpf\n")
    assert foreign_imports(source) == [
        "line 2: numpy", "line 6: scipy.linalg", "line 8: mpmath"]


def tiny_floats(source: str) -> list:
    """The float literals x of `source` with 0 < |x| < 1e-6, such as a
    `tol = 1e-9`.  Every decision is exact, so no comparison needs a
    tolerance (a negative literal is a minus applied to a positive one)."""
    return [f"line {line}: {value!r}" for line, value in sorted(
        (node.lineno, node.value) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < 1e-6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_holds_no_tolerance_literal(path):
    assert tiny_floats(path.read_text()) == []


def test_gate_finds_tolerance_literals():
    source = ("tol = 1e-9\n"
              "def ok(h, lo):\n    return lo - 5e-7 <= h + 0.0 < 2.5\n"
              "x = 1e-6, 10 ** -9, '1e-9', 1j * 1e-12\n")
    assert tiny_floats(source) == ["line 1: 1e-09", "line 3: 5e-07",
                                   "line 4: 1e-12"]


RUN_EXTRACT_LOWER = """
import sys
before = set(sys.modules)
from badicdim.cli import main
code = main(["extract", "lower", "--alpha", "2/5", "--M", "5",
             "--depth", "1", "--in", sys.argv[1]])
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"badicdim"}))
print(sorted({"dataclasses", "inspect", "ast", "dis"} & set(sys.modules)))
sys.exit(code)
"""


def test_irrational_extract_lower_loads_only_the_standard_library(tmp_path):
    # lambda = 5^(-5/2) is irrational: the r column prints 5**(-5/2)
    source = tmp_path / "full.bdt"
    source.write_text("bdt b=5 d=1 n=2\n" + "".join(
        f"{i}{j}\n" for i in range(5) for j in range(5)))
    run = subprocess.run(
        [sys.executable, "-c", RUN_EXTRACT_LOWER, str(source)],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(badicdim.__file__).parents[1])})
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[1].split("\t")[1:3] == ["1", "5**(-5/2)"]
    # records are plain classes: no `dataclasses` and its import chain
    assert lines[-2:] == ["[]", "[]"]
