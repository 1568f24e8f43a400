"""Every module-level import in ``frank`` is used by its module, and every
private definition is referenced somewhere in the package.

No linter ships with the project, so this walks each module's syntax tree:
a name an import binds must be loaded somewhere else in the module.
``__init__.py`` is exempt, as it imports names to re-export them, and so is
an import statement with ``# noqa: F401`` on one of its lines.  A private
function, class, method or module constant (a name with a leading
underscore that is not a dunder) must be loaded as a name or read as an
attribute somewhere in ``src/frank``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parents[1] / "src" / "frank").glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names the module-level imports of ``source`` bind and the module
    never loads, each as ``line: name``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    unused = []
    for statement in tree.body:
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.ImportFrom) and \
                statement.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in
               lines[statement.lineno - 1:statement.end_lineno]):
            continue
        for alias in statement.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in loaded:
                unused.append(f"{statement.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import (dumps,  # noqa: F401\n"
              "                  loads)\n"
              "from math import pi, tau as turn\n"
              "import xml.dom\n"
              "print(sys.argv, turn)\n")
    assert unused_imports(source) == ["2: os", "5: pi", "6: xml"]


def definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """The functions, classes, methods and module constants a module
    defines, each as (line, name)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defined.extend((method.lineno, method.name)
                           for method in node.body
                           if isinstance(method, functions))
        if isinstance(node, (*functions, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined.extend((node.lineno, name.id) for target in targets
                           for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    return defined


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The private definitions in ``sources`` (file name -> text) that no
    source loads as a name or reads as an attribute, each as
    ``file:line: name``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [f"{file}:{line}: {name}" for file, tree in trees.items()
            for line, name in definitions(tree)
            if name.startswith("_") and not name.endswith("__")
            and name not in referenced]


def test_every_private_definition_is_referenced():
    assert unreferenced_private(
        {path.name: path.read_text() for path in PACKAGE}) == []


def test_finds_an_unreferenced_private_definition():
    sources = {
        "a.py": ("_USED, _SPARE = 1, 2\n"
                 "_ALONE: int = 3\n"
                 "def _helper(): return _USED\n"
                 "def _orphan(): pass\n"
                 "class _Plan:\n"
                 "    def __init__(self): self._cached()\n"
                 "    def _cached(self): pass\n"
                 "    def _stale(self): pass\n"),
        "b.py": "from a import _helper, _Plan\nprint(_helper(), _Plan)\n",
    }
    assert unreferenced_private(sources) == [
        "a.py:1: _SPARE", "a.py:2: _ALONE", "a.py:4: _orphan",
        "a.py:8: _stale"]
