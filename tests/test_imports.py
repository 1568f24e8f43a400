"""Every module-level import in ``frank`` is used by its module.

No linter ships with the project, so this walks each module's syntax tree:
a name an import binds must be loaded somewhere else in the module.
``__init__.py`` is exempt, as it imports names to re-export them, and so is
an import statement with ``# noqa: F401`` on one of its lines.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).parents[1] / "src" / "frank").glob("*.py")
    if path.name != "__init__.py")


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
