"""The package's layering, read from each module's syntax tree.

Evaluation reads retrieval's output, not the other way round: the run
types and the run format's one-word rule live where runs are read and
written, so ``frank.evaluation`` and ``frank.index`` import no frank module
but ``frank.errors``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "frank"
TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(PACKAGE.glob("*.py"))}


def frank_imports(tree: ast.Module) -> set[str]:
    """The frank modules a module imports, by their names in the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.partition(".")[0] == "frank":
                names.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[2] for alias in node.names
                         if alias.name.partition(".")[0] == "frank")
    return names


def defined_in(name: str) -> list[str]:
    """The modules that define ``name`` as a module-level function or
    class."""
    return [module for module, tree in TREES.items()
            if any(isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name == name for node in tree.body)]


@pytest.mark.parametrize("module", ["evaluation.py", "index.py", "errors.py"])
def test_module_imports_only_errors(module):
    assert frank_imports(TREES[module]) <= {"errors"}


def test_finds_every_kind_of_frank_import():
    tree = ast.parse("from .errors import a\nfrom . import fis\n"
                     "from frank.ranker import b\nimport frank.rules\n"
                     "import numpy\nfrom json import dumps\n")
    assert frank_imports(tree) == {"errors", "fis", "ranker", "rules"}


@pytest.mark.parametrize("name, module", [
    ("one_word", "errors.py"), ("RankedEntry", "evaluation.py"),
    ("RankedEntries", "evaluation.py"), ("RankedList", "evaluation.py")])
def test_defined_in_one_module(name, module):
    assert defined_in(name) == [module]
