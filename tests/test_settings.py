"""Every Hypothesis ``settings(...)`` call in the tests passes
``derandomize=True`` and ``deadline=None``.

So each run draws the same examples, and no example fails for taking long
on a loaded machine.  This walks each test file's syntax tree for calls to
a function or attribute named ``settings``.
"""

import ast
from pathlib import Path

import pytest

TESTS = sorted(Path(__file__).parent.rglob("*.py"))
_MISSING = object()


def _passes(call: ast.Call, keyword: str, value) -> bool:
    given = next((k.value for k in call.keywords if k.arg == keyword),
                 _MISSING)
    return isinstance(given, ast.Constant) and given.value is value


def unpinned_settings(source: str) -> list[int]:
    """The lines of the ``settings(...)`` calls in ``source`` that do not
    pass both ``derandomize=True`` and ``deadline=None``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "settings"
            and not (_passes(node, "derandomize", True)
                     and _passes(node, "deadline", None))]


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_every_settings_call_is_derandomized_without_deadline(path):
    assert unpinned_settings(path.read_text(encoding="utf-8")) == []


def test_finds_an_unpinned_settings_call():
    source = ("import hypothesis\n"
              "from hypothesis import settings\n"
              "@settings(max_examples=5, deadline=None, derandomize=True)\n"
              "def a(): pass\n"
              "@settings(max_examples=5, deadline=None)\n"
              "def b(): pass\n"
              "@hypothesis.settings(derandomize=True)\n"
              "def c(): pass\n"
              "@settings(deadline=None, derandomize=1)\n"
              "def d(): pass\n"
              "FAST = settings(deadline=None, derandomize=True)\n")
    assert unpinned_settings(source) == [5, 7, 9]
