"""The package parses under the oldest Python that pyproject.toml admits,
so syntax newer than ``requires-python`` fails here, not on install."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "frank").glob("*.py"))


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text,
                      re.MULTILINE)
    assert match, "pyproject.toml has no requires-python floor"
    return int(match[1]), int(match[2])


def test_the_check_rejects_newer_syntax():
    """``except*`` arrived in 3.11; parsing it as 3.10 must fail, or the
    test below would pass whatever the sources hold."""
    assert oldest_python() == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=oldest_python())


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path),
              feature_version=oldest_python())
