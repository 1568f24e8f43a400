"""Exception taxonomy shared across the package, and the one reader of
text input files and of the numbers in them and in flags.

``UsageError`` (and its subclasses) marks bad invocations: the CLI maps it
to exit code 1.  Every other ``FrankError`` is a data or format problem and
maps to exit code 2.
"""

from __future__ import annotations

from pathlib import Path


class FrankError(Exception):
    """Base class for all errors raised by this package.

    ``line``, when given, is the 1-based input line the error refers to;
    the message is then prefixed with ``line N: ``.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UsageError(FrankError):
    """Bad invocation: unknown variable name, missing flag, bad flag value."""


class QueryError(UsageError):
    """A query that cannot be executed, e.g. empty after tokenization."""


class ConfigError(FrankError):
    """Invalid inference-system definition, at construction or load time."""


class CorpusError(FrankError):
    """Malformed corpus input (bad JSON line, duplicate doc_id, empty corpus)."""


class IndexFormatError(FrankError):
    """Corrupt or unsupported serialized index file."""


class RunFormatError(FrankError):
    """Malformed run file or qrels file."""


class EvalError(FrankError):
    """Evaluation cannot proceed: topic mismatch, no relevant documents."""


def read_text(path: str | Path, error: type[FrankError]) -> str:
    """A UTF-8 text file's contents, with ``\\r\\n`` and ``\\r`` read as
    ``\\n``, as ``Path.read_text(encoding="utf-8")`` reads them.

    Invalid UTF-8 raises ``error`` with the line, as :func:`split_lines`
    numbers the text before it, and the byte within that line as the file
    holds it, a leading byte order mark included.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _universal_newlines(data[:exc.start].decode("utf-8")).split(
            "\n")
        raise error(f"invalid UTF-8 at byte {len(lines[-1].encode())}",
                    line=len(lines)) from None
    return _universal_newlines(text)


def split_lines(text: str) -> list[str]:
    """``text``'s lines, as ``str.splitlines`` gives them, except that a
    leading byte order mark is dropped and a line ends only at ``\\n``,
    ``\\r\\n`` or ``\\r``: a form feed, U+2028 and the other breaks
    ``str.splitlines`` knows stay inside their line."""
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = _universal_newlines(text)
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_number(text: str, kind: type[int] | type[float]) -> int | float:
    """``kind(text)``, but ``ValueError`` for ``_`` or non-ASCII text."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return kind(text)
