"""Exception taxonomy shared across the package.

``UsageError`` (and its subclasses) marks bad invocations: the CLI maps it
to exit code 1.  Every other ``FrankError`` is a data or format problem and
maps to exit code 2.
"""

from __future__ import annotations


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
