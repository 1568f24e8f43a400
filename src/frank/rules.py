"""Parser and printer for the one-line fuzzy rule language.

Grammar::

    rule    := "if" clause ("and" clause)* "->" clause ["weight" NUMBER]
    clause  := "(" IDENT "is" ["not"] IDENT ")"
    IDENT   := [A-Za-z_][A-Za-z0-9_]*
    NUMBER  := digits, optional fraction, optional exponent

The arrow may be written ``->`` or the typographic ``→``; the printer always
emits ``->``.  An omitted weight clause means weight 1.0 and is never printed.
Identifiers are case-sensitive.  ``not`` binds to the set label only; there is
no ``or`` connective and no antecedent-level negation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConfigError, FrankError

_KEYWORDS = frozenset({"if", "and", "is", "not", "weight"})

# \S, not ".": a catch-all that also matched whitespace would let \s* give
# back trailing whitespace and report it as a bad character.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->|→)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<identifier>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<bad>\S))"
)


class _Token(NamedTuple):
    kind: str
    lexeme: str
    column: int


@dataclass(frozen=True)
class RuleClause:
    variable: str
    label: str
    negated: bool = False


@dataclass(frozen=True)
class RuleAst:
    antecedent: tuple[RuleClause, ...]
    consequent: RuleClause
    weight: float = 1.0
    #: the source line the rule came from, for error messages
    line: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.antecedent:
            raise ConfigError("rule has no antecedent clause", line=self.line)


class ParseError(FrankError):
    """Syntax error, carrying the 1-based position and the expected kinds."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        self.position = (line, column)
        self.expected = expected
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line


def _lex(source: str, line: int) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        lexeme = match[kind]
        column = match.start(kind) + 1
        if kind == "bad":
            raise ParseError(
                f"found {lexeme!r}, expected identifier, number, "
                "parenthesis, or arrow",
                line, column,
                ("identifier", "number", "lparen", "rparen", "arrow"),
            )
        if kind == "identifier" and lexeme in _KEYWORDS:
            kind = f"kw_{lexeme}"
        tokens.append(_Token(kind, lexeme, column))
    return tokens


class _Parser:
    def __init__(self, source: str, line: int | None):
        self.source_line = line
        # positions in a ParseError count from line 1 without a source line
        self.line = line or 1
        self.tokens = _lex(source, self.line)
        self.tokens.append(_Token("end of line", "", len(source) + 1))
        self.pos = 0

    def _expect(self, *kinds: str) -> _Token:
        """Consume the next token, which must be of one of ``kinds``."""
        token = self.tokens[self.pos]
        if token.kind not in kinds:
            found = repr(token.lexeme) if token.lexeme else token.kind
            raise ParseError(f"found {found}, expected {' or '.join(kinds)}",
                             self.line, token.column, kinds)
        self.pos += 1
        return token

    def _accept(self, kind: str) -> bool:
        """Consume the next token if it is an optional ``kind``."""
        if self.tokens[self.pos].kind != kind:
            return False
        self.pos += 1
        return True

    def _clause(self) -> RuleClause:
        self._expect("lparen")
        variable = self._expect("identifier").lexeme
        self._expect("kw_is")
        negated = self._accept("kw_not")
        label = self._expect("identifier").lexeme
        self._expect("rparen")
        return RuleClause(variable, label, negated)

    def rule(self) -> RuleAst:
        self._expect("kw_if")
        antecedent = [self._clause()]
        while self._accept("kw_and"):
            antecedent.append(self._clause())
        self._expect("arrow")
        consequent = self._clause()
        weight = 1.0
        if self._accept("kw_weight"):
            number = self._expect("number")
            weight = float(number.lexeme)
            if not 0.0 < weight <= 1.0:
                raise ParseError(
                    f"weight {number.lexeme} outside (0, 1]",
                    self.line, number.column, ("number",),
                )
        self._expect("end of line")
        return RuleAst(tuple(antecedent), consequent, weight, self.source_line)


def parse_rule(source: str, line: int | None = None) -> RuleAst:
    """Parse one rule line; raises :class:`ParseError` on any deviation.

    ``line`` is the rule's source line: the rule carries it, and a
    :class:`ParseError` names it (line 1 without one).
    """
    return _Parser(source, line).rule()


def _format_clause(clause: RuleClause) -> str:
    negation = "not " if clause.negated else ""
    return f"({clause.variable} is {negation}{clause.label})"


def print_rule(ast: RuleAst) -> str:
    """Canonical one-line form; ``parse_rule(print_rule(ast)) == ast``."""
    antecedent = " and ".join(map(_format_clause, ast.antecedent))
    weight = f" weight {ast.weight!r}" if ast.weight != 1.0 else ""
    return f"if {antecedent} -> {_format_clause(ast.consequent)}{weight}"
