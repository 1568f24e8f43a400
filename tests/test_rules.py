"""Rule language: parsing, printing, round-trips, error positions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frank.errors import ConfigError
from frank.fisfile import parse_fis_config
from frank.rules import (ParseError, RuleAst, RuleClause, parse_rule,
                         print_rule)

from generators import random_rule_ast

# The bundled ruleset, in both arrow spellings it appears in.
CANONICAL_RULES = [
    "if (overlap is high) → (relevance is high)",
    "if (tf is high) and (idf is high) → (relevance is high)",
    "if (overlap is not high) → (relevance is not high)",
    "if (tf is not high) and (idf is not high) → (relevance is not high)",
    "if (tf1 is high) and (idf1 is high) → (relevance is high)",
    "if (tf is high) and (idf is high) -> (relevance is high)",
]


class TestParse:
    def test_single_conjunct(self):
        ast = parse_rule("if (overlap is high) -> (relevance is high)")
        assert ast == RuleAst(
            (RuleClause("overlap", "high"),),
            RuleClause("relevance", "high"),
            1.0,
        )

    def test_negated_conjuncts_and_consequent(self):
        ast = parse_rule(
            "if (tf is not high) and (idf is not high) "
            "-> (relevance is not high)"
        )
        assert ast.antecedent == (
            RuleClause("tf", "high", negated=True),
            RuleClause("idf", "high", negated=True),
        )
        assert ast.consequent == RuleClause("relevance", "high", negated=True)

    def test_explicit_weight(self):
        ast = parse_rule("if (tf is high) -> (relevance is high) weight 0.25")
        assert ast.weight == 0.25

    def test_typographic_arrow_accepted(self):
        ascii_arrow = parse_rule("if (a is b) -> (y is z)")
        typographic = parse_rule("if (a is b) → (y is z)")
        assert ascii_arrow == typographic

    def test_canonical_ruleset_strings_parse(self):
        for source in CANONICAL_RULES:
            ast = parse_rule(source)
            assert ast.weight == 1.0
            assert ast.consequent.variable == "relevance"

    def test_missing_lparen_reports_offending_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_rule("if tf is high -> (relevance is high)")
        assert excinfo.value.position == (1, 4)
        assert "lparen" in excinfo.value.expected
        assert "'tf'" in str(excinfo.value)

    def test_weight_out_of_range(self):
        for bad in ("0", "0.0", "1.5"):
            with pytest.raises(ParseError, match=r"\(0, 1\]"):
                parse_rule(f"if (a is b) -> (y is z) weight {bad}")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="end of line"):
            parse_rule("if (a is b) -> (y is z) (extra is junk)")

    def test_unlexable_character(self):
        with pytest.raises(ParseError, match=r"'\$'"):
            parse_rule("if (a is b) -> (y is $)")

    def test_truncated_rule_reports_end_of_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_rule("if (a is b) ->")
        line, column = excinfo.value.position
        assert (line, column) == (1, 15)
        assert "end of line" in str(excinfo.value)

    def test_keywords_are_reserved(self):
        with pytest.raises(ParseError):
            parse_rule("if (not is high) -> (y is z)")


class TestParseBlock:
    """A config's ``[rules]`` section reads a block of rule lines."""

    # the variables the rules below name, then the section header
    HEAD = "".join(
        f"[{section} {name}]\nuniverse 0 1\nset high trimf 0 1 1\n"
        for section, name in (("variable", "overlap"), ("variable", "tf"),
                              ("variable", "idf"), ("output", "relevance"))
    ) + "[rules]\n"
    OFFSET = HEAD.count("\n")  # file lines before the block's first

    def parse(self, block):
        return parse_fis_config(self.HEAD + block).rules

    def test_three_line_block(self):
        block = (
            "if (overlap is high) -> (relevance is high)\n"
            "if (tf is high) and (idf is high) -> (relevance is high)\n"
            "if (tf is not high) and (idf is not high) "
            "-> (relevance is not high)\n"
        )
        rules = self.parse(block)
        assert len(rules) == 3
        assert rules[0].antecedent[0].variable == "overlap"

    def test_comments_and_blanks_skipped(self):
        rules = self.parse("# nothing\n\n   \n"
                           "if (tf is high) -> (relevance is high)\n"
                           "# here\n")
        assert [rule.line for rule in rules] == [self.OFFSET + 4]

    def test_error_carries_real_line_number(self):
        block = (
            "if (a is b) -> (y is z)\n"
            "# comment\n"
            "if broken -> (y is z)\n"
        )
        with pytest.raises(ParseError) as excinfo:
            self.parse(block)
        assert excinfo.value.position[0] == self.OFFSET + 3
        assert excinfo.value.line == self.OFFSET + 3

    def test_all_or_nothing(self):
        block = "if broken\nif (a is b) -> (y is z)\n"
        with pytest.raises(ParseError):
            self.parse(block)


class TestRuleAst:
    """A rule has at least one antecedent clause, however it is built: the
    parser never builds one without, and code may not either."""

    def test_empty_antecedent_rejected_with_its_line(self):
        with pytest.raises(ConfigError) as excinfo:
            RuleAst((), RuleClause("y", "high"), line=7)
        assert str(excinfo.value) == "line 7: rule has no antecedent clause"
        assert excinfo.value.line == 7

    def test_empty_antecedent_rejected_without_a_line(self):
        with pytest.raises(ConfigError) as excinfo:
            RuleAst((), RuleClause("y", "high"), 0.5)
        assert str(excinfo.value) == "rule has no antecedent clause"
        assert excinfo.value.line is None


class TestPrint:
    def test_canonical_form(self):
        ast = parse_rule("if   (tf is high)   and (idf is not high)"
                         "  → (relevance is high)   weight   0.5")
        assert print_rule(ast) == (
            "if (tf is high) and (idf is not high) -> (relevance is high) "
            "weight 0.5"
        )

    def test_unit_weight_omitted(self):
        ast = parse_rule("if (a is b) -> (y is z) weight 1.0")
        assert print_rule(ast) == "if (a is b) -> (y is z)"

    def test_canonical_ruleset_roundtrips(self):
        for source in CANONICAL_RULES:
            ast = parse_rule(source)
            assert parse_rule(print_rule(ast)) == ast

    def test_random_asts_roundtrip(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            ast = random_rule_ast(rng)
            assert parse_rule(print_rule(ast)) == ast


def _token_lexemes(source):
    """Lexemes of a valid rule in order, by splitting on the grammar."""
    import frank.rules as rules_module
    return [token.lexeme for token in rules_module._lex(source, 1)]


def _spans(lexemes):
    spans = []
    column = 1
    for lexeme in lexemes:
        spans.append((column, column + len(lexeme) - 1))
        column += len(lexeme) + 1
    return spans


@pytest.mark.parametrize("source", [
    "if (tf is high) and (idf is not high) -> (relevance is high) weight 0.25",
    "if (overlap is high) -> (relevance is high)",
])
def test_deletion_errors_point_inside_the_gap(source):
    """Deleting any single token either still parses or reports a column
    within the span of the token now occupying the deletion point."""
    lexemes = _token_lexemes(source)
    for index in range(len(lexemes)):
        mutated = lexemes[:index] + lexemes[index + 1:]
        line = " ".join(mutated)
        try:
            parse_rule(line)
        except ParseError as error:
            _, column = error.position
            if index < len(mutated):
                lo, hi = _spans(mutated)[index]
                assert lo <= column <= hi, (line, index, column)
            else:
                assert column == len(line) + 1, (line, index, column)


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


@pytest.mark.parametrize("source", [
    "if (tf is high) and (idf is high) -> (relevance is high)",
    "if (tf is not high) and (idf is high) → (relevance is high) weight 0.25",
])
@pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_any_whitespace_separates_tokens(source, space):
    """Every character ``str.isspace`` knows may stand around every token."""
    spaced = space + space.join(
        f"{space}{lexeme}{space}" for lexeme in _token_lexemes(source)) + space
    assert parse_rule(spaced) == parse_rule(source)


RULE_PIECES = ["if", "and", "is", "not", "weight", "->", "→", "(", ")", "tf",
               "high", "0.25", "1", "2", "1e0", " ", "\t", "\u2029", "\x85",
               "\u3000", "$", "é", "-", ">", "."]
WEIGHTED_RULE = _token_lexemes(
    "if (tf is not high) and (idf is high) -> (relevance is high) weight 0.25")


@st.composite
def rule_texts(draw):
    """Pieces of the rule alphabet in any order, or a weighted rule's tokens
    split by whitespace, with one drawn piece in one gap."""
    pieces = st.sampled_from(RULE_PIECES)
    if draw(st.booleans()):
        return "".join(draw(st.lists(pieces, max_size=24)))
    gaps = [draw(st.sampled_from([" ", "\t", "\u2029", "\u3000"]))
            for _ in range(len(WEIGHTED_RULE) + 1)]
    gaps[draw(st.integers(0, len(WEIGHTED_RULE)))] += draw(pieces)
    return "".join(gap + lexeme for gap, lexeme in zip(gaps, WEIGHTED_RULE)
                   ) + gaps[-1]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(rule_texts())
def test_rule_alphabet_parses_and_prints_back_or_fails_off_whitespace(text):
    """A parse round-trips through ``print_rule``; a ParseError points past
    the end or at a character that is not whitespace."""
    try:
        ast = parse_rule(text)
    except ParseError as error:
        _, column = error.position
        assert column == len(text) + 1 or not text[column - 1].isspace(), (
            text, column)
    else:
        assert parse_rule(print_rule(ast)) == ast
