"""Config and template file format: parsing, errors, round-trips."""

import dataclasses
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from frank.errors import ConfigError
from frank.fis import (MAX_RESOLUTION, OPERATORS, FisConfig,
                       LinguisticVariable, default_variable)
from frank.fisfile import (format_fis_config, format_template, load_template,
                           parse_fis_config, parse_template)
from frank.membership import MembershipFunction
from frank.rules import ParseError, parse_rule

BASIC = """\
[variable tf]
universe 0 1
set high trimf 0 1 1
set not_high trimf 0 0 1
[output relevance]
universe 0 1
set high trimf 0 1 1
set not_high trimf 0 0 1
[system]
and prod
implication prod
aggregation sum
defuzzification centroid
resolution 1001
[rules]
if (tf is high) -> (relevance is high)
"""


class TestParseConfig:
    def test_basic_file(self):
        config = parse_fis_config(BASIC)
        assert [v.name for v in config.inputs] == ["tf"]
        assert config.output.name == "relevance"
        assert config.resolution == 1001
        assert config.and_method == "prod"
        assert len(config.rules) == 1

    def test_system_defaults(self):
        text = BASIC.replace(
            "[system]\nand prod\nimplication prod\naggregation sum\n"
            "defuzzification centroid\nresolution 1001\n", "")
        config = parse_fis_config(text)
        assert (config.and_method, config.implication) == ("prod", "prod")
        assert (config.aggregation, config.defuzzification) == ("sum", "centroid")
        assert config.resolution == 1001

    def test_comments_and_blanks_ignored(self):
        config = parse_fis_config("# leading comment\n\n" + BASIC)
        assert config.output.name == "relevance"

    def test_all_membership_kinds(self):
        text = """\
[variable x]
universe -2 2
set tri trimf -1 0 1
set trap trapmf -2 -1 1 2
set bell gaussmf 0.5 0
set soft sigmf 3 0
[output y]
universe 0 1
set high trimf 0 1 1
[rules]
if (x is bell) -> (y is high)
"""
        config = parse_fis_config(text)
        kinds = {mf.kind for mf in config.inputs[0].sets.values()}
        assert kinds == {"triangular", "trapezoidal", "gaussian", "sigmoid"}

    @pytest.mark.parametrize("appended,needle", [
        (["[bogus_section]"], "unknown section"),
        (["[variable]"], "unknown section"),
        (["[variable zz]", "flavor sweet"], "unknown key"),
        (["[variable zz]", "set high bellmf 0 1"], "unknown membership"),
        (["[variable zz]", "universe 0"], "exactly 2"),
        (["[system]", "resolution -5"], "positive integer"),
        (["[system]", "and neither"], "one of"),
        (["[system]", "overlap_weight_ratio 0.2"], "unknown key"),
        (["[system]", "resolution \u00b2"], "positive integer"),
        (["[system]", "resolution " + "1" * 5000], "<= "),
    ])
    def test_bad_lines_report_line_numbers(self, appended, needle):
        text = BASIC + "\n".join(appended) + "\n"
        with pytest.raises(ConfigError, match=needle) as excinfo:
            parse_fis_config(text)
        expected_line = BASIC.count("\n") + len(appended)
        assert f"line {expected_line}" in str(excinfo.value)

    @pytest.mark.parametrize("section, universe", [
        ("[output relevance]", "0 inf"),
        ("[output relevance]", "-1e308 1e308"),  # finite bounds, width inf
        ("[variable tf]", "0 inf"),
    ])
    def test_universe_must_be_finite(self, section, universe):
        text = BASIC.replace(f"{section}\nuniverse 0 1",
                             f"{section}\nuniverse {universe}")
        assert text != BASIC
        with pytest.raises(ConfigError, match="finite hi - lo"):
            parse_fis_config(text)

    @pytest.mark.parametrize("section, line", [
        ("[variable tf]", 1), ("[output relevance]", 5)])
    def test_universe_error_names_its_section_line(self, section, line):
        text = BASIC.replace(f"{section}\nuniverse 0 1",
                             f"{section}\nuniverse 0 inf")
        with pytest.raises(ConfigError) as excinfo:
            parse_fis_config(text)
        assert str(excinfo.value).startswith(f"line {line}: variable ")

    def test_resolution_bound(self):
        """Checked at construction; no grid is sampled for either value."""
        config = parse_fis_config(
            BASIC.replace("resolution 1001", f"resolution {MAX_RESOLUTION}"))
        assert config.resolution == MAX_RESOLUTION
        with pytest.raises(ConfigError, match=f"<= {MAX_RESOLUTION}"):
            parse_fis_config(BASIC.replace(
                "resolution 1001", f"resolution {MAX_RESOLUTION + 1}"))

    def test_missing_output_section(self):
        with pytest.raises(ConfigError, match="output"):
            parse_fis_config("[variable x]\nuniverse 0 1\nset a trimf 0 0 1\n")

    def test_duplicate_output_section(self):
        with pytest.raises(ConfigError, match="second"):
            parse_fis_config(BASIC + "[output again]\n")

    def test_duplicate_variable(self):
        with pytest.raises(ConfigError, match="duplicate variable"):
            parse_fis_config("[variable x]\nuniverse 0 1\nset a trimf 0 0 1\n"
                             "[variable x]\n" + BASIC)

    def test_duplicate_set_label(self):
        text = BASIC.replace("set not_high trimf 0 0 1\n[output",
                             "set high trimf 0 0 1\n[output", 1)
        with pytest.raises(ConfigError, match="duplicate set"):
            parse_fis_config(text)

    def test_content_before_section(self):
        with pytest.raises(ConfigError, match="before any section"):
            parse_fis_config("universe 0 1\n" + BASIC)

    def test_unterminated_header(self):
        with pytest.raises(ConfigError, match="unterminated"):
            parse_fis_config("[variable x\n" + BASIC)

    def test_rule_error_keeps_line_number(self):
        text = BASIC + "if (tf is) -> (relevance is high)\n"
        with pytest.raises(Exception, match=f"line {BASIC.count(chr(10)) + 1}"):
            parse_fis_config(text)

    @pytest.mark.parametrize("rule, message", [
        ("if (tff is high) -> (relevance is high)",
         "rule references unknown input variable 'tff'"),
        ("if (tf is hi) -> (relevance is high)",
         "variable 'tf' has no set 'hi'"),
        ("if (tf is high) and (tf is not low) -> (relevance is high)",
         "variable 'tf' has no set 'low'"),
        ("if (tf is high) -> (relevance is hi)",
         "output variable has no set 'hi'"),
        ("if (tf is high) -> (rel is high)",
         "rule consequent references 'rel', expected output 'relevance'"),
    ])
    def test_rule_checks_name_the_rule_line(self, rule, message):
        """Between valid rules, and with ``[rules]`` ahead of the variables
        the rule names."""
        good = "if (tf is not_high) -> (relevance is not_high)"
        text = BASIC + f"{good}\n{rule}\n{good}\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_fis_config(text)
        assert str(excinfo.value) == (
            f"line {BASIC.count(chr(10)) + 2}: {message}")
        rules_first = f"[rules]\n{good}\n{rule}\n" + BASIC.split("[rules]")[0]
        with pytest.raises(ConfigError) as excinfo:
            parse_fis_config(rules_first)
        assert str(excinfo.value) == f"line 3: {message}"

    def test_bad_mf_parameters_keep_line_number(self):
        text = BASIC.replace("set high trimf 0 1 1", "set high trimf 1 0 1", 1)
        with pytest.raises(ConfigError, match="line 3"):
            parse_fis_config(text)


class TestRoundTrip:
    def test_config_roundtrips(self):
        config = FisConfig(
            inputs=(
                LinguisticVariable("speed", (-2.0, 2.0), {
                    "slow": MembershipFunction.trapezoidal(-2, -1.5, -1, 0),
                    "fast": MembershipFunction.gaussian(0.4, 1.0),
                }),
                default_variable("load"),
            ),
            output=LinguisticVariable("power", (0.0, 10.0), {
                "low": MembershipFunction.triangular(0, 0, 5),
                "high": MembershipFunction.sigmoid(1.5, 5.0),
            }),
            rules=(
                parse_rule("if (speed is fast) and (load is high) "
                           "-> (power is high) weight 0.75"),
                parse_rule("if (speed is slow) -> (power is low)"),
            ),
            and_method="min",
            implication="min",
            aggregation="max",
            defuzzification="mom",
            resolution=501,
        )
        assert parse_fis_config(format_fis_config(config)) == config

    def test_every_operator_combination_roundtrips(self):
        basic = parse_fis_config(BASIC)
        fields = [field for field, _ in OPERATORS.values()]
        combos = list(itertools.product(
            *(methods for _, methods in OPERATORS.values())))
        assert len(combos) == 60
        for combo in combos:
            config = dataclasses.replace(basic, **dict(zip(fields, combo)))
            text = format_fis_config(config)
            assert parse_fis_config(text) == config
            assert format_fis_config(parse_fis_config(text)) == text

    @pytest.mark.parametrize("family", OPERATORS)
    def test_system_key_accepts_exactly_its_methods(self, family):
        field, methods = OPERATORS[family]
        every = {m for _, names in OPERATORS.values() for m in names}
        line = BASIC.splitlines().index(f"{family} {getattr(FisConfig, field)}")
        for method in sorted(every) + ["bogus", "PROD", f"{methods[0]} x"]:
            text = BASIC.replace(f"{family} {getattr(FisConfig, field)}\n",
                                 f"{family} {method}\n")
            if method in methods:
                assert getattr(parse_fis_config(text), field) == method
                continue
            with pytest.raises(ConfigError) as excinfo:
                parse_fis_config(text)
            assert str(excinfo.value) == (
                f"line {line + 1}: {family} must be one of "
                f"{', '.join(methods)}")

    def test_template_roundtrips(self, data_dir):
        template = load_template(data_dir / "template_default.cfg")
        assert parse_template(format_template(template)) == template


class TestTemplates:
    def test_default_file_loads(self, data_dir):
        template = load_template(data_dir / "template_default.cfg")
        assert len(template.per_term_rules) == 2
        assert len(template.global_rules) == 2
        assert template.overlap_weight_ratio == 1.0 / 6.0
        assert template.variable_prototype.universe == (0.0, 1.0)

    def test_ratio_defaults_when_absent(self, data_dir):
        text = (data_dir / "template_default.cfg").read_text()
        text = "\n".join(l for l in text.splitlines()
                         if not l.startswith("overlap_weight_ratio"))
        template = parse_template(text)
        assert template.overlap_weight_ratio == 1.0 / 6.0

    def test_missing_placeholder_rejected(self, data_dir):
        text = (data_dir / "template_default.cfg").read_text()
        text = text.replace("[variable overlap]", "[variable coverage]")
        with pytest.raises(ConfigError, match="tf, idf, overlap"):
            parse_template(text)

    def test_diverging_prototypes_rejected(self, data_dir):
        text = (data_dir / "template_default.cfg").read_text()
        text = text.replace("[variable idf]\nuniverse 0 1",
                            "[variable idf]\nuniverse 0 2")
        with pytest.raises(ConfigError, match="prototype"):
            parse_template(text)

    @pytest.mark.parametrize("ratio", ["0", "-0.5", "nan"])
    def test_non_positive_ratio_rejected(self, data_dir, ratio):
        text = (data_dir / "template_default.cfg").read_text()
        text = text.replace("overlap_weight_ratio 0.16666666666666666",
                            f"overlap_weight_ratio {ratio}")
        with pytest.raises(ConfigError, match="must be positive"):
            parse_template(text)

    def test_ratio_overweighting_a_one_term_query_rejected(self, data_dir):
        """The default overlap rules weigh 1, so for a one-term query they
        get weight 1 * ratio: ratio 1 is the largest the template admits."""
        text = (data_dir / "template_default.cfg").read_text()

        def with_ratio(ratio):
            return text.replace("overlap_weight_ratio 0.16666666666666666",
                                f"overlap_weight_ratio {ratio}")

        assert parse_template(with_ratio("1.0")).overlap_weight_ratio == 1.0
        with pytest.raises(ConfigError, match="overlap_weight_ratio"):
            parse_template(with_ratio("2.0"))

    def test_unknown_set_rejected_at_load(self, data_dir):
        text = (data_dir / "template_default.cfg").read_text()
        text += "if (tf is low) -> (relevance is high)\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_template(text)
        assert str(excinfo.value) == (
            f"line {text.count(chr(10))}: variable 'tf' has no set 'low'")

    def test_mixed_placeholder_rule_rejected(self, data_dir):
        text = (data_dir / "template_default.cfg").read_text()
        text += "if (tf is high) and (overlap is high) -> (relevance is high)\n"
        with pytest.raises(ConfigError, match="mixes"):
            parse_template(text)


TF_SETS = "set high trimf 0 1 1\nset not_high trimf 0 0 1\n"
RATIO = "overlap_weight_ratio 0.16666666666666666"


@pytest.mark.parametrize("parse, old, new, message", [
    (parse_fis_config, "universe 0 1\n" + TF_SETS + "[output",
     TF_SETS + "[output", "line 1: variable 'tf' has no universe"),
    (parse_fis_config, TF_SETS + "[output", "[output",
     "line 1: variable 'tf' has no fuzzy sets"),
    (parse_fis_config, TF_SETS + "[system", "[system",
     "line 5: variable 'relevance' has no fuzzy sets"),
    (parse_fis_config, "set high trimf 0 1 1", "set high",
     "line 3: set takes a label, a kind, and parameters"),
    (parse_fis_config, "set high trimf 0 1 1", "set",
     "line 3: set takes a label, a kind, and parameters"),
    (parse_template, RATIO, "overlap_weight_ratio 0.1 0.2",
     "line 25: overlap_weight_ratio takes one number"),
    (parse_template, RATIO, "overlap_weight_ratio",
     "line 25: overlap_weight_ratio takes one number"),
    (parse_fis_config, "resolution 1001", "resolution 1",
     "line 14: resolution must be >= 2, got 1"),
    (parse_fis_config, "resolution 1001", f"resolution {MAX_RESOLUTION + 1}",
     f"line 14: resolution must be <= {MAX_RESOLUTION}, got "
     f"{MAX_RESOLUTION + 1}"),
    (parse_fis_config, "[output relevance]", "[output tf]",
     "line 5: output variable 'tf' clashes with an input"),
    (parse_fis_config, "[output relevance]\nuniverse 0 1\n" + TF_SETS, "",
     "line 12: missing [output] section"),
    (parse_fis_config, "if (tf is high) -> (relevance is high)\n", "",
     "line 15: a fuzzy system needs at least one rule"),
    (parse_fis_config, "[rules]\nif (tf is high) -> (relevance is high)\n",
     "", "line 14: a fuzzy system needs at least one rule"),
    (parse_template, "[variable idf]\nuniverse 0 1",
     "[variable idf]\nuniverse 0 2",
     "line 7: placeholder variable 'idf' differs from 'tf'; all "
     "placeholders must share one prototype definition"),
    (parse_template, RATIO, "overlap_weight_ratio 0",
     "line 25: overlap_weight_ratio must be positive"),
    (parse_template, RATIO, "overlap_weight_ratio 2.0",
     "line 29: overlap rule weight 1.0 * overlap_weight_ratio outside "
     "(0, 1]"),
    (parse_template, "(relevance is not high)\n",
     "(relevance is not high)\n"
     "if (idf is high) and (overlap is high) -> (relevance is high)\n",
     "line 29: template rule mixes placeholders ['idf', 'overlap']; a rule "
     "may use tf/idf or overlap, not both"),
    (parse_template, "[variable overlap]", "[variable coverage]",
     "line 11: template requires input variables named exactly tf, idf, "
     "overlap; got ['coverage', 'idf', 'tf']"),
    (parse_template, "[variable overlap]\nuniverse 0 1\n" + TF_SETS, "",
     "line 26: template requires input variables named exactly tf, idf, "
     "overlap; got ['idf', 'tf']"),
], ids=["no universe", "no input sets", "no output sets", "set of 1 value",
        "set of 0 values", "ratio of 2 values", "ratio of 0 values",
        "resolution 1", "resolution too large", "output named as an input",
        "no output section", "no rules under the header", "no rules header",
        "prototype differs", "ratio 0", "overweight overlap rule",
        "mixed placeholders", "input not a placeholder",
        "placeholder missing"])
def test_file_rejections(data_dir, parse, old, new, message):
    source = BASIC if parse is parse_fis_config else (
        data_dir / "template_default.cfg").read_text()
    text = source.replace(old, new, 1)
    assert text != source
    with pytest.raises(ConfigError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


DATA = Path(__file__).parent / "data"
# lines that break a config or template where they replace another line
LINE_POOL = (
    "[variable x]", "[variable tf]", "[variable overlap]", "[output x]",
    "[output relevance]", "[system]", "[rules]", "[bogus]", "[variable",
    "universe 1 0", "universe 0 inf", "universe 0", "universe 0 1e308",
    "set high trimf 0 1 1", "set low gaussmf 0 0.5", "resolution 1",
    "overlap_weight_ratio 2", "and min",
    "if (tf is high) and (overlap is high) -> (relevance is high)",
    "if (x is high) -> (relevance is high)",
    "if (tf is low) -> (relevance is high)",
    "if (overlap is high) -> (relevance is high) weight 0.5",
    "if (tf is high) -> (relevance",
)


@st.composite
def mutated_files(draw):
    """A shipped config or template with one line dropped, duplicated or
    replaced by a line of ``LINE_POOL``, and the parser that reads it."""
    name, parse = draw(st.sampled_from((
        ("fis_basic.cfg", parse_fis_config),
        ("template_default.cfg", parse_template))))
    lines = (DATA / name).read_text().splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(("drop", "duplicate", "replace")))
    if edit == "drop":
        del lines[at]
    elif edit == "duplicate":
        lines.insert(at, lines[at])
    else:
        lines[at] = draw(st.sampled_from(LINE_POOL))
    return parse, lines


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_files())
def test_every_fault_of_a_mutated_file_names_its_line(case):
    parse, lines = case
    try:
        parse("\n".join(lines) + "\n")
    except (ConfigError, ParseError) as exc:
        match = re.match(r"line (\d+)[,:] ", str(exc))
        assert match, str(exc)
        assert 1 <= int(match[1]) <= len(lines)
