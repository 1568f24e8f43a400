"""Config and template file format: parsing, errors, round-trips."""

import pytest

from frank.errors import ConfigError
from frank.fis import (MAX_RESOLUTION, FisConfig, LinguisticVariable,
                       default_variable)
from frank.fisfile import (format_fis_config, format_template, load_template,
                           parse_fis_config, parse_template)
from frank.membership import MembershipFunction
from frank.rules import parse_rule

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
        with pytest.raises(ConfigError, match="'tf' has no set 'low'"):
            parse_template(text)

    def test_mixed_placeholder_rule_rejected(self, data_dir):
        text = (data_dir / "template_default.cfg").read_text()
        text += "if (tf is high) and (overlap is high) -> (relevance is high)\n"
        with pytest.raises(ConfigError, match="mixes"):
            parse_template(text)
