"""Inference pipeline: fuzzification through defuzzification.

The frozen constant in TestDefuzzify below was produced by the independent
reference pipeline in oracles.py (resolution 100000) before this engine was
written.
"""

import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from frank.errors import ConfigError
from frank.fis import (AGGREGATIONS, DEFUZZIFICATIONS, IMPLICATIONS,
                       OPERATORS, FisConfig, LinguisticVariable, aggregate,
                       default_variable, defuzzify, evaluate, fire_rule,
                       fuzzify, imply)
from frank.fis import _combine, _sorted_rows
from frank.membership import MembershipFunction
from frank.rules import parse_rule

from generators import random_config, random_inputs, random_mf
from oracles import reference_rfis_score


def two_input_config(resolution=1001, **overrides):
    """tf/idf inputs, relevance output, the rule pair with a negated twin."""
    settings = dict(
        inputs=(default_variable("tf"), default_variable("idf")),
        output=default_variable("relevance"),
        rules=(
            parse_rule("if (tf is high) and (idf is high) -> (relevance is high)"),
            parse_rule("if (tf is not high) and (idf is not high) "
                       "-> (relevance is not high)"),
        ),
        resolution=resolution,
    )
    settings.update(overrides)
    return FisConfig(**settings)


def fired_strengths(config, inputs):
    """Each rule's firing strength, in rule order, over the degrees of
    ``fuzzify``: floats for numbers, columns for columns."""
    degrees = fuzzify(config, inputs)
    return [fire_rule(rule, degrees, config.and_method)
            for rule in config.rules]


def default_rfis_config(t, resolution=1001):
    """The instantiated ranking system for t query terms."""
    inputs = [default_variable(f"tf_{i}") for i in range(1, t + 1)]
    inputs += [default_variable(f"idf_{i}") for i in range(1, t + 1)]
    inputs.append(default_variable("overlap"))
    rules = []
    for i in range(1, t + 1):
        w = repr(1.0 / t)
        rules.append(parse_rule(
            f"if (tf_{i} is high) and (idf_{i} is high) "
            f"-> (relevance is high) weight {w}"))
        rules.append(parse_rule(
            f"if (tf_{i} is not high) and (idf_{i} is not high) "
            f"-> (relevance is not high) weight {w}"))
    ow = repr((1.0 / t) * (1.0 / 6.0))
    rules.append(parse_rule(
        f"if (overlap is high) -> (relevance is high) weight {ow}"))
    rules.append(parse_rule(
        f"if (overlap is not high) -> (relevance is not high) weight {ow}"))
    return FisConfig(tuple(inputs), default_variable("relevance"),
                     tuple(rules), resolution=resolution)


def rfis_inputs(tf, idf, overlap):
    values = {f"tf_{i}": v for i, v in enumerate(tf, start=1)}
    values |= {f"idf_{i}": v for i, v in enumerate(idf, start=1)}
    values["overlap"] = overlap
    return values


class TestFuzzify:
    def test_complementary_degrees(self):
        config = two_input_config()
        degrees = fuzzify(config, {"tf": 0.7, "idf": 0.6})
        assert degrees[("tf", "high")] == 0.7
        assert degrees[("tf", "not_high")] == pytest.approx(0.3)
        assert degrees[("idf", "high")] == 0.6
        assert degrees[("idf", "not_high")] == pytest.approx(0.4)

    def test_midpoint_symmetry(self):
        config = two_input_config()
        degrees = fuzzify(config, {"tf": 0.5, "idf": 0.5})
        assert degrees[("tf", "high")] == 0.5
        assert degrees[("tf", "not_high")] == 0.5

    def test_out_of_universe_input_clamped(self):
        config = two_input_config()
        degrees = fuzzify(config, {"tf": 1.3, "idf": -0.2})
        assert degrees[("tf", "high")] == 1.0
        assert degrees[("idf", "high")] == 0.0
        assert degrees[("idf", "not_high")] == 1.0

    def test_missing_variable_is_named(self):
        config = two_input_config()
        with pytest.raises(ConfigError, match="idf"):
            fuzzify(config, {"tf": 0.5})

    def test_extra_variable_is_named(self):
        config = two_input_config()
        with pytest.raises(ConfigError, match="bogus"):
            fuzzify(config, {"tf": 0.5, "idf": 0.5, "bogus": 1.0})

    def test_complement_consistency_is_exact(self):
        """not_high is the pointwise complement of high, bit for bit."""
        config = two_input_config()
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.0, 1.0, size=200):
            degrees = fuzzify(config, {"tf": float(x), "idf": 0.5})
            assert degrees[("tf", "not_high")] == 1.0 - degrees[("tf", "high")]


class TestFireRule:
    def test_product_of_conjuncts(self):
        rule = parse_rule("if (tf is high) and (idf is high) -> (relevance is high)")
        memberships = {("tf", "high"): 0.7, ("idf", "high"): 0.6}
        assert fire_rule(rule, memberships, "prod") == 0.42

    def test_min_of_conjuncts(self):
        rule = parse_rule("if (tf is high) and (idf is high) -> (relevance is high)")
        memberships = {("tf", "high"): 0.7, ("idf", "high"): 0.6}
        assert fire_rule(rule, memberships, "min") == 0.6

    def test_product_identity(self):
        rule = parse_rule("if (tf is high) and (idf is high) -> (relevance is high)")
        for x in (0.0, 0.37, 0.5, 1.0):
            memberships = {("tf", "high"): x, ("idf", "high"): 1.0}
            assert fire_rule(rule, memberships, "prod") == x

    def test_negated_conjunct_uses_complement(self):
        rule = parse_rule("if (tf is not high) -> (relevance is not high)")
        assert fire_rule(rule, {("tf", "high"): 0.7}, "prod") == pytest.approx(0.3)

    def test_weight_scales_strength(self):
        rule = parse_rule(
            "if (tf is high) -> (relevance is high) weight 0.25")
        assert fire_rule(rule, {("tf", "high"): 0.8}, "prod") == 0.2

    def test_single_conjunct_skips_fold(self):
        rule = parse_rule("if (tf is high) -> (relevance is high)")
        assert fire_rule(rule, {("tf", "high"): 0.55}, "min") == 0.55


class TestImply:
    def setup_method(self):
        grid = np.linspace(0.0, 1.0, 101)
        self.consequent = MembershipFunction.triangular(0.0, 1.0, 1.0).sample(grid)

    def test_full_strength_is_identity(self):
        for method in ("prod", "min"):
            implied = imply(self.consequent, 1.0, method)
            assert np.array_equal(implied, self.consequent)

    def test_prod_scales_shape(self):
        implied = imply(self.consequent, 0.42, "prod")
        assert implied.max() == pytest.approx(0.42)
        # scaling preserves shape: ratios to the original are constant
        mask = self.consequent > 0
        np.testing.assert_allclose(implied[mask] / self.consequent[mask], 0.42)

    def test_min_truncates_to_plateau(self):
        implied = imply(self.consequent, 0.42, "min")
        assert implied.max() == 0.42
        plateau = implied == 0.42
        assert plateau.sum() > 1  # a flat top, not a single peak
        below = self.consequent < 0.42
        assert np.array_equal(implied[below], self.consequent[below])

    def test_prod_implication_is_linear_in_strength(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(0.0, 1.0, 2)
            once = imply(self.consequent, a * b, "prod")
            twice = imply(imply(self.consequent, a, "prod"), b, "prod")
            np.testing.assert_allclose(once, twice, rtol=1e-14, atol=0)


class TestAggregate:
    def setup_method(self):
        self.grid = np.linspace(0.0, 1.0, 101)
        self.rising = MembershipFunction.triangular(0.0, 1.0, 1.0).sample(self.grid)
        self.falling = MembershipFunction.triangular(0.0, 0.0, 1.0).sample(self.grid)

    def test_single_set_identity(self):
        for method in ("sum", "max", "probor"):
            result = aggregate([self.rising], method)
            assert np.array_equal(result, self.rising)

    def test_max_is_pointwise_maximum(self):
        result = aggregate([self.rising, self.falling], "max")
        expected = np.where(self.rising > self.falling, self.rising, self.falling)
        assert np.array_equal(result, expected)

    def test_sum_matches_bruteforce_loop(self):
        a = 0.42 * self.rising
        b = 0.17 * self.falling
        result = aggregate([a, b], "sum")
        expected = [a[i] + b[i] for i in range(len(self.grid))]
        assert list(result) == expected

    def test_sum_is_not_renormalized(self):
        result = aggregate([self.rising, self.rising], "sum")
        assert result.max() == 2.0

    def test_probor_formula(self):
        result = aggregate([self.rising, self.falling], "probor")
        expected = self.rising + self.falling - self.rising * self.falling
        np.testing.assert_allclose(result, expected, rtol=0, atol=0)
        assert result.max() <= 1.0 + 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([], "sum")
        with pytest.raises(ConfigError):
            aggregate(np.empty((0, 3, 101)), "sum")

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    @pytest.mark.parametrize("implication", IMPLICATIONS)
    def test_block_equals_each_row(self, implication, aggregation):
        """(sets x 1 x grid) consequents implied by (sets x rows x 1)
        strengths aggregate, row by row, to the bits of 1-D calls."""
        rng = np.random.default_rng(47)
        consequents = np.array([self.rising, self.falling, self.rising])
        strengths = rng.uniform(0.0, 1.0, (3, 9))
        strengths[:, 4] = 0.0
        block = aggregate(imply(consequents[:, None, :],
                                strengths[:, :, None], implication),
                          aggregation)
        assert block.shape == (9, len(self.grid))
        for row in range(9):
            alone = aggregate(
                [imply(samples, float(strength), implication)
                 for samples, strength in zip(consequents, strengths[:, row])],
                aggregation)
            assert block[row].tolist() == alone.tolist()

    def test_pairwise_commutativity_is_exact(self):
        a = 0.3 * self.rising
        b = 0.9 * self.falling
        forward = aggregate([a, b], "sum")
        backward = aggregate([b, a], "sum")
        assert np.array_equal(forward, backward)

    def test_many_set_permutations_agree(self):
        """Pointwise sums over permuted set lists agree to accumulation
        rounding; exact order independence is guaranteed one level up,
        where evaluate() feeds the sets in a canonical order."""
        import itertools
        sets = [0.3 * self.rising, 0.9 * self.falling,
                0.5 * self.rising, 0.1 * self.falling]
        baseline = aggregate(sets, "sum")
        for permutation in itertools.permutations(sets):
            permuted = aggregate(list(permutation), "sum")
            np.testing.assert_allclose(permuted, baseline, rtol=1e-14, atol=1e-16)


RISING = np.linspace(0.0, 1.0, 11)
# each stage function called with an operator family's method name
STAGE_CALLS = {
    "and": lambda method: fire_rule(
        parse_rule("if (tf is high) and (idf is high) -> (relevance is high)"),
        {("tf", "high"): 0.5, ("idf", "high"): 0.25}, method),
    "implication": lambda method: imply(RISING, 0.5, method),
    "aggregation": lambda method: aggregate([RISING, RISING[::-1]], method),
    "defuzzification": lambda method: defuzzify(RISING, (0.0, 1.0), method),
}


class TestStageChecks:
    @pytest.mark.parametrize("family", OPERATORS)
    def test_unknown_method_rejected_as_by_config(self, family):
        """Each stage function runs every method of its family and rejects
        any other name with the message FisConfig gives for that field."""
        field, methods = OPERATORS[family]
        for method in methods:
            STAGE_CALLS[family](method)
            assert getattr(two_input_config(**{field: method}), field) == method
        every = {m for _, names in OPERATORS.values() for m in names}
        for method in sorted(every - set(methods)) + ["bogus", "PROD", ""]:
            message = f"unknown {family} method {method!r}"
            with pytest.raises(ConfigError) as excinfo:
                STAGE_CALLS[family](method)
            assert str(excinfo.value) == message
            with pytest.raises(ConfigError) as excinfo:
                two_input_config(**{field: method})
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("universe", [
        (0.0, math.nan), (math.nan, 1.0), (1.0, 0.0), (0.5, 0.5),
        (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)],
        ids=["hi-nan", "lo-nan", "reversed", "empty", "hi-inf", "lo-inf",
             "width-inf"])
    def test_defuzzify_rejects_bad_universe(self, universe):
        with pytest.raises(ConfigError) as excinfo:
            defuzzify(RISING, universe, "centroid")
        assert str(excinfo.value) == (
            "universe requires lo < hi and a finite hi - lo, got "
            f"{tuple(map(float, universe))}")

    def test_universe_message_shared_with_variables(self):
        with pytest.raises(ConfigError) as excinfo:
            LinguisticVariable("x", (1, 0), default_variable("x").sets)
        assert str(excinfo.value) == ("variable 'x': universe requires "
                                      "lo < hi and a finite hi - lo, got "
                                      "(1.0, 0.0)")

    @pytest.mark.parametrize("call, problem", [
        (lambda m: imply(RISING, math.nan, m), "strengths must be finite"),
        (lambda m: imply(RISING, math.inf, m), "strengths must be finite"),
        (lambda m: imply(RISING, -1.0, m), "firing strengths must be nonneg"),
        (lambda m: imply(RISING, np.array([[0.5], [-1e-300]]), m),
         "firing strengths must be nonneg"),
        (lambda m: imply(np.array([0.5, math.nan]), 1.0, m),
         "consequent samples must be finite"),
        (lambda m: imply(RISING - 0.5, 1.0, m),
         "consequent samples must be nonneg"),
    ], ids=["nan-strength", "inf-strength", "negative-strength",
            "negative-in-block", "nan-sample", "negative-sample"])
    @pytest.mark.parametrize("method", IMPLICATIONS)
    def test_imply_rejects_nan_inf_and_negative_input(self, call, problem,
                                                      method):
        """Samples and strengths are finite and not negative, as for
        defuzzify: no NaN or negative implied set, and no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=problem):
                call(method)
            assert imply(RISING, -0.0, method).tolist() == (
                imply(RISING, 0.0, method).tolist())

    @pytest.mark.parametrize("implied_sets, problem", [
        ([np.array([0.0, math.nan])], "must be finite"),
        ([RISING, np.where(RISING > 0.5, math.nan, RISING)], "must be finite"),
        ([RISING, np.full(11, math.inf)], "must be finite"),
        ([RISING, RISING - 0.5], "must be nonnegative"),
        (np.array([[[0.2, 0.1]], [[0.5, -0.5]]]), "must be nonnegative"),
    ], ids=["nan", "nan-in-second", "inf", "negative", "negative-in-block"])
    @pytest.mark.parametrize("method", AGGREGATIONS)
    def test_aggregate_rejects_nan_inf_and_negative_input(self, implied_sets,
                                                          problem, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError,
                               match=f"implied samples {problem}"):
                aggregate(implied_sets, method)

    @pytest.mark.parametrize("call, problem", [
        (lambda: aggregate([np.array([3.0, 0.5])] * 2, "probor"),
         "implied samples must be at most 1 under probor"),
        (lambda: aggregate([RISING, np.nextafter(RISING, 2.0)], "probor"),
         "implied samples must be at most 1 under probor"),
        (lambda: imply(np.array([1e200, 0.5]), 1e200, "prod"),
         "implied samples overflow"),
        (lambda: imply(RISING[None, None, :] * 1e300,
                       np.array([[[0.5]], [[1e10]]]), "prod"),
         "implied samples overflow"),
        (lambda: aggregate([np.array([1e308, 0.5])] * 2, "sum"),
         "aggregate sum overflows"),
    ], ids=["probor-above-1", "probor-next-above-1", "imply-overflow",
            "imply-overflow-in-block", "sum-overflow"])
    def test_out_of_range_results_raise_at_their_stage(self, call, problem):
        """A stage whose result would leave its range raises itself, with
        no numpy warning, instead of passing the fault to a later stage."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=problem):
                call()

    def test_only_probor_bounds_its_samples(self):
        assert aggregate([np.array([1.0, 0.5])] * 2, "probor").tolist() == \
            [1.0, 0.75]
        for method in ("sum", "max"):
            assert aggregate([np.array([3.0, 0.5])], method).tolist() == \
                [3.0, 0.5]
        assert imply(np.array([1e200, 0.5]), 1e200, "min").tolist() == \
            [1e200, 0.5]

    @pytest.mark.parametrize("implication", ["prod", "min"],
                             ids=["moment path", "grid path"])
    def test_all_zero_warning_points_at_the_public_caller(self, implication):
        config = two_input_config(implication=implication,
                                  output=LinguisticVariable(
            "relevance", (0.2, 0.8),
            {"high": MembershipFunction.triangular(0.2, 0.8, 0.8),
             "not_high": MembershipFunction.triangular(0.2, 0.2, 0.8)}))
        assert config.has_moment_form == (implication == "prod")
        zeros = {"tf": 1.0, "idf": 0.0}  # neither rule fires
        for call in (lambda: defuzzify(np.zeros(5), (0.2, 0.8)),
                     lambda: evaluate(config, zeros)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert call() == 0.5
            assert [(w.category, str(w.message)[:8], w.filename)
                    for w in caught] == [(RuntimeWarning, "all-zero",
                                          __file__)]


# Computed by oracles.reference_rfis_score([0.7, 0.5], [0.6, 0.5], 1.0,
# resolution=100000) ahead of the engine build.
REFERENCE_TWO_TERM_SCORE = 0.5644580110626152


RELEVANCE_HIGH = "if (tf is high) -> (relevance is high)"


@pytest.mark.parametrize("build, message", [
    (lambda: LinguisticVariable("", (0.0, 1.0),
                                default_variable("x").sets),
     "variable name must be nonempty"),
    (lambda: LinguisticVariable("x", (0.0, 1.0), {}),
     "variable 'x' has no fuzzy sets"),
    (lambda: two_input_config(resolution=1),
     "resolution must be >= 2, got 1"),
    (lambda: two_input_config(
        inputs=(default_variable("tf"), default_variable("tf"))),
     "duplicate input variable names in ['tf', 'tf']"),
    (lambda: two_input_config(output=default_variable("idf")),
     "output variable 'idf' clashes with an input"),
    (lambda: two_input_config(rules=()),
     "a fuzzy system needs at least one rule"),
    (lambda: two_input_config(
        rules=(parse_rule("if (df is high) -> (relevance is high)"),)),
     "rule references unknown input variable 'df'"),
    (lambda: two_input_config(rules=(dataclasses.replace(
        parse_rule(RELEVANCE_HIGH), weight=1.5),)),
     "rule weight 1.5 outside (0, 1]"),
    (lambda: two_input_config(rules=(dataclasses.replace(
        parse_rule(RELEVANCE_HIGH), weight=0.0),)),
     "rule weight 0.0 outside (0, 1]"),
    (lambda: evaluate(two_input_config(),
                      {"tf": np.zeros((2, 2)), "idf": 0.5}),
     "inputs must be numbers or 1-D columns"),
], ids=["empty name", "no sets", "resolution 1", "duplicate inputs",
        "output clash", "no rules", "unknown variable", "weight 1.5",
        "weight 0", "2-D input"])
def test_config_rejections(build, message):
    with pytest.raises(ConfigError) as excinfo:
        build()
    assert str(excinfo.value) == message


def row_defuzzify(universe, samples, method):
    """One 1-D row defuzzified the straightforward way, one formula per
    method: the reference the block form must equal bit for bit."""
    grid = np.linspace(*universe, len(samples))
    if not samples.any():
        return (universe[0] + universe[1]) / 2.0
    if method == "centroid":
        return float(np.sum(grid * samples) / np.sum(samples))
    if method == "bisector":
        cumulative = np.cumsum(samples)
        index = int(np.searchsorted(cumulative, cumulative[-1] / 2.0))
        return float(grid[min(index, len(grid) - 1)])
    plateau = grid[samples == samples.max()]
    return float({"mom": plateau.mean, "lom": plateau.max,
                  "som": plateau.min}[method]())


class TestDefuzzify:
    def test_right_triangle_centroid(self):
        resolution = 1001
        grid = np.linspace(0.0, 1.0, resolution)
        samples = MembershipFunction.triangular(0.0, 1.0, 1.0).sample(grid)
        value = defuzzify(samples, (0.0, 1.0), "centroid")
        assert value == pytest.approx(2.0 / 3.0, abs=2.0 / resolution)

    def test_symmetric_aggregate_centers(self):
        grid = np.linspace(0.0, 1.0, 1001)
        samples = MembershipFunction.triangular(0.25, 0.5, 0.75).sample(grid)
        value = defuzzify(samples, (0.0, 1.0), "centroid")
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_two_term_system_matches_reference_pipeline(self):
        config = default_rfis_config(t=2, resolution=100_000)
        value = evaluate(config, rfis_inputs([0.7, 0.5], [0.6, 0.5], 1.0))
        assert value == pytest.approx(REFERENCE_TWO_TERM_SCORE, abs=1e-9)

    def test_bisector_splits_area(self):
        grid = np.linspace(0.0, 1.0, 1001)
        samples = np.ones_like(grid)
        value = defuzzify(samples, (0.0, 1.0), "bisector")
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_maximum_family(self):
        # integer grid points, so the plateau boundaries are hit exactly
        grid = np.linspace(0.0, 10.0, 11)
        samples = MembershipFunction.trapezoidal(0.0, 2.0, 6.0, 10.0).sample(grid)
        assert defuzzify(samples, (0.0, 10.0), "som") == 2.0
        assert defuzzify(samples, (0.0, 10.0), "lom") == 6.0
        assert defuzzify(samples, (0.0, 10.0), "mom") == 4.0

    def test_all_zero_falls_back_to_midpoint_with_warning(self):
        with pytest.warns(RuntimeWarning):
            assert defuzzify(np.zeros(101), (0.2, 0.8),
                             "centroid") == pytest.approx(0.5)

    @pytest.mark.parametrize("method", DEFUZZIFICATIONS)
    def test_block_equals_each_row(self, method):
        """A (rows x grid) aggregate gives each row's 1-D bits, and the
        reference formula's, all-zero rows included: the midpoint, with one
        warning for the block."""
        rng = np.random.default_rng(53)
        block = rng.uniform(0.0, 2.0, (10, 201))
        block[rng.uniform(size=block.shape) < 0.4] = 0.0
        block[2:5] = np.round(block[2:5])  # plateaus, some of them split
        block[3, 100:] = 0.0
        block[8] = np.arange(201) < 200  # half the area falls on a point
        block[[1, 7]] = 0.0
        universe = (-1.0, 3.0)
        with pytest.warns(RuntimeWarning, match="all-zero"):
            together = defuzzify(block, universe, method)
        alone = []
        for row in block:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                alone.append(defuzzify(row, universe, method))
            assert len(caught) == (not row.any())
        assert isinstance(together, np.ndarray)
        assert together.tolist() == alone == [
            row_defuzzify(universe, row, method) for row in block]
        assert together[1] == together[7] == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rest = defuzzify(block[2:7], universe, method)
        assert rest.tolist() == alone[2:7]

    @pytest.mark.parametrize("samples, problem", [
        (np.float64(0.5), "1 or 2 axes of >= 2 samples"),
        (np.ones((2, 3, 4)), "1 or 2 axes of >= 2 samples"),
        (np.ones(0), "1 or 2 axes of >= 2 samples"),
        (np.ones(1), "1 or 2 axes of >= 2 samples"),
        (np.ones((3, 1)), "1 or 2 axes of >= 2 samples"),
        (np.array([0.2, -1e-300, 0.4]), "must be nonnegative"),
        (np.array([[0.2, 0.1], [0.5, -0.5]]), "must be nonnegative"),
    ], ids=["0-d", "3-d", "no-samples", "one-sample", "one-sample-rows",
            "negative", "negative-in-block"])
    def test_bad_samples_rejected(self, samples, problem):
        with pytest.raises(ConfigError, match=problem):
            defuzzify(samples, (0.0, 1.0), "centroid")

    @pytest.mark.parametrize("samples, universe, methods, problem", [
        ([0.0, math.nan, 1.0], (0.0, 1.0), DEFUZZIFICATIONS,
         "samples must be finite"),
        ([1.0, math.inf, 1.0], (0.0, 1.0), DEFUZZIFICATIONS,
         "samples must be finite"),
        ([1.0, 1e308, 1.0], (0.0, 10.0), ("centroid",),
         "centroid sums overflow"),
        ([1.0, 2.0, 1.0], (-1.7976931348623157e308, 0.0), ("centroid",),
         "centroid sums overflow"),
        ([1e308, 1e308, 1e308], (0.0, 1.0), ("centroid", "bisector"),
         "sums overflow"),
        ([1.0, 1.0, 1.0], (-1.7976931348623157e308, 0.0), ("mom",),
         "mom sums overflow"),
    ], ids=["nan", "inf", "moment-overflow", "universe-overflow",
            "area-overflow", "mean-overflow"])
    def test_non_finite_samples_and_sums_rejected(self, samples, universe,
                                                  methods, problem):
        """NaN and inf samples fail under every method, and so do sums that
        overflow, with no numpy warning on the way; a row of zeros beside
        them changes nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in methods:
                with pytest.raises(ConfigError, match=problem):
                    defuzzify(np.array(samples), universe, method)
                with pytest.raises(ConfigError, match=problem):
                    defuzzify(np.array([[0.0] * 3, samples]), universe,
                              method)

    def test_centroid_stays_in_universe(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            samples = rng.uniform(0.0, 2.0, size=101)
            value = defuzzify(samples, (-1.0, 3.0), "centroid")
            assert -1.0 <= value <= 3.0


class TestEvaluate:
    def test_single_rule_reduces_to_consequent_centroid(self):
        config = FisConfig(
            inputs=(default_variable("x"),),
            output=default_variable("y"),
            rules=(parse_rule("if (x is high) -> (y is high)"),),
        )
        value = evaluate(config, {"x": 1.0})
        samples = config.output.sets["high"].sample(config.output_grid)
        direct = defuzzify(samples, (0.0, 1.0), "centroid")
        assert value == direct

    def test_repeated_evaluation_is_bit_identical(self):
        config = default_rfis_config(t=2)
        inputs = rfis_inputs([0.31, 0.77], [0.52, 0.18], 0.5)
        assert evaluate(config, inputs) == evaluate(config, inputs)

    def test_rule_permutation_leaves_output_unchanged(self):
        """Shuffled rules must give the same bits, for every method combo."""
        rng = np.random.default_rng(23)
        shuffler = random.Random(23)
        for _ in range(150):
            config = random_config(rng)
            inputs = random_inputs(rng, config)
            shuffled_rules = list(config.rules)
            shuffler.shuffle(shuffled_rules)
            shuffled = FisConfig(
                config.inputs, config.output, tuple(shuffled_rules),
                config.and_method, config.implication, config.aggregation,
                config.defuzzification, config.resolution,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert evaluate(config, inputs) == evaluate(shuffled, inputs)

    def test_matches_reference_pipeline_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for t in (1, 2, 3):
            config = default_rfis_config(t, resolution=10_001)
            for _ in range(10):
                tf = rng.uniform(0.0, 1.0, t).tolist()
                idf = rng.uniform(0.0, 1.0, t).tolist()
                overlap = float(rng.uniform(0.0, 1.0))
                got = evaluate(config, rfis_inputs(tf, idf, overlap))
                want = reference_rfis_score(tf, idf, overlap, 10_001)
                assert got == pytest.approx(want, abs=1e-9)

    def test_output_stays_in_universe(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            config = random_config(rng)
            inputs = random_inputs(rng, config)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                value = evaluate(config, inputs)
            lo, hi = config.output.universe
            assert lo <= value <= hi

    def test_centroid_converges_with_resolution(self):
        inputs = rfis_inputs([0.7, 0.3], [0.6, 0.9], 0.5)
        for resolution in (101, 501, 1001, 4001):
            coarse = evaluate(default_rfis_config(2, resolution), inputs)
            fine = evaluate(default_rfis_config(2, 2 * resolution), inputs)
            assert abs(coarse - fine) < 1.0 / resolution

    @pytest.mark.parametrize("implication", IMPLICATIONS)
    def test_universe_whose_centroid_sums_overflow_rejected(self, implication):
        """resolution x rules x max(|lo|, |hi|) bounds the centroid's sums;
        it must be finite."""
        def config(hi):
            return two_input_config(implication=implication, output=(
                LinguisticVariable("relevance", (0.0, hi), {
                    "high": MembershipFunction.triangular(0.0, hi, hi),
                    "not_high": MembershipFunction.triangular(0.0, 0.0, hi),
                })))
        with pytest.raises(ConfigError, match="the centroid sums overflow"):
            config(1e308)
        value = evaluate(config(1e300), {"tf": 0.7, "idf": 0.6})
        assert 0.0 < value < 1e300

    def test_strengths_listed_in_rule_order(self):
        config = two_input_config()
        strengths = fired_strengths(config, {"tf": 0.7, "idf": 0.6})
        assert strengths[0] == 0.42
        assert strengths[1] == pytest.approx(0.3 * 0.4)


def moment_config(rng, output_kinds=None):
    """A random system under prod implication, sum aggregation and centroid,
    the operators with a moment form; ``output_kinds`` fixes the curve kind
    of each output set."""
    config = random_config(rng)
    output = config.output
    if output_kinds is not None:
        lo, hi = output.universe
        output = LinguisticVariable(output.name, output.universe, {
            label: random_mf(rng, lo, hi, kind)
            for label, kind in zip(output.sets, output_kinds)
        })
    return dataclasses.replace(config, output=output, implication="prod",
                               aggregation="sum", defuzzification="centroid")


def grid_centroid(config, inputs):
    """The grid pipeline, composed stage by stage: the moment form's oracle."""
    degrees = fuzzify(config, inputs)
    implied = [
        imply(config.consequent_samples[(rule.consequent.label,
                                         rule.consequent.negated)],
              fire_rule(rule, degrees, config.and_method), "prod")
        for rule in config.rules
    ]
    return defuzzify(aggregate(implied, "sum"), config.output.universe,
                     "centroid")


def random_columns(rng, config, rows):
    return {
        v.name: rng.uniform(v.universe[0] - 0.5, v.universe[1] + 0.5, rows)
        for v in config.inputs
    }


class TestColumns:
    def test_columns_equal_row_by_row_scalar_calls(self):
        """Every operator combination: a column of rows gives the bits of
        one scalar call per row."""
        rng = np.random.default_rng(31)
        for _ in range(120):
            config = random_config(rng)
            columns = random_columns(rng, config, 7)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                together = evaluate(config, columns)
                alone = [
                    evaluate(config, {name: float(values[row])
                                      for name, values in columns.items()})
                    for row in range(7)
                ]
            assert isinstance(together, np.ndarray)
            assert together.tolist() == alone

    def test_scalars_broadcast_against_columns(self):
        config = default_rfis_config(t=2)
        tf = np.array([0.1, 0.5, 0.9])
        mixed = evaluate(config, rfis_inputs([tf, 0.3], [0.6, 0.2], 0.5))
        full = evaluate(config, rfis_inputs(
            [tf, np.full(3, 0.3)], [np.full(3, 0.6), np.full(3, 0.2)],
            np.full(3, 0.5)))
        assert mixed.tolist() == full.tolist()

    @pytest.mark.parametrize("inputs", [
        {"tf": 0.1, "idf": 0.5},
        {"tf": np.array([0.1, 0.9]), "idf": 0.5},
        {"tf": 0.7, "idf": np.array([0.2, 0.4, 0.6])},
        {"tf": np.array([0.3, 1.2]), "idf": np.array([0.5, -0.1])},
        {"tf": np.array([]), "idf": 0.5},
        {"tf": np.array([]), "idf": np.array([])},
    ], ids=["numbers", "tf column", "idf column", "both columns",
            "empty column", "empty columns"])
    def test_fuzzify_and_strengths_take_evaluates_shapes(self, inputs):
        """Numbers give floats and columns give columns, one entry per row,
        as ``evaluate`` returns; row r holds the bits of a scalar call."""
        config = two_input_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            crisp = evaluate(config, inputs)
        degrees = fuzzify(config, inputs)
        strengths = fired_strengths(config, inputs)
        assert len(degrees) == 4 and len(strengths) == len(config.rules)
        if isinstance(crisp, float):
            assert all(type(value) is float
                       for value in [*degrees.values(), *strengths])
            return
        rows = len(crisp)
        for value in [*degrees.values(), *strengths]:
            assert isinstance(value, np.ndarray)
            assert value.shape == (rows,) and value.dtype == np.float64
        for row in range(rows):
            scalar = {name: float(np.broadcast_to(value, (rows,))[row])
                      for name, value in inputs.items()}
            assert {key: column[row] for key, column in degrees.items()} == (
                fuzzify(config, scalar))
            assert [column[row] for column in strengths] == (
                fired_strengths(config, scalar))

    def test_strengths_keep_every_row(self):
        config = two_input_config()
        strengths = fired_strengths(
            config, {"tf": np.array([0.1, 0.9]), "idf": 0.5})
        assert [column.tolist() for column in strengths] == [
            [0.1 * 0.5, 0.9 * 0.5], [(1.0 - 0.1) * 0.5, (1.0 - 0.9) * 0.5]]

    def test_columns_of_different_lengths_rejected(self):
        config = two_input_config()
        with pytest.raises(ConfigError, match="length"):
            evaluate(config, {"tf": np.zeros(3), "idf": np.zeros(4)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        config = two_input_config()
        with pytest.raises(ConfigError, match="'tf' is not a finite number"):
            evaluate(config, {"tf": bad, "idf": 0.5})
        with pytest.raises(ConfigError, match="'idf' is not a finite number"):
            evaluate(config, {"tf": np.array([0.1, 0.2]),
                              "idf": np.array([0.5, bad])})


class TestMomentForm:
    def test_matches_grid_pipeline(self):
        """Random prod/sum/centroid systems, every output curve kind
        including gaussian and sigmoid, within 1e-12 of the grid."""
        rng = np.random.default_rng(37)
        kinds = ("triangular", "trapezoidal", "gaussian", "sigmoid")
        worst = 0.0
        for trial in range(200):
            output_kinds = [kinds[(trial + i) % 4] for i in range(3)]
            config = moment_config(rng, output_kinds)
            inputs = random_inputs(rng, config)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = evaluate(config, inputs)
                want = grid_centroid(config, inputs)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_rule_permutation_is_bit_identical(self):
        rng = np.random.default_rng(41)
        shuffler = random.Random(41)
        for _ in range(300):
            config = moment_config(rng)
            columns = random_columns(rng, config, 5)
            rules = list(config.rules)
            shuffler.shuffle(rules)
            shuffled = dataclasses.replace(config, rules=tuple(rules))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert (evaluate(config, columns).tolist()
                        == evaluate(shuffled, columns).tolist())

    def test_repeated_rules_sum_in_canonical_order(self):
        """Three rules into one consequent set, in every order."""
        import itertools
        rules = [
            parse_rule("if (tf is high) -> (relevance is high) weight 0.3"),
            parse_rule("if (idf is high) -> (relevance is high) weight 0.7"),
            parse_rule("if (tf is not high) -> (relevance is high)"),
            parse_rule("if (idf is not high) -> (relevance is not high)"),
        ]
        inputs = {"tf": np.array([0.13, 0.71]), "idf": np.array([0.37, 0.93])}
        results = {
            tuple(evaluate(two_input_config(rules=order), inputs).tolist())
            for order in itertools.permutations(rules)
        }
        assert len(results) == 1

    def test_all_zero_aggregate_warns_and_returns_midpoint(self):
        config = FisConfig(
            inputs=(default_variable("x"),),
            output=LinguisticVariable("y", (0.2, 0.8), {
                "high": MembershipFunction.triangular(0.2, 0.8, 0.8)}),
            rules=(parse_rule("if (x is high) -> (y is high)"),),
        )
        assert config.has_moment_form
        with pytest.warns(RuntimeWarning, match="all-zero"):
            assert evaluate(config, {"x": 0.0}) == 0.5
        with pytest.warns(RuntimeWarning, match="all-zero"):
            crisp = evaluate(config, {"x": np.array([0.0, 1.0])})
        assert crisp[0] == 0.5
        assert crisp[1] == evaluate(config, {"x": 1.0}) > 0.5


# strengths lie in [0, 1]; ties, both zeros and subnormals are where a
# compare-exchange could part from np.sort
_STRENGTHS = st.sampled_from((0.0, -0.0, 5e-324, 2.5e-310, 0.5, 1.0)) | \
    st.floats(0.0, 1.0)


class TestSortedRows:
    """A consequent set's strength rows are sorted by a network of whole-row
    minimum/maximum up to six rows, and by np.sort above."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(0, 50)),
                  elements=_STRENGTHS))
    def test_same_bytes_as_np_sort(self, block):
        """Byte for byte ``np.sort(block, axis=0)``, except in a column
        holding both 0.0 and -0.0, which is compared by value: np.sort
        leaves their order to the platform's sort kernel (numpy 2.4's
        AVX-512 one does not keep their input order)."""
        got = np.array(_sorted_rows(list(block))).reshape(block.shape)
        want = np.sort(block, axis=0)
        assert np.array_equal(got, want)
        zero = block == 0.0
        mixed = ((zero & np.signbit(block)).any(axis=0)
                 & (zero & ~np.signbit(block)).any(axis=0))
        assert got[:, ~mixed].tobytes() == want[:, ~mixed].tobytes()

    def test_zero_signs_never_reach_the_crisp_output(self):
        """So the network and np.sort give the same scores even where they
        place 0.0 and -0.0 differently: strengths with -0.0, and with 0.0
        in its place, combine to the same bytes under every operator."""
        rules = two_input_config().rules  # one per consequent set
        rng = np.random.default_rng(43)
        fields = [field for field, _ in OPERATORS.values()]
        for combo in itertools.product(
                *(methods for _, methods in OPERATORS.values())):
            operators = dict(zip(fields, combo))
            for _ in range(20):
                picked = [rules[i]
                          for i in rng.integers(0, 2, rng.integers(1, 9))]
                config = two_input_config(rules=picked, **operators)
                signed = rng.choice([0.0, -0.0, 5e-324, 0.3, 1.0],
                                    size=(len(picked), 7))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    assert (_combine(config, list(signed), 7).tobytes()
                            == _combine(config, list(signed + 0.0),
                                        7).tobytes()), combo
