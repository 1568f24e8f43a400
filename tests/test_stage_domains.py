"""Every exported numeric stage function, fed the floats where arithmetic
breaks (NaN, +-inf, +-0, subnormals, +-1e308), either returns a result in
its documented range, with no numpy ``RuntimeWarning``, or raises a
:class:`FrankError`.  ``fire_rule`` is fed degrees in [0, 1] only: its
inputs come from ``fuzzify`` or the scorers' memberships, so it checks
nothing.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frank.errors import FrankError
from frank.fis import (AGGREGATIONS, AND_METHODS, DEFUZZIFICATIONS,
                       IMPLICATIONS, FisConfig, LinguisticVariable, aggregate,
                       default_variable, defuzzify, evaluate, fire_rule,
                       fuzzify, imply)
from frank.membership import MembershipFunction
from frank.rules import RuleAst, RuleClause, parse_rule

from generators import KINDS

_MAX = 1.7976931348623157e308
_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e308, -1e308, _MAX, -_MAX, 0.5, 1.0)
FLOATS = st.sampled_from(_SPECIAL) | st.floats()
# degrees: [0, 1] with -0.0 and subnormals
DEGREES = st.sampled_from((0.0, -0.0, 5e-324, 0.5, 1.0 - 2 ** -53, 1.0)) | \
    st.floats(0.0, 1.0)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def outcome(call):
    """The call's result, or None if it raised a FrankError.  Any numpy
    RuntimeWarning fails the test, except the documented all-zero
    fallback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "all-zero aggregate set",
                                RuntimeWarning)
        try:
            return call()
        except FrankError:
            return None


def within(values, lo, hi) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all((values >= lo) & (values <= hi)))


@SETTINGS
@given(kind=st.sampled_from(KINDS), params=st.lists(FLOATS, min_size=4,
                                                    max_size=4),
       ordered=st.booleans(), points=st.lists(FLOATS, min_size=1,
                                              max_size=6))
def test_membership_functions(kind, params, ordered, points):
    """A curve constructs or raises; one that constructs gives every point
    a degree in [0, 1], and a NaN point degree 0."""
    count = {"triangular": 3, "trapezoidal": 4}.get(kind, 2)
    params = params[:count]
    if ordered and not any(map(math.isnan, params)):
        params = sorted(params)
    mf = outcome(lambda: getattr(MembershipFunction, kind)(*params))
    if mf is None:
        return
    degrees = outcome(lambda: mf.sample(np.array(points)))
    assert within(degrees, 0.0, 1.0), (mf, points, degrees)
    for x, degree in zip(points, degrees.tolist()):
        assert within(outcome(lambda: mf.evaluate(x)), 0.0, 1.0)
        if math.isnan(x):
            assert degree == 0.0


# one set of each shape: a ramp, a Gaussian and a falling sigmoid
_SETS = {"high": MembershipFunction.triangular(0.0, 1.0, 1.0),
         "low": MembershipFunction.gaussian(0.3, 0.1),
         "mid": MembershipFunction.sigmoid(-8.0, 0.5)}


@SETTINGS
@given(universe=st.tuples(FLOATS, FLOATS), tf=FLOATS,
       column=st.lists(FLOATS, min_size=1, max_size=4))
def test_fuzzify(universe, tf, column):
    """Non-finite inputs and bad universes raise; every degree of finite
    inputs, clamped to the universe, lies in [0, 1]."""
    def build():
        return FisConfig(
            (LinguisticVariable("tf", universe, _SETS),
             default_variable("idf")),
            default_variable("relevance"),
            (parse_rule("if (tf is high) and (idf is high) "
                        "-> (relevance is high)"),))
    config = outcome(build)
    if config is None:
        return
    for inputs in ({"tf": tf, "idf": 0.5}, {"tf": np.array(column),
                                            "idf": 0.5}):
        degrees = outcome(lambda: fuzzify(config, inputs))
        if degrees is None:
            assert not np.isfinite(inputs["tf"]).all()
            continue
        for value in degrees.values():
            assert within(value, 0.0, 1.0), (inputs, degrees)


@SETTINGS
@given(a=DEGREES, b=DEGREES, c=DEGREES, weight=DEGREES.filter(bool),
       negated=st.lists(st.booleans(), min_size=3, max_size=3),
       and_method=st.sampled_from(AND_METHODS))
def test_fire_rule(a, b, c, weight, negated, and_method):
    """Degrees in [0, 1] and a weight in (0, 1] give a strength in [0,
    weight], as floats or as columns."""
    rule = RuleAst(tuple(RuleClause(name, "high", flag) for name, flag
                         in zip(("tf", "idf", "overlap"), negated)),
                   RuleClause("relevance", "high"), weight)
    for memberships in ({("tf", "high"): a, ("idf", "high"): b,
                         ("overlap", "high"): c},
                        {("tf", "high"): np.array([a, b]),
                         ("idf", "high"): np.array([[b], [c]]),
                         ("overlap", "high"): np.array([c, a])}):
        strength = outcome(lambda: fire_rule(rule, memberships, and_method))
        assert within(strength, 0.0, weight), (memberships, strength)


@SETTINGS
@given(samples=st.lists(FLOATS, min_size=1, max_size=6), strength=FLOATS,
       implication=st.sampled_from(IMPLICATIONS))
@example(samples=[1e200, 0.5], strength=1e200, implication="prod")
def test_imply(samples, strength, implication):
    """Finite, nonnegative samples and strength give finite, nonnegative
    implied samples, no larger than the samples under min."""
    implied = outcome(lambda: imply(np.array(samples), strength,
                                    implication))
    if implied is None:
        return
    assert within(implied, 0.0, _MAX), (samples, strength, implied)
    if implication == "min":
        assert (implied <= np.array(samples)).all()


@SETTINGS
@given(sets=st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=1,
                     max_size=4),
       aggregation=st.sampled_from(AGGREGATIONS))
@example(sets=[[3.0, 0.5, 0.0]] * 2, aggregation="probor")
@example(sets=[[1e308, 0.5, 0.0]] * 2, aggregation="sum")
def test_aggregate(sets, aggregation):
    """Finite, nonnegative implied samples aggregate to finite,
    nonnegative samples; under probor they must be degrees, and so is the
    result."""
    combined = outcome(lambda: aggregate([np.array(s) for s in sets],
                                         aggregation))
    if combined is None:
        return
    hi = 1.0 if aggregation == "probor" else _MAX
    assert within(combined, 0.0, hi), (sets, combined)


@SETTINGS
@given(samples=st.lists(FLOATS, min_size=2, max_size=6),
       universe=st.tuples(FLOATS, FLOATS),
       method=st.sampled_from(DEFUZZIFICATIONS))
@example(samples=[5e-324, 0.0], universe=(0.5, 1.0), method="centroid")
@example(samples=[0.0, 0.0, 3.0], universe=(0.0, 0.1), method="centroid")
@example(samples=[0.0] * 4, universe=(0.0, _MAX), method="centroid")
def test_defuzzify(samples, universe, method):
    """An aggregate defuzzifies to a point of its universe, or raises."""
    crisp = outcome(lambda: defuzzify(np.array(samples), universe, method))
    if crisp is None:
        return
    assert within(crisp, *universe), (samples, universe, method, crisp)


_RULES = ("if (tf is high) and (idf is not low) -> (relevance is high)",
          "if (tf is mid) -> (relevance is not high) weight 0.25",
          "if (idf is low) -> (relevance is high) weight 5e-324")


@pytest.mark.parametrize("operators", [
    ("prod", "prod", "sum", "centroid"), ("min", "min", "max", "bisector"),
    ("prod", "prod", "probor", "mom"), ("min", "prod", "sum", "lom")],
    ids=["moments", "min-max-bisector", "probor-mom", "grid-sum-lom"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(output=st.tuples(FLOATS, FLOATS), tf=FLOATS,
       idf=st.lists(FLOATS, min_size=1, max_size=3))
def test_evaluate(operators, output, tf, idf):
    """The whole pipeline gives a crisp value inside the output universe
    for every row, or raises."""
    def build():
        return FisConfig(
            tuple(LinguisticVariable(name, (0.0, 1.0), _SETS)
                  for name in ("tf", "idf")),
            LinguisticVariable("relevance", output, {
                "high": MembershipFunction.triangular(*sorted(
                    (output[0], output[1], output[1]))),
            }),
            tuple(parse_rule(rule) for rule in _RULES),
            *operators, resolution=11)
    config = outcome(build)
    if config is None:
        return
    crisp = outcome(lambda: evaluate(config, {"tf": tf,
                                              "idf": np.array(idf)}))
    if crisp is None:
        assert not np.isfinite([tf] + idf).all()
        return
    assert within(crisp, *config.output.universe), (output, tf, idf, crisp)
