"""Membership function evaluation and construction validation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frank.errors import ConfigError
from frank.membership import MembershipFunction

from generators import KINDS, random_mf
from oracles import reference_sample


class TestTriangular:
    def test_rising_edge(self):
        mf = MembershipFunction.triangular(0.0, 1.0, 1.0)
        assert mf.sample(0.7) == 0.7

    def test_peak_is_exactly_one(self):
        mf = MembershipFunction.triangular(0.1, 0.4, 0.9)
        assert mf.sample(0.4) == 1.0

    def test_zero_outside_feet(self):
        mf = MembershipFunction.triangular(0.2, 0.5, 0.8)
        assert mf.sample(0.2) == 0.0
        assert mf.sample(0.8) == 0.0
        assert mf.sample(-1.0) == 0.0
        assert mf.sample(2.0) == 0.0

    def test_degenerate_right_edge(self):
        # collapsed falling edge: 1 at the peak, 0 nowhere on the right
        mf = MembershipFunction.triangular(0.0, 1.0, 1.0)
        assert mf.sample(1.0) == 1.0
        assert mf.sample(0.0) == 0.0

    def test_degenerate_left_edge(self):
        mf = MembershipFunction.triangular(0.0, 0.0, 1.0)
        assert mf.sample(0.0) == 1.0
        assert mf.sample(0.3) == 0.7
        assert mf.sample(1.0) == 0.0

    def test_point_triangle(self):
        mf = MembershipFunction.triangular(0.5, 0.5, 0.5)
        assert mf.sample(0.5) == 1.0
        assert mf.sample(0.4999) == 0.0


class TestTrapezoidal:
    def test_rising_edge_interpolation(self):
        mf = MembershipFunction.trapezoidal(0.0, 0.2, 0.8, 1.0)
        assert mf.sample(0.1) == 0.5

    def test_plateau(self):
        mf = MembershipFunction.trapezoidal(0.0, 0.2, 0.8, 1.0)
        assert mf.sample(0.2) == 1.0
        assert mf.sample(0.5) == 1.0
        assert mf.sample(0.8) == 1.0

    def test_falling_edge(self):
        mf = MembershipFunction.trapezoidal(0.0, 0.2, 0.8, 1.0)
        assert mf.sample(0.9) == pytest.approx(0.5)


class TestSmoothKinds:
    def test_gaussian_peak_at_mean(self):
        mf = MembershipFunction.gaussian(0.3, 0.6)
        assert mf.sample(0.6) == 1.0

    def test_gaussian_width(self):
        mf = MembershipFunction.gaussian(sigma=2.0, mean=0.0)
        assert mf.sample(2.0) == pytest.approx(math.exp(-0.5))

    def test_sigmoid_midpoint(self):
        mf = MembershipFunction.sigmoid(slope=4.0, inflection=0.25)
        assert mf.sample(0.25) == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        mf = MembershipFunction.sigmoid(slope=1000.0, inflection=0.0)
        assert mf.sample(1e6) == 1.0
        assert 0.0 <= mf.sample(-1e6) < 1e-300

    def test_small_slope_sigmoid_where_the_offset_overflows(self):
        # x - inflection is -inf here, but slope * x - slope * inflection
        # is -2: the degree is 1 / (1 + e^2), not a saturated 0
        mf = MembershipFunction.sigmoid(1e-308, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mf.sample(-1e308) == pytest.approx(
                1.0 / (1.0 + math.exp(2.0)), rel=1e-12)
            assert MembershipFunction.sigmoid(-1e-308, -1e308).sample(
                1e308) == pytest.approx(1.0 / (1.0 + math.exp(2.0)),
                                        rel=1e-12)

    def test_large_slope_sigmoid_where_the_offset_overflows(self):
        # slope * x and slope * inflection overflow to -inf and inf, whose
        # difference is -inf: still saturated, never nan
        mf = MembershipFunction.sigmoid(1e10, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            degrees = mf.sample(np.array([-1e308, 1e308, -math.inf,
                                          math.inf]))
        assert degrees[0] < 1e-300
        assert degrees[1:].tolist() == [0.5, degrees[0], 1.0]


class TestValidation:
    def test_triangular_ordering_enforced(self):
        with pytest.raises(ConfigError):
            MembershipFunction.triangular(0.5, 0.2, 0.8)

    def test_trapezoidal_ordering_enforced(self):
        with pytest.raises(ConfigError):
            MembershipFunction.trapezoidal(0.0, 0.5, 0.4, 1.0)

    def test_gaussian_sigma_positive(self):
        with pytest.raises(ConfigError):
            MembershipFunction.gaussian(0.0, 0.5)

    def test_gaussian_two_sigma_squared_positive(self):
        # sample divides by 2 sigma^2, which underflows to 0 here
        with pytest.raises(ConfigError, match="2 sigma\\^2 > 0"):
            MembershipFunction.gaussian(1e-320, 0.5)
        assert MembershipFunction.gaussian(1e-150, 0.5).sample(0.5) == 1.0

    def test_gaussian_two_sigma_squared_finite(self):
        # 2 sigma^2 overflows to inf here, and inf / inf is nan
        with pytest.raises(ConfigError, match="finite 2 sigma\\^2"):
            MembershipFunction.gaussian(1e200, 1e300)
        assert MembershipFunction.gaussian(1e150, 0.0).sample(1e150) == \
            pytest.approx(math.exp(-0.5))

    @pytest.mark.parametrize("kind, params", [
        ("triangular", (-1e308, 1e308, 1e308)),
        ("triangular", (-1e308, -1e308, 1e308)),
        ("trapezoidal", (-1e308, 1e308, 1e308, 1e308)),
        ("trapezoidal", (-1e308, -1e308, -1e308, 1e308)),
    ], ids=["triangle-rising", "triangle-falling", "trapezoid-rising",
            "trapezoid-falling"])
    def test_edge_spans_finite(self, kind, params):
        # b - a or d - c overflows to inf, which zeroed the whole edge
        with pytest.raises(ConfigError, match="finite edge spans"):
            MembershipFunction(kind, params)

    def test_widest_finite_edges_accepted(self):
        assert MembershipFunction.triangular(
            -1e307, 1e307, 1e307).sample(0.5) == 0.5
        assert MembershipFunction.triangular(
            -1e308, 0.0, 1e308).sample(5e307) == 0.5
        assert MembershipFunction.trapezoidal(
            -1e308, 0.0, 0.0, 1e308).sample(-5e307) == 0.5

    def test_flat_sigmoid_is_one_half(self):
        # 0 * (x - c) was nan where x - c overflows
        mf = MembershipFunction.sigmoid(0.0, 1e308)
        assert mf.sample(-1e308) == 0.5
        assert mf.sample(np.array([-1e308, 0.0, 1e308])).tolist() == [0.5] * 3

    def test_wrong_parameter_count(self):
        with pytest.raises(ConfigError):
            MembershipFunction("triangular", (0.0, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            MembershipFunction("bell", (0.0, 1.0))

    def test_non_finite_parameters(self):
        with pytest.raises(ConfigError):
            MembershipFunction.triangular(0.0, math.nan, 1.0)

    @pytest.mark.parametrize("kind, params, message", [
        ("triangular", ("0", "1_0", "１０"),
         "triangular parameter must be an int or float number, got '0'"),
        ("triangular", (False, True, True),
         "triangular parameter must be an int or float number, got False"),
        ("triangular", (0.0, None, 1.0),
         "triangular parameter must be an int or float number, got None"),
        ("gaussian", (1.0, b"0"),
         "gaussian parameter must be an int or float number, got b'0'"),
        ("gaussian", 5, "gaussian takes 2 parameters, got 1"),
        (["triangular"], (0.0, 0.5, 1.0),
         "unknown membership function kind ['triangular']"),
    ], ids=["text", "bool", "none", "bytes", "not-a-sequence", "list-kind"])
    def test_parameters_and_kind_of_the_wrong_type(self, kind, params,
                                                   message):
        """Text is not parsed here, nor a bool taken for 0 or 1."""
        with pytest.raises(ConfigError) as excinfo:
            MembershipFunction(kind, params)
        assert str(excinfo.value) == message

    def test_numpy_numbers_accepted(self):
        mf = MembershipFunction("triangular", (np.int64(0), np.float32(0.5),
                                               np.uint8(1)))
        assert mf.params == (0.0, 0.5, 1.0)
        assert MembershipFunction(
            "gaussian", np.array([1.0, 0.0])).params == (1.0, 0.0)

    @pytest.mark.parametrize("points", [
        ["0.5"], "0.5", [True], True, np.array([b"1"]),
        np.array([0.5], dtype=object)],
        ids=["text-list", "text", "bool-list", "bool", "bytes", "object"])
    def test_sample_points_of_the_wrong_type(self, points):
        with pytest.raises(ConfigError, match="sample points must be numbers"):
            MembershipFunction.triangular(0.0, 1.0, 2.0).sample(points)

    def test_sample_takes_int_unsigned_and_float_points(self):
        mf = MembershipFunction.triangular(0.0, 1.0, 2.0)
        assert mf.sample([0, 1, 2]).tolist() == [0.0, 1.0, 0.0]
        assert mf.sample(np.array([1], dtype=np.uint8)).tolist() == [1.0]
        assert mf.sample(np.float32(0.5)) == 0.5
        assert mf.sample(math.nan) == 0.0


def test_degree_always_in_unit_interval():
    """Random parameters of every kind stay inside [0, 1] at random points."""
    rng = np.random.default_rng(42)
    for _ in range(500):
        mf = random_mf(rng, -3.0, 3.0)
        for x in rng.uniform(-10.0, 10.0, size=20):
            degree = mf.sample(float(x))
            assert 0.0 <= degree <= 1.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.lists(_FINITE, min_size=4, max_size=4),
       st.booleans(), st.lists(_FINITE, min_size=1, max_size=8))
def test_every_curve_that_constructs_stays_in_unit_interval(kind, values,
                                                            ordered, points):
    """Extreme finite parameters either fail to construct or give a degree
    in [0, 1], without a numpy warning, at every finite point."""
    count = {"triangular": 3, "trapezoidal": 4}.get(kind, 2)
    params = values[:count]
    if ordered:
        params = sorted(params)
    try:
        mf = MembershipFunction(kind, tuple(params))
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        degrees = mf.sample(np.array(points))
        assert [mf.sample(x) for x in points] == degrees.tolist()
    assert np.all((degrees >= 0.0) & (degrees <= 1.0)), (mf, points, degrees)


def test_sample_matches_scalar_evaluation():
    """The vectorized path agrees with the scalar path: bitwise for the
    piecewise-linear kinds, to vectorized-exp rounding for the smooth ones."""
    rng = np.random.default_rng(7)
    xs = np.linspace(-3.5, 3.5, 701)
    for _ in range(100):
        mf = random_mf(rng, -3.0, 3.0)
        sampled = mf.sample(xs)
        scalar = np.array([mf.sample(float(x)) for x in xs])
        if mf.kind in ("triangular", "trapezoidal"):
            assert np.array_equal(sampled, scalar)
        else:
            np.testing.assert_allclose(sampled, scalar, rtol=1e-14, atol=0)


def _bits(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _near_corners(corners) -> list[float]:
    """Each corner and its neighbouring floats, +-inf past the largest."""
    with np.errstate(over="ignore"):
        return [y for x in corners for y in (
            np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf))]


_SPECIAL_POINTS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308,
                   5e-324, -5e-324]


@pytest.mark.parametrize("mf, at_inf, at_minus_inf", [
    (MembershipFunction.gaussian(0.1, 0.5), 0.0, 0.0),
    (MembershipFunction.sigmoid(2.0, 0.5), 1.0, 0.0),
    (MembershipFunction.sigmoid(-3.0, 0.0), 0.0, 1.0),
    (MembershipFunction.sigmoid(0.0, 0.5), 0.5, 0.5),
], ids=["gaussian", "rising-sigmoid", "falling-sigmoid", "flat-sigmoid"])
def test_smooth_curve_at_special_points(mf, at_inf, at_minus_inf):
    """As a ramp does, a Gaussian or a sigmoid, a flat one included, gives a
    NaN point degree 0, +-inf its limits and every special point a degree
    in [0, 1], with no numpy warning, in a column or one point at a time."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sampled = mf.sample(np.array(_SPECIAL_POINTS))
        one_by_one = [mf.sample(x) for x in _SPECIAL_POINTS]
    np.testing.assert_allclose(one_by_one, sampled, rtol=1e-14, atol=0)
    nan, inf, minus_inf = sampled[2:5]  # as _SPECIAL_POINTS lists them
    assert nan == 0.0
    # a saturated sigmoid stops at 1 / (1 + e^700), not at 0
    assert inf == pytest.approx(at_inf, abs=1e-300)
    assert minus_inf == pytest.approx(at_minus_inf, abs=1e-300)
    assert np.all((sampled >= 0.0) & (sampled <= 1.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.booleans(), st.lists(_FINITE, min_size=4, max_size=4),
       st.lists(st.floats(), max_size=8))
def test_piecewise_linear_sample_is_the_masked_reference(trapezoid, values,
                                                         points):
    """The clipped ramps give the masked scatters' bytes at every point:
    random and corner-neighbouring points, NaN, +-inf and signed zeros."""
    params = sorted(values if trapezoid else values[:3])
    try:
        mf = MembershipFunction("trapezoidal" if trapezoid else "triangular",
                                tuple(params))
    except ConfigError:
        return
    a, b, c, d = params if trapezoid else (params[0], params[1], params[1],
                                           params[2])
    xs = np.array(points + _SPECIAL_POINTS + _near_corners((a, b, c, d)))
    want = _bits(reference_sample(a, b, c, d, xs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a whole column and one point at a time, as numpy's vector loops
        # and their scalar tails may treat signed zeros apart
        assert _bits(mf.sample(xs)) == want
        assert _bits([mf.sample(x) for x in xs]) == want


@pytest.mark.parametrize("corners", [
    (0.0, 0.0, 1.0, 1.0),          # both edges collapsed
    (0.0, 0.0, 0.0, 0.0),          # a point
    (-1.0, -0.5, -0.5, -0.0),      # d = -0.0
    (-0.0, -0.0, 0.5, 1.0),        # a collapsed edge at -0.0
    (-0.0, 0.0, 0.0, 0.0),         # corners that differ only in sign
    (0.0, 1.0, 1.0, 1.0),          # the default "high" ramp
    (0.0, 0.0, 0.0, 1.0),          # the default "not_high" ramp
    (-1e308, -1e300, 1e300, 1e308),
    (-5e-324, 0.0, 0.0, 5e-324),   # denormal edges
    (1.0, 1.0 + 2.0 ** -52, 2.0 - 2.0 ** -52, 2.0),
], ids=["collapsed-edges", "point", "d-neg-zero", "a-neg-zero",
        "signed-zero-corners", "high", "not-high", "widest", "denormal",
        "adjacent-floats"])
def test_piecewise_linear_sample_matches_reference_at_edge_cases(corners):
    mf = MembershipFunction.trapezoidal(*corners)
    between = [x / 2 + y / 2 for x, y in zip(corners, corners[1:])]
    xs = np.array(_SPECIAL_POINTS + _near_corners(corners) + between)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sampled = mf.sample(xs)
        one_by_one = [mf.sample(x) for x in xs]
    assert _bits(sampled) == _bits(reference_sample(*corners, xs))
    assert _bits(one_by_one) == _bits(sampled)
    # no signed zero leaks, which "%f" would print as -0.000000
    assert not np.signbit(sampled).any()
