"""Membership function evaluation and construction validation."""

import math

import numpy as np
import pytest

from frank.errors import ConfigError
from frank.membership import MembershipFunction

from generators import random_mf


class TestTriangular:
    def test_rising_edge(self):
        mf = MembershipFunction.triangular(0.0, 1.0, 1.0)
        assert mf.evaluate(0.7) == 0.7

    def test_peak_is_exactly_one(self):
        mf = MembershipFunction.triangular(0.1, 0.4, 0.9)
        assert mf.evaluate(0.4) == 1.0

    def test_zero_outside_feet(self):
        mf = MembershipFunction.triangular(0.2, 0.5, 0.8)
        assert mf.evaluate(0.2) == 0.0
        assert mf.evaluate(0.8) == 0.0
        assert mf.evaluate(-1.0) == 0.0
        assert mf.evaluate(2.0) == 0.0

    def test_degenerate_right_edge(self):
        # collapsed falling edge: 1 at the peak, 0 nowhere on the right
        mf = MembershipFunction.triangular(0.0, 1.0, 1.0)
        assert mf.evaluate(1.0) == 1.0
        assert mf.evaluate(0.0) == 0.0

    def test_degenerate_left_edge(self):
        mf = MembershipFunction.triangular(0.0, 0.0, 1.0)
        assert mf.evaluate(0.0) == 1.0
        assert mf.evaluate(0.3) == 0.7
        assert mf.evaluate(1.0) == 0.0

    def test_point_triangle(self):
        mf = MembershipFunction.triangular(0.5, 0.5, 0.5)
        assert mf.evaluate(0.5) == 1.0
        assert mf.evaluate(0.4999) == 0.0


class TestTrapezoidal:
    def test_rising_edge_interpolation(self):
        mf = MembershipFunction.trapezoidal(0.0, 0.2, 0.8, 1.0)
        assert mf.evaluate(0.1) == 0.5

    def test_plateau(self):
        mf = MembershipFunction.trapezoidal(0.0, 0.2, 0.8, 1.0)
        assert mf.evaluate(0.2) == 1.0
        assert mf.evaluate(0.5) == 1.0
        assert mf.evaluate(0.8) == 1.0

    def test_falling_edge(self):
        mf = MembershipFunction.trapezoidal(0.0, 0.2, 0.8, 1.0)
        assert mf.evaluate(0.9) == pytest.approx(0.5)


class TestSmoothKinds:
    def test_gaussian_peak_at_mean(self):
        mf = MembershipFunction.gaussian(0.3, 0.6)
        assert mf.evaluate(0.6) == 1.0

    def test_gaussian_width(self):
        mf = MembershipFunction.gaussian(sigma=2.0, mean=0.0)
        assert mf.evaluate(2.0) == pytest.approx(math.exp(-0.5))

    def test_sigmoid_midpoint(self):
        mf = MembershipFunction.sigmoid(slope=4.0, inflection=0.25)
        assert mf.evaluate(0.25) == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        mf = MembershipFunction.sigmoid(slope=1000.0, inflection=0.0)
        assert mf.evaluate(1e6) == 1.0
        assert 0.0 <= mf.evaluate(-1e6) < 1e-300


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
        assert MembershipFunction.gaussian(1e-150, 0.5).evaluate(0.5) == 1.0

    def test_wrong_parameter_count(self):
        with pytest.raises(ConfigError):
            MembershipFunction("triangular", (0.0, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            MembershipFunction("bell", (0.0, 1.0))

    def test_non_finite_parameters(self):
        with pytest.raises(ConfigError):
            MembershipFunction.triangular(0.0, math.nan, 1.0)


def test_degree_always_in_unit_interval():
    """Random parameters of every kind stay inside [0, 1] at random points."""
    rng = np.random.default_rng(42)
    for _ in range(500):
        mf = random_mf(rng, -3.0, 3.0)
        for x in rng.uniform(-10.0, 10.0, size=20):
            degree = mf.evaluate(float(x))
            assert 0.0 <= degree <= 1.0


def test_sample_matches_scalar_evaluation():
    """The vectorized path agrees with the scalar path: bitwise for the
    piecewise-linear kinds, to vectorized-exp rounding for the smooth ones."""
    rng = np.random.default_rng(7)
    xs = np.linspace(-3.5, 3.5, 701)
    for _ in range(100):
        mf = random_mf(rng, -3.0, 3.0)
        sampled = mf.sample(xs)
        scalar = np.array([mf.evaluate(float(x)) for x in xs])
        if mf.kind in ("triangular", "trapezoidal"):
            assert np.array_equal(sampled, scalar)
        else:
            np.testing.assert_allclose(sampled, scalar, rtol=1e-14, atol=0)
