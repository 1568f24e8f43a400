"""Parameterized membership functions mapping crisp points to degrees in [0, 1].

Four curve families are supported.  The piecewise-linear kinds (triangular,
trapezoidal) are evaluated exactly, with no smoothing at the breakpoints:

    triangular(a, b, c)         feet a and c, peak b;   a <= b <= c
    trapezoidal(a, b, c, d)     feet a and d, shoulders b and c;
                                a <= b <= c <= d
    gaussian(sigma, mean)       exp(-(x - mean)^2 / (2 sigma^2)); sigma > 0
    sigmoid(slope, inflection)  1 / (1 + exp(-slope * (x - inflection)))

A piecewise-linear curve is sampled as clipped ramps: the rise (x - a) /
(b - a) and the fall (d - x) / (d - c), the degree the smaller of the two
clipped to [0, 1].  A degenerate edge (a == b, or c == d) is a step instead:
the peak or shoulder value still evaluates to 1, points strictly on the
collapsed side evaluate to 0.  Such a curve gives a signed zero such as
(d - x) = -0.0 degree 0.0, so it never prints ``-0.000000``.  Where x -
inflection overflows, a sigmoid takes slope * x - slope * inflection, so a
small slope keeps the true degree there.  An edge's span (b - a, d - c) and
a Gaussian's 2 sigma^2 must be finite and the latter nonzero, so every curve
that constructs gives a degree in [0, 1] at every finite point and at
+-inf, and degree 0 at a NaN point, whatever its kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_PARAM_COUNT = {"triangular": 3, "trapezoidal": 4, "gaussian": 2, "sigmoid": 2}
_ORDER = {"triangular": "a <= b <= c", "trapezoidal": "a <= b <= c <= d"}

# exp() overflows beyond this; the sigmoid is saturated long before.
_EXP_CLAMP = 700.0


def _float(value: object, what: str, line: int | None = None) -> float:
    """``value``, a Python or numpy int or float but not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{what} must be an int or float number, got "
                          f"{value!r}", line=line)
    return float(value)


@dataclass(frozen=True)
class MembershipFunction:
    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _PARAM_COUNT:
            raise ConfigError(f"unknown membership function kind {self.kind!r}")
        params = self.params
        if not isinstance(params, (tuple, list, np.ndarray)):
            params = (params,)  # one value: a number fails the count below
        params = tuple(_float(p, f"{self.kind} parameter") for p in params)
        object.__setattr__(self, "params", params)
        if len(params) != _PARAM_COUNT[self.kind]:
            raise ConfigError(
                f"{self.kind} takes {_PARAM_COUNT[self.kind]} parameters, "
                f"got {len(params)}"
            )
        if any(not math.isfinite(p) for p in params):
            raise ConfigError(f"{self.kind} parameters must be finite: {params}")
        if self.kind in _ORDER:
            if list(params) != sorted(params):
                raise ConfigError(
                    f"{self.kind} requires {_ORDER[self.kind]}, got {params}")
            a, b, c, d = self._corners
            # sample divides by the edge spans, which may overflow to inf
            if not (math.isfinite(b - a) and math.isfinite(d - c)):
                raise ConfigError(
                    f"{self.kind} requires finite edge spans, got {params}")
        if self.kind == "gaussian":
            sigma, _ = params
            # sample divides by 2 sigma^2, which is 0 for sigma below ~1.6e-162
            if not (sigma > 0 and 2.0 * sigma * sigma > 0):
                raise ConfigError(f"gaussian requires sigma > 0 and "
                                  f"2 sigma^2 > 0, got {sigma}")
            # ... and inf for sigma above ~9.5e153
            if not math.isfinite(2.0 * sigma * sigma):
                raise ConfigError(
                    f"gaussian requires a finite 2 sigma^2, got {sigma}")

    @property
    def _corners(self) -> tuple[float, float, float, float]:
        """A piecewise-linear curve's (a, b, c, d): a triangle is the
        trapezoid whose shoulders meet at its peak."""
        p = self.params
        return p if len(p) == 4 else (p[0], p[1], p[1], p[2])

    @classmethod
    def triangular(cls, a: float, b: float, c: float) -> MembershipFunction:
        return cls("triangular", (a, b, c))

    @classmethod
    def trapezoidal(cls, a: float, b: float, c: float, d: float) -> MembershipFunction:
        return cls("trapezoidal", (a, b, c, d))

    @classmethod
    def gaussian(cls, sigma: float, mean: float) -> MembershipFunction:
        return cls("gaussian", (sigma, mean))

    @classmethod
    def sigmoid(cls, slope: float, inflection: float) -> MembershipFunction:
        return cls("sigmoid", (slope, inflection))

    def sample(self, xs: float | np.ndarray) -> float | np.ndarray:
        """Degrees of membership of a point or an array of points."""
        if np.asarray(xs).dtype.kind not in "iuf":
            raise ConfigError(f"sample points must be numbers, got {xs!r}")
        xs = np.asarray(xs, dtype=np.float64)
        # x - a and the like may overflow to +-inf, which is the right
        # limit: a clipped ramp, a degree 0 far from a Gaussian, a saturated
        # sigmoid
        with np.errstate(over="ignore"):
            if self.kind in _ORDER:
                a, b, c, d = self._corners
                rise = (xs - a) / (b - a) if a < b else (xs >= b) * 1.0
                fall = (d - xs) / (d - c) if c < d else (xs <= c) * 1.0
                y = np.fmax(np.minimum(np.minimum(rise, fall), 1.0), 0.0)
                y += 0.0  # -0.0 becomes 0.0
                return y
            if self.kind == "gaussian":
                sigma, mean = self.params
                y = np.exp(-((xs - mean) ** 2) / (2.0 * sigma * sigma))
                return np.fmax(y, 0.0)  # 0, not NaN, at a NaN point
            slope, inflection = self.params
            if not slope:  # flat at 1/2, even where x - inflection is inf
                return np.where(np.isnan(xs), 0.0, 0.5)[()]  # a float for a point
            offset = xs - inflection
            # where a finite x is so far from the inflection that x -
            # inflection overflows, the two have opposite signs, so slope *
            # x - slope * inflection is finite or +-inf, never nan; the
            # points where it is not taken may give inf - inf
            with np.errstate(invalid="ignore"):
                z = np.where(np.isinf(offset) & np.isfinite(xs),
                             slope * xs - slope * inflection, slope * offset)
        z = np.clip(z, -_EXP_CLAMP, _EXP_CLAMP)
        return np.fmax(1.0 / (1.0 + np.exp(-z)), 0.0)  # 0 at a NaN point
