"""Mamdani fuzzy inference over sampled output universes.

The pipeline is the classic five-step chain:

    fuzzify -> fire_rule (per rule) -> imply -> aggregate -> defuzzify

A :class:`FisConfig` is immutable once constructed and ``evaluate`` is a pure
function of ``(config, inputs)``, so a single config may be shared freely
across threads.  The output universe is discretized on a uniform, inclusive
grid of ``resolution`` points; consequent samples are cached per config.

Sum aggregation is deliberately NOT clipped at 1: the aggregate carries the
total rule mass, which is what makes rule weights combine linearly.  Rule
weights scale the firing strength before implication.

``evaluate`` takes a number or a 1-D column per input variable and scores
every row at once; a scalar call is the one-row case of the same code.
Combining reads implied sets, not rules: one rule's strengths may be a
block of them, as when the ranker fires a template rule for every term.

Under product implication, sum aggregation and centroid defuzzification
(the default) the aggregate is sum_j s_j * C_j, so its centroid on the grid
is sum_j s_j * M1(C_j) / sum_j s_j * M0(C_j), where M0 and M1 are the
zeroth and first grid moments of each consequent set, computed once per
config.  ``evaluate`` uses that moment form there and builds no grid per
row.  Every other operator combination runs the grid pipeline above, row
by row; composed from ``imply``/``aggregate``/``defuzzify``, that pipeline
is also the oracle the moment form is tested against (within 1e-12).

Rule order never affects the result, bit for bit: implied sets are combined
in a canonical order (consequent label, negation, strength) rather than rule
order, which pins down the floating-point accumulation order.  The moment
form sums strengths per consequent set in ascending order, over sets in
sorted order, to the same end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .membership import MembershipFunction
from .rules import RuleAst

AND_METHODS = ("prod", "min")
IMPLICATIONS = ("prod", "min")
AGGREGATIONS = ("sum", "max", "probor")
DEFUZZIFICATIONS = ("centroid", "bisector", "mom", "lom", "som")

DEFAULT_RESOLUTION = 1001
# Upper bound on ``resolution``: each consequent set is sampled on a grid of
# that many float64 points, so an unbounded value allocates without limit.
MAX_RESOLUTION = 1_000_000


@dataclass(frozen=True)
class LinguisticVariable:
    """A named quantity whose values are labeled fuzzy sets."""

    name: str
    universe: tuple[float, float]
    sets: dict[str, MembershipFunction]

    def __post_init__(self):
        lo, hi = map(float, self.universe)
        object.__setattr__(self, "universe", (lo, hi))
        if not self.name:
            raise ConfigError("variable name must be nonempty")
        if not (lo < hi and np.isfinite(hi - lo)):  # so lo and hi are too
            raise ConfigError(
                f"variable {self.name!r}: universe requires lo < hi and a "
                f"finite hi - lo, got {self.universe}"
            )
        if not self.sets:
            raise ConfigError(f"variable {self.name!r} has no fuzzy sets")

    def renamed(self, name: str) -> LinguisticVariable:
        return LinguisticVariable(name, self.universe, dict(self.sets))


def default_variable(name: str) -> LinguisticVariable:
    """A [0, 1] variable with the complementary ``high``/``not_high`` ramps.

    ``high`` rises linearly from 0 to 1 across the universe, ``not_high`` is
    its pointwise complement, so fuzzifying x yields degrees (x, 1 - x).
    """
    return LinguisticVariable(
        name,
        (0.0, 1.0),
        {
            "high": MembershipFunction.triangular(0.0, 1.0, 1.0),
            "not_high": MembershipFunction.triangular(0.0, 0.0, 1.0),
        },
    )


@dataclass(frozen=True)
class AggregateSet:
    """Pointwise-aggregated membership over the output grid.

    Samples may exceed 1 under sum aggregation; they are never negative.
    """

    universe: tuple[float, float]
    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1 or len(samples) < 2:
            raise ConfigError("aggregate needs a 1-D grid of at least 2 samples")
        if (samples < 0).any():
            raise ConfigError("aggregate samples must be nonnegative")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def grid(self) -> np.ndarray:
        lo, hi = self.universe
        return np.linspace(lo, hi, len(self.samples))


@dataclass(frozen=True)
class FisConfig:
    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[RuleAst, ...]
    and_method: str = "prod"
    implication: str = "prod"
    aggregation: str = "sum"
    defuzzification: str = "centroid"
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.and_method not in AND_METHODS:
            raise ConfigError(f"unknown and method {self.and_method!r}")
        if self.implication not in IMPLICATIONS:
            raise ConfigError(f"unknown implication method {self.implication!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation method {self.aggregation!r}")
        if self.defuzzification not in DEFUZZIFICATIONS:
            raise ConfigError(
                f"unknown defuzzification method {self.defuzzification!r}"
            )
        if self.resolution < 2:
            raise ConfigError(f"resolution must be >= 2, got {self.resolution}")
        if self.resolution > MAX_RESOLUTION:
            raise ConfigError(f"resolution must be <= {MAX_RESOLUTION}, "
                              f"got {self.resolution}")
        names = [v.name for v in self.inputs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate input variable names in {names}")
        if self.output.name in names:
            raise ConfigError(
                f"output variable {self.output.name!r} clashes with an input"
            )
        if not self.rules:
            raise ConfigError("a fuzzy system needs at least one rule")
        by_name = {v.name: v for v in self.inputs}
        for rule in self.rules:
            for clause in rule.antecedent:
                variable = by_name.get(clause.variable)
                if variable is None:
                    raise ConfigError(
                        f"rule references unknown input variable "
                        f"{clause.variable!r}"
                    )
                if clause.label not in variable.sets:
                    raise ConfigError(
                        f"variable {clause.variable!r} has no set "
                        f"{clause.label!r}"
                    )
            consequent = rule.consequent
            if consequent.variable != self.output.name:
                raise ConfigError(
                    f"rule consequent references {consequent.variable!r}, "
                    f"expected output {self.output.name!r}"
                )
            if consequent.label not in self.output.sets:
                raise ConfigError(
                    f"output variable has no set {consequent.label!r}"
                )
            if not 0.0 < rule.weight <= 1.0:
                raise ConfigError(f"rule weight {rule.weight} outside (0, 1]")

    @cached_property
    def output_grid(self) -> np.ndarray:
        lo, hi = self.output.universe
        grid = np.linspace(lo, hi, self.resolution)
        grid.flags.writeable = False
        return grid

    @cached_property
    def consequent_samples(self) -> dict[tuple[str, bool], np.ndarray]:
        """Output-set samples keyed by (label, negated); negation is 1 - mu."""
        samples = {}
        for label, mf in self.output.sets.items():
            base = mf.sample(self.output_grid)
            complement = 1.0 - base
            base.flags.writeable = False
            complement.flags.writeable = False
            samples[(label, False)] = base
            samples[(label, True)] = complement
        return samples

    @property
    def has_moment_form(self) -> bool:
        """Whether the centroid follows from per-set grid moments: under
        prod implication and sum aggregation the aggregate is linear in the
        firing strengths, and so are both sums of the centroid."""
        return (self.implication == "prod" and self.aggregation == "sum"
                and self.defuzzification == "centroid")

    @cached_property
    def consequent_moments(self) -> dict[tuple[str, bool], tuple[float, float]]:
        """Zeroth and first grid moments, sum(mu) and sum(x * mu), of each
        output set, keyed like :attr:`consequent_samples`."""
        return {
            key: (float(np.sum(samples)),
                  float(np.sum(self.output_grid * samples)))
            for key, samples in self.consequent_samples.items()
        }


def _memberships(variable: LinguisticVariable, values: np.ndarray
                 ) -> dict[tuple[str, str], np.ndarray]:
    """Degrees of ``values``, clamped to the variable's universe, in each of
    its sets, keyed (variable name, label) and shaped like ``values``."""
    x = np.clip(values, *variable.universe)
    return {(variable.name, label): mf.sample(x)
            for label, mf in variable.sets.items()}


def _degree_columns(config: FisConfig,
                    inputs: Mapping[str, float | np.ndarray]
                    ) -> tuple[dict[tuple[str, str], np.ndarray], int | None]:
    """Membership degrees of each input's values, and the number of rows
    (None when every input is a scalar: a one-row call).

    Scalars broadcast against 1-D columns; all columns share one length.
    A scalar input's degrees stay one-element arrays until a rule combines
    them with a column.
    """
    names = {v.name for v in config.inputs}
    missing = sorted(names - inputs.keys())
    if missing:
        raise ConfigError(f"missing input variable(s): {', '.join(missing)}")
    extra = sorted(inputs.keys() - names)
    if extra:
        raise ConfigError(f"unknown input variable(s): {', '.join(extra)}")
    values = [np.asarray(inputs[v.name], dtype=np.float64)
              for v in config.inputs]
    if any(value.ndim > 1 for value in values):
        raise ConfigError("inputs must be numbers or 1-D columns")
    try:
        shape = np.broadcast_shapes(*(value.shape for value in values))
    except ValueError:
        raise ConfigError("input columns differ in length") from None
    degrees: dict[tuple[str, str], np.ndarray] = {}
    for variable, value in zip(config.inputs, values):
        if not np.isfinite(value).all():
            raise ConfigError(
                f"input variable {variable.name!r} is not a finite number"
            )
        degrees.update(_memberships(variable, np.atleast_1d(value)))
    return degrees, (shape[0] if shape else None)


def fuzzify(config: FisConfig, inputs: Mapping[str, float]) -> dict[tuple[str, str], float]:
    """Degrees of membership of each crisp input in each of its fuzzy sets.

    Inputs outside a variable's universe are clamped to it; non-finite
    inputs are rejected.  The map must name every input variable exactly
    once.
    """
    degrees, _ = _degree_columns(config, inputs)
    return {key: float(column[0]) for key, column in degrees.items()}


def fire_rule(rule: RuleAst,
              memberships: Mapping[tuple[str, str], float | np.ndarray],
              and_method: str = "prod") -> float | np.ndarray:
    """Firing strength: the and-fold of conjunct degrees times the weight.

    A negated conjunct contributes the complement degree 1 - d.  Single
    conjuncts skip the fold.  Degrees may be floats or columns that
    broadcast together.
    """
    strength = None
    for clause in rule.antecedent:
        degree = memberships[(clause.variable, clause.label)]
        if clause.negated:
            degree = 1.0 - degree
        if strength is None:
            strength = degree
        elif and_method == "prod":
            strength = strength * degree
        else:
            strength = np.minimum(strength, degree)
    assert strength is not None
    return strength * rule.weight


def imply(consequent_samples: np.ndarray, strength: float,
          implication: str = "prod") -> np.ndarray:
    """Reshape a sampled consequent: prod scales it, min truncates it."""
    if implication == "prod":
        return consequent_samples * strength
    return np.minimum(consequent_samples, strength)


def aggregate(implied_sets: Sequence[np.ndarray], aggregation: str = "sum",
              universe: tuple[float, float] = (0.0, 1.0)) -> AggregateSet:
    """Combine implied sets pointwise into one output set.

    All sets must be sampled on the identical grid.  Sum output is not
    renormalized and may exceed 1.
    """
    if not implied_sets:
        raise ConfigError("nothing to aggregate: no implied sets")
    if aggregation == "sum":
        combined = np.sum(np.asarray(implied_sets), axis=0)
    elif aggregation == "max":
        combined = implied_sets[0]
        for samples in implied_sets[1:]:
            combined = np.maximum(combined, samples)
    else:  # probor: a + b - ab, folded pairwise
        combined = implied_sets[0]
        for samples in implied_sets[1:]:
            combined = combined + samples - combined * samples
    return AggregateSet(universe, combined)


def defuzzify(aggregate_set: AggregateSet, method: str = "centroid") -> float:
    """Collapse an aggregate set to one crisp value inside its universe.

    centroid  sum(x * mu) / sum(mu) over the sample grid
    bisector  the grid point splitting the area in half
    mom/lom/som  mean / largest / smallest point of the argmax plateau

    An all-zero aggregate has no area to locate; it falls back to the
    universe midpoint and emits a RuntimeWarning so tests can detect it.
    """
    samples = aggregate_set.samples
    lo, hi = aggregate_set.universe
    if not (samples > 0).any():
        warnings.warn(
            "all-zero aggregate set; defuzzifying to the universe midpoint",
            RuntimeWarning,
            stacklevel=2,
        )
        return (lo + hi) / 2.0
    grid = aggregate_set.grid
    if method == "centroid":
        return float(np.sum(grid * samples) / np.sum(samples))
    if method == "bisector":
        cumulative = np.cumsum(samples)
        index = int(np.searchsorted(cumulative, cumulative[-1] / 2.0))
        return float(grid[min(index, len(grid) - 1)])
    peak = samples.max()
    plateau = grid[samples == peak]
    if method == "mom":
        return float(plateau.mean())
    if method == "lom":
        return float(plateau.max())
    if method == "som":
        return float(plateau.min())
    raise ConfigError(f"unknown defuzzification method {method!r}")


def rule_strengths(config: FisConfig, inputs: Mapping[str, float]) -> list[float]:
    """Firing strength of every rule, in rule order."""
    memberships, _ = _degree_columns(config, inputs)
    return [float(fire_rule(rule, memberships, config.and_method)[0])
            for rule in config.rules]


def evaluate(config: FisConfig, inputs: Mapping[str, float | np.ndarray]
             ) -> float | np.ndarray:
    """Run the full pipeline and return the crisp output value.

    ``inputs`` maps every input variable to a number or to a 1-D column;
    with columns, each row is one evaluation and the result is a column of
    crisp values.  A scalar call is the one-row case of the same code, so a
    row gives the same bits alone or inside a column.

    Deterministic: identical inputs yield bit-identical outputs, and any
    permutation of ``config.rules`` yields the same bits (see module notes).
    """
    memberships, rows = _degree_columns(config, inputs)
    strengths = [fire_rule(rule, memberships, config.and_method)
                 for rule in config.rules]
    crisp = _combine(config, config.rules, strengths,
                     1 if rows is None else rows)
    return float(crisp[0]) if rows is None else crisp


def _combine(config: FisConfig, rules: Sequence[RuleAst],
             strengths: Sequence[np.ndarray], rows: int) -> np.ndarray:
    """The crisp output of each of ``rows`` rows under ``config``'s
    operators, from each rule's strengths: a 1-D column (one implied set per
    row) or a 2-D block (one implied set per block row), broadcast to
    ``rows``.

    Implied sets are put in canonical order once, for either path: sets
    sorted by (label, negated), strengths ascending within a set, per row.
    """
    groups: dict[tuple[str, bool], list[np.ndarray]] = {}
    for rule, strength in zip(rules, strengths):
        block = np.atleast_2d(strength)
        groups.setdefault((rule.consequent.label, rule.consequent.negated),
                          []).append(np.broadcast_to(block, (len(block), rows)))
    keys = sorted(groups)
    ordered = [np.sort(np.concatenate(groups[key]), axis=0) for key in keys]
    if config.has_moment_form:
        return _centroid_by_moments(config, keys, ordered)
    set_keys = [key for key, block in zip(keys, ordered) for _ in block]
    return np.array([_evaluate_on_grid(config, set_keys, column)
                     for column in np.concatenate(ordered).T])


def _evaluate_on_grid(config: FisConfig, keys: Sequence[tuple[str, bool]],
                      strengths: np.ndarray) -> float:
    """One row through imply, aggregate and defuzzify on the output grid:
    ``strengths[i]`` fires the consequent set ``keys[i]``."""
    implied = [imply(config.consequent_samples[key], float(strength),
                     config.implication)
               for key, strength in zip(keys, strengths)]
    aggregated = aggregate(implied, config.aggregation, config.output.universe)
    return defuzzify(aggregated, config.defuzzification)


def _centroid_by_moments(config: FisConfig, keys: Sequence[tuple[str, bool]],
                         ordered: Sequence[np.ndarray]) -> np.ndarray:
    """Centroid of the prod-implied, sum-aggregated set, from the grid
    moments of each consequent set ``keys[i]``, whose strengths, ascending,
    are the rows of ``ordered[i]``; one value per column.
    """
    numerator = denominator = 0.0
    for key, block in zip(keys, ordered):
        mass = block[0]
        for strength in block[1:]:
            mass = mass + strength
        zeroth, first = config.consequent_moments[key]
        numerator = numerator + mass * first
        denominator = denominator + mass * zeroth
    lo, hi = config.output.universe
    empty = denominator == 0.0
    if empty.any():
        warnings.warn(
            "all-zero aggregate set; defuzzifying to the universe midpoint",
            RuntimeWarning,
            stacklevel=4,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        crisp = np.clip(numerator / denominator, lo, hi)
    return np.where(empty, (lo + hi) / 2.0, crisp)
