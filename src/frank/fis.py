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
row.  Every other operator combination runs the grid pipeline above on
blocks of rows, each of at most ``GRID_BLOCK_FLOATS`` implied samples or of
one row; a 1-D call to ``imply``/``aggregate``/``defuzzify`` is the one-row
case, and composed from such calls the pipeline is the oracle the moment
form is tested against (within 1e-12).

Rule order never affects the result, bit for bit: implied sets are combined
in a canonical order (consequent label, negation, strength) rather than rule
order, which pins down the floating-point accumulation order.  The moment
form sums strengths per consequent set in ascending order, over sets in
sorted order, to the same end.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .membership import MembershipFunction, _float
from .rules import RuleAst

# operator family, also its config-file key -> (FisConfig field, methods)
OPERATORS = {
    "and": ("and_method", ("prod", "min")),
    "implication": ("implication", ("prod", "min")),
    "aggregation": ("aggregation", ("sum", "max", "probor")),
    "defuzzification": ("defuzzification",
                        ("centroid", "bisector", "mom", "lom", "som")),
}

DEFAULT_RESOLUTION = 1001
# Upper bound on ``resolution``: each consequent set is sampled on a grid of
# that many float64 points, so an unbounded value allocates without limit.
MAX_RESOLUTION = 1_000_000
# Implied samples per block of rows on the grid path: a block holds this over
# (implied sets x resolution) rows, at least one, so memory stays bounded.
GRID_BLOCK_FLOATS = 1 << 16


def _check_method(family: str, method: str) -> None:
    if method not in OPERATORS[family][1]:
        raise ConfigError(f"unknown {family} method {method!r}")


def _check_samples(what: str, values: float | np.ndarray) -> None:
    """The grid stages' domain: samples and strengths are numbers (int or
    float, not bool, text or objects), finite and not negative."""
    if np.asarray(values).dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be numbers")
    if not np.isfinite(values).all():
        raise ConfigError(f"{what} must be finite")
    if np.less(values, 0).any():
        raise ConfigError(f"{what} must be nonnegative")


def _checked_universe(universe: tuple[float, float], owner: str = ""
                      ) -> tuple[float, float]:
    """``universe`` as floats, if lo < hi and hi - lo is finite (so lo and
    hi are too); ``owner`` prefixes the error."""
    lo, hi = (_float(bound, f"{owner}universe bound") for bound in universe)
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ConfigError(f"{owner}universe requires lo < hi and a finite "
                          f"hi - lo, got {(lo, hi)}")
    return lo, hi


@dataclass(frozen=True)
class LinguisticVariable:
    """A named quantity whose values are labeled fuzzy sets."""

    name: str
    universe: tuple[float, float]
    sets: dict[str, MembershipFunction]
    #: the line of the variable's section header, for error messages
    line: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.name:
            raise ConfigError("variable name must be nonempty")
        object.__setattr__(self, "universe", _checked_universe(
            self.universe, f"variable {self.name!r}: "))
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


def _check_resolution(resolution: int) -> None:
    """Reject a grid size that is not an int from 2 to MAX_RESOLUTION."""
    if isinstance(resolution, bool) or not isinstance(resolution,
                                                      (int, np.integer)):
        raise ConfigError(f"resolution must be an int, got {resolution!r}")
    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ConfigError(f"resolution must be <= {MAX_RESOLUTION}, "
                          f"got {resolution}")


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
        for family, (field, _) in OPERATORS.items():
            _check_method(family, getattr(self, field))
        _check_resolution(self.resolution)
        names = [v.name for v in self.inputs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate input variable names in {names}")
        output = self.output
        if output.name in names:
            raise ConfigError(f"output variable {output.name!r} clashes with "
                              "an input", line=output.line)
        if not self.rules:
            raise ConfigError("a fuzzy system needs at least one rule")
        sets = {v.name: v.sets for v in self.inputs}
        for rule in self.rules:
            for clause in rule.antecedent:
                if clause.variable not in sets:
                    raise ConfigError(f"rule references unknown input "
                                      f"variable {clause.variable!r}",
                                      line=rule.line)
                if clause.label not in sets[clause.variable]:
                    raise ConfigError(f"variable {clause.variable!r} has no "
                                      f"set {clause.label!r}", line=rule.line)
            consequent = rule.consequent
            if consequent.variable != output.name:
                raise ConfigError(
                    f"rule consequent references {consequent.variable!r}, "
                    f"expected output {output.name!r}", line=rule.line)
            if consequent.label not in output.sets:
                raise ConfigError(f"output variable has no set "
                                  f"{consequent.label!r}", line=rule.line)
            if not 0.0 < _float(rule.weight, "rule weight", rule.line) <= 1.0:
                raise ConfigError(f"rule weight {rule.weight} outside (0, 1]",
                                  line=rule.line)
        # the aggregate is at most len(rules), so this bounds both sums of
        # the centroid over the grid
        lo, hi = output.universe
        if not np.isfinite(self.resolution * len(self.rules)
                           * max(abs(lo), abs(hi))):
            raise ConfigError(
                f"output universe {output.universe} is too wide for "
                f"{len(self.rules)} rules at resolution {self.resolution}: "
                f"the centroid sums overflow"
            )

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

    @cached_property
    def _canonical_consequents(self) -> tuple[list[tuple[str, bool]],
                                              list[int]]:
        """The rules' consequent sets in canonical order, (label, negated)
        sorted, and the position of each rule's set in that order."""
        consequents = [(rule.consequent.label, rule.consequent.negated)
                       for rule in self.rules]
        keys = sorted(set(consequents))
        return keys, [keys.index(key) for key in consequents]

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
    values = [np.asarray(inputs[v.name]) for v in config.inputs]
    if any(value.ndim > 1 for value in values):
        raise ConfigError("inputs must be numbers or 1-D columns")
    try:
        shape = np.broadcast_shapes(*(value.shape for value in values))
    except ValueError:
        raise ConfigError("input columns differ in length") from None
    degrees: dict[tuple[str, str], np.ndarray] = {}
    for variable, value in zip(config.inputs, values):
        if value.dtype.kind not in "iuf" or not np.isfinite(value).all():
            raise ConfigError(
                f"input variable {variable.name!r} is not a finite number"
            )
        x = np.clip(np.atleast_1d(value), *variable.universe, dtype=float)
        degrees.update(((variable.name, label), mf.sample(x))
                       for label, mf in variable.sets.items())
    return degrees, (shape[0] if shape else None)


def fuzzify(config: FisConfig, inputs: Mapping[str, float | np.ndarray]
            ) -> dict[tuple[str, str], float | np.ndarray]:
    """Degrees of membership of each crisp input in each of its fuzzy sets.

    Inputs outside a variable's universe are clamped to it; inputs that are
    not finite int or float numbers (bool, text) are rejected.  The map must
    name every input variable once.  As for :func:`evaluate`, numbers give
    floats and 1-D columns give columns, one row per row of the call.
    """
    degrees, rows = _degree_columns(config, inputs)
    if rows is None:
        return {key: float(column[0]) for key, column in degrees.items()}
    return {key: np.broadcast_to(column, (rows,)).copy()
            for key, column in degrees.items()}


def fire_rule(rule: RuleAst,
              memberships: Mapping[tuple[str, str], float | np.ndarray],
              and_method: str = "prod") -> float | np.ndarray:
    """Firing strength: the and-fold of conjunct degrees times the weight.

    A negated conjunct contributes the complement degree 1 - d.  The first
    conjunct's degree starts the fold.  Degrees may be floats or columns that
    broadcast together.
    """
    _check_method("and", and_method)
    degrees = (1.0 - memberships[clause.variable, clause.label]
               if clause.negated
               else memberships[clause.variable, clause.label]
               for clause in rule.antecedent)
    strength = next(degrees)  # a rule has at least one clause
    for degree in degrees:
        strength = (strength * degree if and_method == "prod"
                    else np.minimum(strength, degree))
    return strength * rule.weight


def imply(consequent_samples: np.ndarray, strength: float | np.ndarray,
          implication: str = "prod") -> np.ndarray:
    """Reshape a sampled consequent: prod scales it, min truncates it.
    (sets x 1 x grid) consequents and (sets x rows x 1) strengths broadcast
    to one implied set per set and row.  Both must be finite and not
    negative, and a prod must not overflow, or :class:`ConfigError` is
    raised."""
    _check_method("implication", implication)
    _check_samples("consequent samples", consequent_samples)
    _check_samples("firing strengths", strength)
    try:
        if implication == "min":
            return np.minimum(consequent_samples, strength)
        with np.errstate(over="ignore"):
            implied = consequent_samples * strength
    except ValueError:  # shapes that do not broadcast
        raise ConfigError("samples and strengths differ in shape") from None
    if not np.isfinite(implied).all():
        raise ConfigError("implied samples overflow")
    return implied


def aggregate(implied_sets: Sequence[np.ndarray], aggregation: str = "sum"
              ) -> np.ndarray:
    """Combine implied sets pointwise into one output set.

    All sets must be sampled on the identical grid, as rows or (rows x
    grid) blocks, such as a (sets x rows x grid) array; blocks combine row by
    row.  Sum output is not renormalized and may exceed 1.  Samples must be
    finite and not negative, at most 1 under probor (a degree, so that the
    output is one too), and a sum must not overflow, or
    :class:`ConfigError` is raised.
    """
    _check_method("aggregation", aggregation)
    if len(implied_sets) == 0:
        raise ConfigError("nothing to aggregate: no implied sets")
    for samples in implied_sets:
        _check_samples("implied samples", samples)
        if np.shape(samples) != np.shape(implied_sets[0]):
            raise ConfigError("implied sets differ in shape")
        if aggregation == "probor" and np.greater(samples, 1.0).any():
            raise ConfigError("implied samples must be at most 1 under "
                              "probor aggregation")
    if aggregation == "sum":
        with np.errstate(over="ignore"):
            combined = np.sum(np.asarray(implied_sets), axis=0)
        if not np.isfinite(combined).all():
            raise ConfigError("aggregate sum overflows")
    elif aggregation == "max":
        combined = implied_sets[0]
        for samples in implied_sets[1:]:
            combined = np.maximum(combined, samples)
    else:  # probor: a + b - ab, folded pairwise
        combined = implied_sets[0]
        for samples in implied_sets[1:]:
            combined = combined + samples - combined * samples
    return combined


def defuzzify(samples: np.ndarray, universe: tuple[float, float],
              method: str = "centroid") -> float | np.ndarray:
    """Collapse each row of an aggregate set, sampled on the uniform
    inclusive grid over ``universe``, to one crisp value inside it: a float
    for 1-D samples, a column for a (rows x grid) block.  Samples may exceed
    1 under sum aggregation; they must be finite and not negative, and the
    method's sums must not overflow, or :class:`ConfigError` is raised.

    centroid  sum(x * mu) / sum(mu) over the sample grid
    bisector  the grid point splitting the area in half
    mom/lom/som  mean / largest / smallest point of the argmax plateau

    An all-zero row has no area to locate; it falls back to the universe
    midpoint and emits a RuntimeWarning so tests can detect it.
    """
    _check_method("defuzzification", method)
    samples = np.asarray(samples)
    if samples.ndim not in (1, 2) or samples.shape[-1] < 2:
        raise ConfigError("aggregate needs 1 or 2 axes of >= 2 samples")
    _check_samples("aggregate samples", samples)
    rows = np.atleast_2d(samples.astype(np.float64, copy=False))
    lo, hi = _checked_universe(universe)
    # finite samples can still have sums that overflow to inf or NaN, and
    # linspace's steps times their count can overflow before its last point
    # is set to hi
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, rows.shape[-1])
        if method == "centroid":
            moment = np.sum(grid * rows, axis=-1)
            area = np.sum(rows, axis=-1)
            # the quotient can round, or a moment underflow, past the grid
            crisp = np.clip(moment / area, lo, hi)
            sums = [moment, area]
        elif method == "bisector":
            # the sums never fall: this count is where searchsorted puts half
            cumulative = np.cumsum(rows, axis=-1)
            index = np.sum(cumulative < cumulative[:, -1:] / 2.0, axis=-1)
            crisp = grid[np.minimum(index, len(grid) - 1)]
            sums = [cumulative[:, -1]]
        else:
            plateau = rows == rows.max(axis=-1, keepdims=True)
            sums = []
            if method == "mom":  # a vector mean would sum in another order
                crisp = np.array([grid[row].mean() for row in plateau])
                sums = [crisp]
            elif method == "som":  # the grid ascends: its first point is least
                crisp = grid[np.argmax(plateau, axis=-1)]
            else:
                crisp = grid[len(grid) - 1
                             - np.argmax(plateau[:, ::-1], axis=-1)]
    empty = ~(rows > 0).any(axis=-1)
    if any((~np.isfinite(column) & ~empty).any() for column in sums):
        raise ConfigError(f"aggregate {method} sums overflow")
    crisp = _midpoint_where_empty(crisp, empty, (lo, hi))
    return float(crisp[0]) if samples.ndim == 1 else crisp


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
    crisp = _combine(config, strengths, 1 if rows is None else rows)
    return float(crisp[0]) if rows is None else crisp


def _combine(config: FisConfig, strengths: Sequence[np.ndarray],
             rows: int) -> np.ndarray:
    """The crisp output of each of ``rows`` rows under ``config``'s
    operators, from the strengths of each of ``config.rules`` in turn: a
    1-D column (one implied set per row) or a 2-D block (one implied set
    per block row), broadcast to ``rows``.  Rule j implies consequent set
    ``keys[slots[j]]``, as ``config._canonical_consequents`` gives them.

    Implied sets are put in canonical order once, for either path: sets
    sorted by (label, negated), strengths ascending within a set, per row.
    A set's strength rows are sorted by a network of whole-row
    ``np.minimum``/``np.maximum`` up to six rows, by ``np.sort`` above.
    """
    keys, slots = config._canonical_consequents
    groups: list[list[np.ndarray]] = [[] for _ in keys]
    for slot, strength in zip(slots, strengths):
        shape = np.shape(strength)
        if shape[-1:] != (rows,):
            strength = np.broadcast_to(strength, shape[:-1] + (rows,))
        groups[slot].extend(np.atleast_2d(strength))
    ordered = [_sorted_rows(group) for group in groups]
    if config.has_moment_form:
        return _centroid_by_moments(config, keys, ordered)
    consequents = np.array([config.consequent_samples[key] for key, block
                            in zip(keys, ordered) for _ in block])[:, None]
    strengths = np.concatenate(ordered)[:, :, None]
    step = max(1, GRID_BLOCK_FLOATS // consequents.size)
    crisp = np.empty(rows)
    for start in range(0, rows, step):
        implied = imply(consequents, strengths[:, start:start + step],
                        config.implication)
        crisp[start:start + step] = defuzzify(
            aggregate(implied, config.aggregation), config.output.universe,
            config.defuzzification)
    return crisp


# Optimal sorting networks for 1 to 6 items (Knuth, TAOCP Vol. 3, 5.3.4):
# 0, 1, 3, 5, 9 and 12 comparators, each (i, j) putting the lesser in i.
_SORTING_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3),
        (1, 2)),
    6: ((1, 2), (4, 5), (0, 2), (3, 5), (0, 1), (3, 4), (2, 5), (0, 3),
        (1, 4), (2, 4), (1, 3), (2, 3)),
}


def _sorted_rows(rows: list[np.ndarray]) -> Sequence[np.ndarray]:
    """Equal-length rows sorted column by column, ascending, as the rows
    of ``np.sort(rows, axis=0)``: a network costs a few whole-row ufunc
    calls instead of one tiny sort per column."""
    network = _SORTING_NETWORKS.get(len(rows))
    if network is None:
        return np.sort(rows, axis=0)
    rows = list(rows)
    for i, j in network:
        # where numpy's min and max return their second operand on a tie,
        # as on x86, a tied pair such as 0.0 and -0.0 stays as it was
        rows[i], rows[j] = (np.minimum(rows[j], rows[i]),
                            np.maximum(rows[i], rows[j]))
    return rows


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
    universe = config.output.universe
    with np.errstate(divide="ignore", invalid="ignore"):
        crisp = np.clip(numerator / denominator, *universe)
    return _midpoint_where_empty(crisp, denominator == 0.0, universe)


def _midpoint_where_empty(crisp: np.ndarray, empty: np.ndarray,
                          universe: tuple[float, float]) -> np.ndarray:
    """``crisp`` itself if no row is ``empty`` (an all-zero aggregate), else
    with the universe midpoint in each such row, warning once, at the nearest
    caller outside this package, however many of its frames lie between."""
    if not empty.any():
        return crisp
    frame, level = sys._getframe(), 1
    while frame.f_globals.get("__package__") == "frank":
        frame, level = frame.f_back, level + 1
    warnings.warn("all-zero aggregate set; defuzzifying to the universe "
                  "midpoint", RuntimeWarning, stacklevel=level)
    lo, hi = universe
    return np.where(empty, (lo + hi) / 2.0, crisp)
