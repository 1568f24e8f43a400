"""Seeded random generators shared by the property-style tests."""

from __future__ import annotations

import numpy as np

from frank.fis import OPERATORS, FisConfig, LinguisticVariable
from frank.membership import MembershipFunction
from frank.rules import RuleAst, RuleClause

KINDS = ("triangular", "trapezoidal", "gaussian", "sigmoid")


def random_mf(rng: np.random.Generator, lo: float, hi: float,
              kind: str | None = None) -> MembershipFunction:
    kind = kind or KINDS[rng.integers(len(KINDS))]
    if kind == "triangular":
        a, b, c = sorted(rng.uniform(lo, hi, 3))
        return MembershipFunction.triangular(a, b, c)
    if kind == "trapezoidal":
        a, b, c, d = sorted(rng.uniform(lo, hi, 4))
        return MembershipFunction.trapezoidal(a, b, c, d)
    if kind == "gaussian":
        sigma = float(rng.uniform(0.05, 1.0)) * (hi - lo)
        return MembershipFunction.gaussian(sigma, float(rng.uniform(lo, hi)))
    slope = float(rng.uniform(-20.0, 20.0)) / (hi - lo)
    return MembershipFunction.sigmoid(slope, float(rng.uniform(lo, hi)))


def random_variable(rng: np.random.Generator, name: str) -> LinguisticVariable:
    lo = float(rng.uniform(-2.0, 2.0))
    hi = lo + float(rng.uniform(0.5, 3.0))
    labels = [f"s{i}" for i in range(int(rng.integers(2, 4)))]
    return LinguisticVariable(
        name, (lo, hi), {label: random_mf(rng, lo, hi) for label in labels}
    )


def random_config(rng: np.random.Generator) -> FisConfig:
    inputs = tuple(
        random_variable(rng, f"x{i}") for i in range(int(rng.integers(1, 4)))
    )
    output = random_variable(rng, "y")
    output_labels = list(output.sets)
    rules = []
    for _ in range(int(rng.integers(1, 6))):
        antecedent = []
        for _ in range(int(rng.integers(1, len(inputs) + 2))):
            variable = inputs[rng.integers(len(inputs))]
            label = list(variable.sets)[rng.integers(len(variable.sets))]
            antecedent.append(
                RuleClause(variable.name, label, bool(rng.integers(2)))
            )
        consequent = RuleClause(
            "y", output_labels[rng.integers(len(output_labels))],
            bool(rng.integers(2)),
        )
        weight = 1.0 if rng.integers(3) == 0 else float(rng.uniform(0.05, 1.0))
        rules.append(RuleAst(tuple(antecedent), consequent, weight))
    return FisConfig(
        inputs=inputs,
        output=output,
        rules=tuple(rules),
        **{field: methods[rng.integers(len(methods))]
           for field, methods in OPERATORS.values()},
        resolution=int(rng.integers(33, 257)),
    )


def random_inputs(rng: np.random.Generator, config: FisConfig) -> dict[str, float]:
    # occasionally outside the universe, to exercise clamping
    return {
        v.name: float(rng.uniform(v.universe[0] - 0.5, v.universe[1] + 0.5))
        for v in config.inputs
    }


_RESERVED = {"if", "and", "is", "not", "weight"}


def random_identifier(rng: np.random.Generator) -> str:
    first = "abcdefghijklmnopqrstuvwxyz_"
    rest = first + "0123456789"
    while True:
        length = int(rng.integers(1, 9))
        name = (first[rng.integers(len(first))]
                + "".join(rest[rng.integers(len(rest))]
                          for _ in range(length - 1)))
        if name not in _RESERVED:
            return name


def random_rule_ast(rng: np.random.Generator) -> RuleAst:
    antecedent = tuple(
        RuleClause(random_identifier(rng), random_identifier(rng),
                   bool(rng.integers(2)))
        for _ in range(int(rng.integers(1, 5)))
    )
    consequent = RuleClause(random_identifier(rng), random_identifier(rng),
                            bool(rng.integers(2)))
    roll = rng.integers(4)
    if roll == 0:
        weight = 1.0
    elif roll == 1:
        weight = float(rng.integers(1, 100)) / 100.0
    elif roll == 2:
        weight = float(rng.uniform(1e-9, 1.0))
    else:
        weight = 10.0 ** -float(rng.integers(1, 12))
    return RuleAst(antecedent, consequent, weight)
