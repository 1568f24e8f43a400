"""One pass through the inference pipeline, stage by stage.

The crisp inputs are fuzzified, every rule fires with a strength, each
strength reshapes the rule's consequent set, the reshaped sets are summed,
and the centroid of the sum is the crisp relevance score.

Run:  python3 demos/02_inference_walkthrough.py
"""

from frank import (FisConfig, aggregate, default_variable, defuzzify,
                   evaluate, fire_rule, fuzzify, imply, parse_rule,
                   print_rule)

config = FisConfig(
    inputs=(default_variable("tf"), default_variable("idf")),
    output=default_variable("relevance"),
    rules=(
        parse_rule("if (tf is high) and (idf is high) -> (relevance is high)"),
        parse_rule("if (tf is not high) and (idf is not high) "
                   "-> (relevance is not high)"),
    ),
)

inputs = {"tf": 0.7, "idf": 0.6}
print(f"crisp inputs: {inputs}")
print()

# 1. fuzzification: crisp values -> degrees per fuzzy set
degrees = fuzzify(config, inputs)
print("fuzzified degrees:")
for (variable, label), degree in degrees.items():
    print(f"  {variable}.{label:<9} = {degree:.3f}")
print()

# 2. rule firing: product of the antecedent degrees, times the weight
print("firing strengths:")
strengths = []
for rule in config.rules:
    strength = fire_rule(rule, degrees, config.and_method)
    strengths.append(strength)
    print(f"  {strength:.3f}  <-  {print_rule(rule)}")
print()

# 3-4. implication and aggregation: scale each consequent, sum pointwise
implied = [
    imply(config.consequent_samples[(rule.consequent.label,
                                     rule.consequent.negated)],
          strength, config.implication)
    for rule, strength in zip(config.rules, strengths)
]
combined = aggregate(implied, config.aggregation)
print(f"aggregate output set: {len(combined)} samples, "
      f"peak {combined.max():.3f}, area {combined.sum():.1f}")
print()

# 5. defuzzification: centroid of the aggregate
crisp = defuzzify(combined, config.output.universe, config.defuzzification)
print(f"centroid -> crisp relevance {crisp:.6f}")
# Under prod implication and sum aggregation the centroid is linear in the
# strengths, so evaluate() takes it from each consequent set's grid moments
# and never builds the aggregate; the two agree to rounding.
assert abs(crisp - evaluate(config, inputs)) < 1e-12
print("(evaluate() gets the same centroid from the consequent sets' grid "
      "moments in one call)")
