"""Membership functions: the four curve families and how they evaluate.

Run:  python3 demos/01_membership_functions.py
"""

import numpy as np

from frank import MembershipFunction

# The default ranking variables use two complementary triangular ramps on
# [0, 1]: "high" rises from 0 to 1, "not_high" is its mirror image.
high = MembershipFunction.triangular(0.0, 1.0, 1.0)
not_high = MembershipFunction.triangular(0.0, 0.0, 1.0)

print("degrees of membership for a normalized term frequency of 0.7:")
print(f"  high     -> {high.sample(0.7):.3f}")
print(f"  not_high -> {not_high.sample(0.7):.3f}")
print()

# The other supported families, evaluated over a coarse grid.
curves = {
    "triangular(0, 0.5, 1)": MembershipFunction.triangular(0.0, 0.5, 1.0),
    "trapezoidal(0, .2, .8, 1)": MembershipFunction.trapezoidal(0.0, 0.2, 0.8, 1.0),
    "gaussian(sigma=.15, mean=.5)": MembershipFunction.gaussian(0.15, 0.5),
    "sigmoid(slope=12, infl=.5)": MembershipFunction.sigmoid(12.0, 0.5),
}

grid = np.linspace(0.0, 1.0, 11)
header = "x      " + "  ".join(f"{name:>28}" for name in curves)
print(header)
columns = [mf.sample(grid) for mf in curves.values()]  # a whole grid at once
for i, x in enumerate(grid):
    row = "  ".join(f"{column[i]:>28.4f}" for column in columns)
    print(f"{x:<5.2f}  {row}")

print()
print("the same data in CSV form comes from the CLI:")
print("  frank mf-data --config <cfg> --var tf --samples 101 > curves.csv")
