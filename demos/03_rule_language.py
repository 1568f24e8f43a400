"""The rule language: parsing, printing, and the errors it reports.

Run:  python3 demos/03_rule_language.py
"""

from frank import ParseError, parse_rule, print_rule

# Rules read the way you would say them.  The arrow may be "->" or the
# typographic "→"; "not" negates a set reference; "weight" is optional.
sources = [
    "if (overlap is high) -> (relevance is high)",
    "if (tf is high) and (idf is high) → (relevance is high)",
    "if (tf is not high) and (idf is not high) -> (relevance is not high)",
    "if (tf is high) -> (relevance is high) weight 0.25",
]

print("parsed and printed back in canonical form:")
for source in sources:
    ast = parse_rule(source)
    conjuncts = len(ast.antecedent)
    print(f"  {print_rule(ast)}")
    print(f"      ({conjuncts} conjunct{'s' if conjuncts > 1 else ''}, "
          f"weight {ast.weight})")
print()

# A block, one rule per line, as a config file's [rules] section holds it;
# comments and blank lines are skipped, and each rule keeps its line.
block = """
# reward matching terms
if (tf is high) and (idf is high) -> (relevance is high)

# penalize missing ones
if (tf is not high) and (idf is not high) -> (relevance is not high)
"""
rules = [parse_rule(line, line=number)
         for number, line in enumerate(block.split("\n"), start=1)
         if line.strip() and not line.lstrip().startswith("#")]
print(f"block parse: {len(rules)} rules, on lines "
      f"{', '.join(str(rule.line) for rule in rules)}")
print()

# Errors carry a position and what was expected there.
broken = "if tf is high -> (relevance is high)"
try:
    parse_rule(broken)
except ParseError as error:
    line, column = error.position
    print(f"error for {broken!r}:")
    print(f"  {error}")
    print(f"  source:  {broken}")
    print("           " + " " * (column - 1) + "^ column " + str(column))
