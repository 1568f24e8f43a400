"""Index a small corpus and rank it with both scorers.

The fuzzy ranker instantiates the rule template per query (one tf/idf rule
pair per distinct term, weighted 1/t, plus lighter overlap rules) and
scores each candidate document by running the inference pipeline on its
features.  The baseline scorer is the familiar summed tf-idf product.

Run:  python3 demos/04_index_and_search.py
"""

from frank import (Document, build_index, default_template, extract_features,
                   instantiate_fis, print_rule, score_baseline, score_fis)

corpus = [
    Document("brew", "Grind the beans, bloom the grounds, pour slowly. "
                     "Good coffee rewards patience."),
    Document("roast", "Light roast coffee keeps origin flavor; dark roast "
                      "trades it for body."),
    Document("chess", "Control the center, develop the knights, castle "
                      "early."),
    Document("espresso", "An espresso machine forces water through fine "
                         "coffee grounds under pressure."),
]
index = build_index(corpus)
print(f"indexed {index.total_docs} docs, {len(index.terms)} distinct terms")
print()

query = "coffee grounds"
# the candidates are the documents holding a query term; take brew's column
features = extract_features(index, query.split())
brew = features.candidates.tolist().index(index.ordinal_of("brew"))
print(f"features of doc 'brew' for query {query!r}:")
for token, tf, idf in zip(features.terms, features.tf[:, brew],
                          features.idf):
    print(f"  {token:<8} tf_norm {tf:.3f}  idf_norm {idf:.3f}")
print(f"  overlap {features.overlap[brew]:.3f}")
print()

template = default_template()
config = instantiate_fis(template, t=2)
print(f"instantiated system for 2 query terms ({len(config.rules)} rules):")
for rule in config.rules:
    print(f"  {print_rule(rule)}")
print()

for name, ranked in (
    ("fuzzy", score_fis(index, template, query, query_id="demo")),
    ("baseline", score_baseline(index, query, query_id="demo")),
):
    print(f"{name} ranking for {query!r}:")
    for entry in ranked.entries:
        print(f"  {entry.rank}. {entry.doc_id:<9} {entry.score:.6f}")
    print()
