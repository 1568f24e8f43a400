"""The benchmark's workloads and shipped seeds, shared by run.py and workload.py."""

from __future__ import annotations

from dataclasses import dataclass

#: Seed used when none is given; its outputs are pinned in pins.json.
DEFAULT_SEED = 1
#: Held out while writing a change, for confirming its claims; also pinned.
HELD_OUT_SEED = 2
SHIPPED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Ranking depth of every run, as in TREC ad hoc runs.
K = 1000


@dataclass(frozen=True)
class Workload:
    #: key of gen.SHAPES: the collection the workload reads
    shape: str
    #: "fis" or "baseline"
    ranker: str
    #: each round of the measurement builds and sets up the index once,
    #: ranks this many topics (going round the topic list) and evaluates
    #: the last complete run this often
    topics_per_round: int
    evals: int = 1


WORKLOADS = {
    # 20k documents: the write path and index loading dominate.  Its topics
    # hold only tail terms, so the search phase measures per-query cost on a
    # large index without fuzzy inference; passes and evals are short, so a
    # round runs ten passes and five evals.
    "ingest": Workload("ingest", "baseline", topics_per_round=1000, evals=5),
    # 4k documents, head and tail topic terms: per-candidate work dominates.
    # A pass takes several times as long as a build, set-up and eval
    # together, so a round ranks 40 topics, and builds and evals are spread
    # over the whole run.
    "search_fis": Workload("search", "fis", topics_per_round=40),
    # Same collection, no fuzzy inference: index lookups undiluted.  A pass
    # takes about as long as an eval, so a round ranks every topic.
    "search_baseline": Workload("search", "baseline", topics_per_round=100),
}
