"""Metamorphic relations: what the ranked output may not depend on.

Each property ranks a query over a small generated corpus, changes the
corpus or the query in a way the output must not see, ranks again and
compares.  Three rankers take part: the tf-idf baseline, the default
fuzzy template (moment path) and an ``implication min`` / ``aggregation
max`` template (grid path).  Bit for bit, for every ranker:

- permuting the corpus keeps the doc ids and the score bytes;
- repeating query tokens keeps them;
- the list at k is the first k entries of the list at any larger k;
- relabelling the doc ids in a way that keeps their ascending order keeps
  the scores and the order.

Reordering the query terms keeps the fuzzy rankers' bits.  The baseline
sums its terms in query order, so there it keeps the doc set, with scores
within 1e-12 relative.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from frank.index import Document, build_index
from frank.ranker import (FisTemplate, default_template, score_baseline,
                          score_fis)

_DEFAULT = default_template()
_MIN_MAX = FisTemplate(dataclasses.replace(
    _DEFAULT.config, implication="min", aggregation="max"),
    _DEFAULT.overlap_weight_ratio)

RANKERS = {
    "baseline": lambda index, text, k: score_baseline(index, text, k=k),
    "default": lambda index, text, k: score_fis(index, _DEFAULT, text, k=k),
    "min_max": lambda index, text, k: score_fis(index, _MIN_MAX, text, k=k),
}

# a small vocabulary, so that documents share words and scores tie; "of"
# is a stopword and "zz" in no document
_WORDS = ("aa", "bb", "cc", "dd", "ee", "ff")
_CORPORA = st.lists(st.lists(st.sampled_from(_WORDS + ("of",)), max_size=8),
                    min_size=1, max_size=10)
_QUERIES = st.lists(st.sampled_from(_WORDS + ("zz",)), min_size=1,
                    max_size=5)
_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def index_of(texts, doc_ids=None):
    doc_ids = doc_ids or [f"d{i}" for i in range(len(texts))]
    return build_index([Document(doc_id, " ".join(words))
                        for doc_id, words in zip(doc_ids, texts)])


def bits(ranked):
    """A ranked list as its doc ids and its score bytes."""
    return ranked.entries.doc_ids, ranked.entries.scores.tobytes()


@pytest.mark.parametrize("ranker", RANKERS)
@_SETTINGS
@given(texts=_CORPORA, query=_QUERIES, data=st.data())
def test_permuted_corpus_keeps_the_bits(ranker, texts, query, data):
    order = data.draw(st.permutations(range(len(texts))))
    doc_ids = [f"d{i}" for i in range(len(texts))]
    shuffled = index_of([texts[i] for i in order], [doc_ids[i] for i in order])
    rank = RANKERS[ranker]
    text = " ".join(query)
    assert bits(rank(shuffled, text, 1000)) == \
        bits(rank(index_of(texts), text, 1000))


@pytest.mark.parametrize("ranker", RANKERS)
@_SETTINGS
@given(texts=_CORPORA, query=_QUERIES, data=st.data())
def test_repeated_query_tokens_keep_the_bits(ranker, texts, query, data):
    """Copies of tokens already seen, anywhere after their first
    occurrence, leave the distinct terms and their order as they were."""
    repeated = list(query)
    for token in data.draw(st.lists(st.sampled_from(query), max_size=4)):
        after = repeated.index(token) + 1
        repeated.insert(data.draw(st.integers(after, len(repeated))), token)
    index = index_of(texts)
    rank = RANKERS[ranker]
    assert bits(rank(index, " ".join(repeated), 1000)) == \
        bits(rank(index, " ".join(query), 1000))


@pytest.mark.parametrize("ranker", RANKERS)
@_SETTINGS
@given(texts=_CORPORA, query=_QUERIES, data=st.data())
def test_query_term_order(ranker, texts, query, data):
    reordered = data.draw(st.permutations(query))
    index = index_of(texts)
    rank = RANKERS[ranker]
    want = rank(index, " ".join(query), 1000)
    got = rank(index, " ".join(reordered), 1000)
    if ranker != "baseline":
        assert bits(got) == bits(want)
        return
    scores = dict(zip(want.entries.doc_ids, want.entries.scores))
    assert set(got.entries.doc_ids) == set(scores)
    for doc_id, score in zip(got.entries.doc_ids, got.entries.scores):
        assert score == pytest.approx(scores[doc_id], rel=1e-12, abs=0)


@pytest.mark.parametrize("ranker", RANKERS)
@_SETTINGS
@given(texts=_CORPORA, query=_QUERIES, k=st.integers(1, 12),
       more=st.integers(0, 12))
def test_list_at_k_is_a_prefix_of_any_longer_list(ranker, texts, query, k,
                                                  more):
    index = index_of(texts)
    rank = RANKERS[ranker]
    text = " ".join(query)
    short = rank(index, text, k).entries
    long = rank(index, text, k + more).entries
    assert (short.doc_ids, short.scores.tobytes()) == \
        (long.doc_ids[:k], long.scores[:k].tobytes())


@pytest.mark.parametrize("ranker", RANKERS)
@_SETTINGS
@given(texts=_CORPORA, query=_QUERIES,
       labels=st.sets(st.text("abz019-_", min_size=1, max_size=4),
                      min_size=10, max_size=10))
def test_order_keeping_relabel_keeps_scores_and_order(ranker, texts, query,
                                                      labels):
    """Each doc id is replaced by a new one whose place among the new ids is
    its old id's place among the old ones."""
    doc_ids = [f"d{i}" for i in range(len(texts))]
    new = dict(zip(sorted(doc_ids), sorted(labels)))
    relabelled = index_of(texts, [new[doc_id] for doc_id in doc_ids])
    rank = RANKERS[ranker]
    text = " ".join(query)
    want_ids, want_scores = bits(rank(index_of(texts), text, 1000))
    assert bits(rank(relabelled, text, 1000)) == \
        (tuple(new[doc_id] for doc_id in want_ids), want_scores)
