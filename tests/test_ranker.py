"""Template instantiation and both scorers, checked against hand arithmetic
and the independent reference pipeline."""

import dataclasses
import math
import random

import numpy as np
import pytest

import frank.ranker
from frank.errors import QueryError
from frank.evaluation import format_run, run_from_ranked
from frank.fis import FisConfig, LinguisticVariable, evaluate
from frank.index import (Document, build_index, extract_features, idf_raw,
                         read_corpus_jsonl, tokenize)
from frank.ranker import (FisTemplate, RankedEntry, RankedList,
                          default_template, instantiate_fis, score_baseline,
                          score_fis)
from frank.rules import parse_rule

from oracles import (ReferenceCorpus, reference_rank_baseline,
                     reference_rank_fis, reference_rfis_score)


class TestInstantiate:
    def test_four_term_rule_count_and_weights(self, template):
        config = instantiate_fis(template, 4)
        assert len(config.rules) == 10  # 4 terms x 2 rules + 2 overlap rules
        per_term = [r for r in config.rules
                    if r.antecedent[0].variable.startswith("tf_")]
        overlap = [r for r in config.rules
                   if r.antecedent[0].variable == "overlap"]
        assert {r.weight for r in per_term} == {0.25}
        assert {r.weight for r in overlap} == {0.25 / 6}

    def test_single_term_weights(self, template):
        config = instantiate_fis(template, 1)
        weights = sorted({r.weight for r in config.rules})
        assert weights == [1.0 / 6.0, 1.0]

    def test_variable_naming(self, template):
        config = instantiate_fis(template, 3)
        names = [v.name for v in config.inputs]
        assert names == ["tf_1", "tf_2", "tf_3",
                         "idf_1", "idf_2", "idf_3", "overlap"]

    def test_placeholders_rewritten_per_term(self, template):
        config = instantiate_fis(template, 2)
        referenced = {c.variable for r in config.rules for c in r.antecedent}
        assert referenced == {"tf_1", "idf_1", "tf_2", "idf_2", "overlap"}

    def test_validates_for_many_term_counts(self, template):
        for t in range(1, 11):
            config = instantiate_fis(template, t)
            assert len(config.rules) == 2 * t + 2

    def test_zero_terms_rejected(self, template):
        with pytest.raises(QueryError):
            instantiate_fis(template, 0)

    def test_template_weights_multiply_through(self):
        template = FisTemplate(dataclasses.replace(
            default_template().config,
            rules=(
                parse_rule("if (tf is high) -> (relevance is high) weight 0.5"),
                parse_rule(
                    "if (overlap is high) -> (relevance is high) weight 0.5"),
            ),
        ))
        config = instantiate_fis(template, 2)
        weights = sorted(r.weight for r in config.rules)
        assert weights == [0.5 * 0.5 * (1 / 6), 0.25, 0.25]


class TestScoreFis:
    def test_single_candidate(self, template):
        index = build_index([
            Document("hit", "zebra grazing"),
            Document("miss", "pottery wheel"),
        ])
        ranked = score_fis(index, template, "zebra", query_id="q")
        assert len(ranked.entries) == 1
        assert ranked.entries[0].doc_id == "hit"
        assert ranked.entries[0].rank == 1

    def test_higher_tf_scores_higher(self, template):
        """Two docs identical except raw tf; order checked and both scores
        verified against the reference pipeline."""
        index = build_index([
            Document("heavy", "zebra zebra yak"),
            Document("light", "zebra yak yak"),
        ])
        ranked = score_fis(index, template, "zebra", query_id="q")
        assert [e.doc_id for e in ranked.entries] == ["heavy", "light"]
        # features by hand: both docs match, overlap 1; idf_norm(zebra)=0
        # (zebra is in both of 2 docs); tf_norm 1.0 vs 0.5
        expected_heavy = reference_rfis_score([1.0], [0.0], 1.0, 1001)
        expected_light = reference_rfis_score([0.5], [0.0], 1.0, 1001)
        assert ranked.entries[0].score == pytest.approx(expected_heavy, abs=1e-12)
        assert ranked.entries[1].score == pytest.approx(expected_light, abs=1e-12)

    def test_fixture_matches_reference_pipeline(self, index20, template,
                                                data_dir):
        docs = [(d.doc_id, d.text)
                for d in read_corpus_jsonl(data_dir / "corpus20.jsonl")]
        reference = ReferenceCorpus(docs)
        queries = [line.split("\t") for line in
                   (data_dir / "queries5.tsv").read_text().splitlines()]
        for topic, text in queries:
            got = score_fis(index20, template, text, query_id=topic)
            want = reference_rank_fis(reference, text)
            assert [e.doc_id for e in got.entries] == [d for d, _ in want]
            for entry, (_, score) in zip(got.entries, want):
                assert entry.score == pytest.approx(score, abs=1e-9)

    def test_scores_inside_unit_interval(self, index20, template):
        ranked = score_fis(index20, template, "river flood levee ice")
        for entry in ranked.entries:
            assert 0.0 <= entry.score <= 1.0

    def test_cutoff_limits_entries(self, index20, template):
        ranked = score_fis(index20, template, "river flood levee", k=2)
        assert len(ranked.entries) == 2
        assert [e.rank for e in ranked.entries] == [1, 2]

    def test_empty_query_rejected(self, index20, template):
        with pytest.raises(QueryError):
            score_fis(index20, template, "the of and")

    def test_tie_broken_by_doc_id(self, template):
        index = build_index([
            Document("bb", "zebra"), Document("aa", "zebra"),
        ])
        ranked = score_fis(index, template, "zebra")
        assert [e.doc_id for e in ranked.entries] == ["aa", "bb"]
        assert ranked.entries[0].score == ranked.entries[1].score


class TestScoreBaseline:
    def test_factor_cancellation(self):
        """One matching doc of nine distinct tokens in a 4-doc corpus:
        tf_norm 1, idf ln 4, lengthNorm 1/3, overlap 1, queryNorm 1/ln 4,
        so everything cancels to 1/3."""
        index = build_index([
            Document("hit", "zebra w1 w2 w3 w4 w5 w6 w7 w8"),
            Document("m1", "pottery"), Document("m2", "chess"),
            Document("m3", "coffee"),
        ])
        ranked = score_baseline(index, "zebra", query_id="q")
        assert len(ranked.entries) == 1
        assert ranked.entries[0].score == pytest.approx(1 / 3)

    def test_hand_computed_fixture_table(self, index5):
        """Scores for query {apple, cherry, grape} over the 5-doc fixture,
        written out from the formula with raw counts."""
        ln = math.log
        idf_apple = ln(5 / 3)
        idf_cherry = ln(5 / 2)
        query_norm = 1 / math.sqrt(idf_apple ** 2 + idf_cherry ** 2)
        expected = {
            # doc: sum(tf_norm * idf * 1/sqrt(len)) * coord * query_norm
            "d1": (0.5 * idf_apple / math.sqrt(3)) * (1 / 3) * query_norm,
            "d2": (1.0 * idf_cherry / math.sqrt(4)) * (1 / 3) * query_norm,
            "d3": ((1.0 * idf_apple + 1.0 * idf_cherry) / math.sqrt(3))
                  * (2 / 3) * query_norm,
            "d4": (0.5 * idf_apple / math.sqrt(4)) * (1 / 3) * query_norm,
        }
        ranked = score_baseline(index5, "apple cherry grape", query_id="q")
        assert {e.doc_id for e in ranked.entries} == set(expected)
        for entry in ranked.entries:
            assert entry.score == pytest.approx(expected[entry.doc_id])
        assert ranked.entries[0].doc_id == "d3"

    def test_fixture_matches_reference_pipeline(self, index20, data_dir):
        docs = [(d.doc_id, d.text)
                for d in read_corpus_jsonl(data_dir / "corpus20.jsonl")]
        reference = ReferenceCorpus(docs)
        queries = [line.split("\t") for line in
                   (data_dir / "queries5.tsv").read_text().splitlines()]
        for topic, text in queries:
            got = score_baseline(index20, text, query_id=topic)
            want = reference_rank_baseline(reference, text)
            assert [e.doc_id for e in got.entries] == [d for d, _ in want]
            for entry, (_, score) in zip(got.entries, want):
                assert entry.score == pytest.approx(score, abs=1e-12)

    def test_nonmatching_doc_never_returned(self, index5):
        ranked = score_baseline(index5, "fig")
        assert [e.doc_id for e in ranked.entries] == ["d5"]

    def test_unmatched_query_term_only_lowers_overlap(self, index5):
        with_miss = score_baseline(index5, "fig grape")
        alone = score_baseline(index5, "fig")
        assert with_miss.entries[0].score == pytest.approx(
            alone.entries[0].score / 2)


class TestRankingProperties:
    def test_candidate_sets_agree(self, index20, template):
        for query in ("river flood levee", "banana bread flour", "ice"):
            fis_docs = {e.doc_id for e in
                        score_fis(index20, template, query).entries}
            baseline_docs = {e.doc_id for e in
                             score_baseline(index20, query).entries}
            assert fis_docs == baseline_docs

    def test_ordering_is_total(self, index20, template):
        ranked = score_fis(index20, template, "river flood levee ice water")
        doc_ids = [e.doc_id for e in ranked.entries]
        assert len(doc_ids) == len(set(doc_ids))
        scores = [e.score for e in ranked.entries]
        assert scores == sorted(scores, reverse=True)
        assert [e.rank for e in ranked.entries] == list(range(1, len(doc_ids) + 1))
        resorted = sorted(ranked.entries, key=lambda e: (-e.score, e.doc_id))
        assert list(ranked.entries) == resorted

    def test_monotone_in_tf_inputs(self, template):
        """Raising any tf input never lowers the crisp score (coarse grid
        here; the dense-grid version runs in the acceptance suite)."""
        config = instantiate_fis(template, 2)
        steps = np.linspace(0.0, 1.0, 11)
        for tf2 in (0.0, 0.4, 0.9):
            scores = [
                evaluate(config, {"tf_1": float(v), "tf_2": tf2,
                                  "idf_1": 0.6, "idf_2": 0.3,
                                  "overlap": 0.5})
                for v in steps
            ]
            assert all(b - a >= -1e-12 for a, b in zip(scores, scores[1:]))

    def test_monotone_in_overlap(self, template):
        config = instantiate_fis(template, 2)
        steps = np.linspace(0.0, 1.0, 11)
        scores = [
            evaluate(config, {"tf_1": 0.3, "tf_2": 0.7,
                              "idf_1": 0.6, "idf_2": 0.3,
                              "overlap": float(v)})
            for v in steps
        ]
        assert all(b - a >= -1e-12 for a, b in zip(scores, scores[1:]))

    def test_halved_duplicate_rules_leave_scores_unchanged(self, index20):
        """Splitting every rule into two half-weight copies is a no-op:
        weights enter linearly through strength and sum aggregation."""
        base = default_template()
        halved = FisTemplate(dataclasses.replace(
            base.config,
            rules=tuple(
                parse_rule(f"{text} weight 0.5")
                for rule in base.config.rules
                for text in [rule_text(rule)] * 2
            ),
        ))
        original = score_fis(index20, base, "river flood levee")
        doubled = score_fis(index20, halved, "river flood levee")
        assert [e.doc_id for e in original.entries] == \
            [e.doc_id for e in doubled.entries]
        for a, b in zip(original.entries, doubled.entries):
            assert a.score == pytest.approx(b.score, abs=1e-12)


def rule_text(rule):
    from frank.rules import print_rule
    return print_rule(rule)


def baseline_by_document(index, query_text):
    """The per-document loop the column-wise baseline replaced: the
    reference its scores must equal bit for bit."""
    terms = list(dict.fromkeys(tokenize(query_text)))
    in_corpus = [t for t in terms if index.document_frequency(t) > 0]
    norm_sq = sum(v * v for v in (idf_raw(index, t) for t in in_corpus))
    query_norm = 1.0 / math.sqrt(norm_sq) if norm_sq > 0 else 1.0
    candidates = sorted({ordinal for t in terms
                         for ordinal in index.postings(t)[0].tolist()})
    scores = {}
    for ordinal in candidates:
        length_norm = 1.0 / math.sqrt(int(index.token_counts[ordinal]))
        total = 0.0
        matched = 0
        for term in in_corpus:
            tf = index.term_frequency(ordinal, term)
            if tf == 0:
                continue
            matched += 1
            tf_value = tf / int(index.max_term_frequencies[ordinal])
            total += tf_value * idf_raw(index, term) * length_norm
        scores[index.doc_ids[ordinal]] = total * (matched / len(terms)) * query_norm
    return scores


def random_index():
    """300 documents of 5-60 words over a 40-word vocabulary: most
    candidates match several query terms, at many lengths and tfs."""
    rng = random.Random(7)
    words = [f"w{i}" for i in range(40)]
    return build_index([
        Document(f"d{i:03d}", " ".join(
            rng.choice(words) for _ in range(rng.randint(5, 60))))
        for i in range(300)
    ])


def template_variant(rules=None, ratio=None, **operators):
    """The default template with other operators, rules or overlap ratio."""
    base = default_template()
    config = dataclasses.replace(
        base.config, **operators,
        rules=base.config.rules if rules is None else
        tuple(parse_rule(rule) for rule in rules))
    return FisTemplate(config, base.overlap_weight_ratio
                       if ratio is None else ratio)


# the moment path, the grid path under non-default operators, and weights
# that are not 1, on rules over tf alone and idf alone too
TEMPLATES = {
    "default": default_template(),
    "min_max": template_variant(implication="min", aggregation="max"),
    "bisector": template_variant(defuzzification="bisector"),
    "and_min": template_variant(and_method="min"),
    "weighted": template_variant(ratio=0.37, rules=(
        "if (tf is high) and (idf is high) -> (relevance is high) weight 0.3",
        "if (tf is not high) and (idf is not high) -> (relevance is not high)"
        " weight 0.7",
        "if (tf is high) -> (relevance is high) weight 0.7",
        "if (idf is not high) -> (relevance is not high) weight 0.3",
        "if (overlap is high) -> (relevance is high) weight 0.7",
        "if (overlap is not high) -> (relevance is not high) weight 0.3",
    )),
}


class TestColumnScoring:
    QUERIES = ("river flood levee", "banana bread flour", "ice",
               "river flood levee ice water", "ice nosuchterm")
    RANDOM_QUERIES = ("w1 w2 w3", "w4 w5 w6 w7 w8", "w0 w9",
                      "w10 w11 w12 w13 nosuchterm")

    def cases(self, index20):
        yield from ((index20, query) for query in self.QUERIES)
        index = random_index()
        yield from ((index, query) for query in self.RANDOM_QUERIES)

    def test_each_fis_score_is_evaluate_on_its_features(self, index20):
        """score_fis equals the paper's per-query expansion, one candidate
        at a time, bit for bit, under every template."""
        for name, template in TEMPLATES.items():
            for index, query in self.cases(index20):
                terms = list(dict.fromkeys(tokenize(query)))
                config = instantiate_fis(template, len(terms))
                ranked = score_fis(index, template, query)
                assert ranked.entries
                for entry in ranked.entries:
                    ordinal = index.ordinal_of(entry.doc_id)
                    features = extract_features(index, terms, [ordinal])
                    inputs = {"overlap": float(features.overlap[0])}
                    for i, term in enumerate(terms):
                        inputs[f"tf_{i + 1}"] = float(features.tf[i, 0])
                        inputs[f"idf_{i + 1}"] = features.idf[i]
                    assert entry.score == evaluate(config, inputs), \
                        (name, query, entry.doc_id)

    def test_scores_without_building_a_config(self, index20, monkeypatch):
        template = TEMPLATES["weighted"]
        query = "river flood levee ice water"
        want = score_fis(index20, template, query)

        def refuse(*args):
            raise AssertionError("instantiate_fis called")

        built = []

        def counting(cls):
            original = cls.__post_init__

            def post_init(self):
                built.append(self)
                original(self)
            return post_init

        monkeypatch.setattr(frank.ranker, "instantiate_fis", refuse)
        for cls in (FisConfig, LinguisticVariable):
            monkeypatch.setattr(cls, "__post_init__", counting(cls))
        assert score_fis(index20, template, query) == want
        assert built == []

    def test_rule_order_leaves_run_bytes_alone(self, index20):
        for template in TEMPLATES.values():
            reversed_rules = FisTemplate(
                dataclasses.replace(template.config,
                                    rules=template.config.rules[::-1]),
                template.overlap_weight_ratio)
            runs = [format_run(run_from_ranked(
                [score_fis(index20, t, query, query_id=str(number))
                 for number, query in enumerate(self.QUERIES)], "t"))
                for t in (template, reversed_rules)]
            assert runs[0] == runs[1]

    def test_baseline_equals_per_document_loop(self, index20):
        for index, query in self.cases(index20):
            want = baseline_by_document(index, query)
            ranked = score_baseline(index, query)
            assert {e.doc_id: e.score for e in ranked.entries} == want
            assert [e.doc_id for e in ranked.entries] == sorted(
                want, key=lambda doc_id: (-want[doc_id], doc_id))

    def test_query_matching_no_document_ranks_nothing(self, index20,
                                                      template):
        assert score_fis(index20, template, "nosuchterm").entries == ()
        assert score_fis(index20, TEMPLATES["min_max"],
                         "nosuchterm").entries == ()
        assert score_baseline(index20, "nosuchterm").entries == ()


class TestRankedListContract:
    """What code outside the package builds on: an entry is constructed
    positionally as (doc_id, score, rank), read by field name and never
    mutated, and ``dataclasses.replace`` swaps a ranked list's entries."""

    def test_entry_fields_by_position_and_name(self):
        entry = RankedEntry("d7", 0.25, 3)
        assert (entry.doc_id, entry.score, entry.rank) == ("d7", 0.25, 3)
        assert entry == RankedEntry(doc_id="d7", score=0.25, rank=3)
        for field in ("doc_id", "score", "rank"):
            with pytest.raises(AttributeError):
                setattr(entry, field, None)
        assert (entry.doc_id, entry.score, entry.rank) == ("d7", 0.25, 3)

    def test_scored_entries_and_replace(self, index20):
        ranked = score_baseline(index20, "river flood", query_id="q9")
        assert len(ranked.entries) > 1
        for rank, entry in enumerate(ranked.entries, start=1):
            assert type(entry) is RankedEntry
            assert entry == RankedEntry(entry.doc_id, entry.score, rank)
        reversed_entries = ranked.entries[::-1]
        swapped = dataclasses.replace(ranked, entries=reversed_entries)
        assert swapped == RankedList("q9", reversed_entries)
        assert ranked.entries[0] == reversed_entries[-1]
        with pytest.raises(AttributeError):
            ranked.entries = ()
