"""Template instantiation and both scorers, checked against hand arithmetic
and the independent reference pipeline."""

import dataclasses
import gc
import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frank.ranker
from frank.errors import ConfigError, QueryError, RunFormatError
from frank.evaluation import RunFile, format_run, parse_run, run_from_ranked
from frank.fis import (OPERATORS, FisConfig, LinguisticVariable, aggregate,
                       defuzzify, evaluate, fire_rule, fuzzify, imply)
from frank.index import (Document, InvertedIndex, build_index,
                         extract_features, read_corpus_jsonl, tokenize)
from frank.membership import MembershipFunction
from frank.ranker import (FisTemplate, RankedEntries, RankedEntry,
                          RankedList, default_template, instantiate_fis, score_baseline,
                          score_fis)
from frank.rules import parse_rule

from oracles import (ReferenceCorpus, reference_dense_baseline,
                     reference_dense_fis_inputs, reference_rank_baseline,
                     reference_rank_fis, reference_ranking,
                     reference_rfis_score)


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

    def test_clones_come_first_then_global_rules(self):
        """Each term's clones of the per-term rules in config order, then
        the overlap rules in config order, whatever the config's order."""
        template = TEMPLATES["interleaved"]
        rules = template.query_rules(2)
        config = instantiate_fis(template, 2)
        assert [(rule.antecedent[0].variable, rule.weight)
                for rule in config.rules] == [
            ("tf_1", rules[1].weight), ("tf_1", rules[3].weight),
            ("tf_2", rules[1].weight), ("tf_2", rules[3].weight),
            ("overlap", rules[0].weight), ("overlap", rules[2].weight)]
        assert [rule.consequent for rule in config.rules] == [
            rules[i].consequent for i in (1, 3, 1, 3, 0, 2)]

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

    @pytest.mark.parametrize("ratio", ["0.5", True, None])
    def test_ratio_of_the_wrong_type_rejected(self, ratio):
        with pytest.raises(ConfigError) as excinfo:
            FisTemplate(default_template().config, ratio)
        assert str(excinfo.value) == ("overlap_weight_ratio must be an int or "
                                      f"float number, got {ratio!r}")

    def test_numpy_ratio_accepted(self):
        config = default_template().config
        assert FisTemplate(config, np.float32(0.25)).query_rules(2) == \
            FisTemplate(config, 0.25).query_rules(2)


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

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_cutoff_below_one_rejected_before_postings(self, k, template,
                                                       monkeypatch):
        """[:k] would keep all but the last -k matches; neither scorer
        reads a postings list before it rejects k."""
        index = build_index([Document("a", "ice"), Document("b", "ice ice"),
                             Document("c", "ice river")])
        assert len(score_baseline(index, "ice", k=3).entries) == 3
        monkeypatch.setattr(type(index), "_pairs", None)  # every postings read
        for score in (lambda: score_baseline(index, "ice", k=k),
                      lambda: score_fis(index, template, "ice", k=k)):
            with pytest.raises(QueryError) as excinfo:
                score()
            assert str(excinfo.value) == f"k must be >= 1, got {k}"

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

    @pytest.mark.parametrize("query", ["river flood river levee",
                                       "ice nosuchterm"])
    def test_each_score_reads_each_term_postings_once(
            self, monkeypatch, index20, template, query):
        """``extract_features`` is the one candidate generator: a score call
        reads each distinct query term's postings exactly once."""
        reads = {}
        pairs = InvertedIndex._pairs

        def counted(index, token):
            reads[token] = reads.get(token, 0) + 1
            return pairs(index, token)

        monkeypatch.setattr(InvertedIndex, "_pairs", counted)
        for score in (lambda: score_fis(index20, template, query),
                      lambda: score_baseline(index20, query)):
            reads.clear()
            assert score().entries
            assert reads == dict.fromkeys(tokenize(query), 1)

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
    dfs = {t: len(index.postings(t)[0]) for t in terms}
    in_corpus = [t for t in terms if dfs[t] > 0]
    idf_raw = {t: math.log(index.total_docs / dfs[t]) for t in in_corpus}
    norm_sq = sum(v * v for v in (idf_raw[t] for t in in_corpus))
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
            total += tf_value * idf_raw[term] * length_norm
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


def template_variant(rules=None, ratio=None, prototype=None, **operators):
    """The default template with other operators, rules, overlap ratio or
    placeholder prototype (a universe and its sets)."""
    base = default_template()
    inputs = base.config.inputs if prototype is None else tuple(
        LinguisticVariable(name, *prototype) for name in ("tf", "idf",
                                                          "overlap"))
    config = dataclasses.replace(
        base.config, **operators, inputs=inputs,
        rules=base.config.rules if rules is None else
        tuple(parse_rule(rule) for rule in rules))
    return FisTemplate(config, base.overlap_weight_ratio
                       if ratio is None else ratio)


# the moment path, the grid path under non-default operators, and weights
# that are not 1, on rules over tf alone and idf alone too; rules that read
# the not_high set by name, where tf 0 has degree 1; smooth sets, where its
# degree lies strictly between 0 and 1 (and np.exp sees each value at
# another position than on the dense path); a universe narrower than [0,
# 1], which clamps tf 0 and tf 1; rules that never read tf; and overlap
# and per-term rules interleaved in the config
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
    "not_high_set": template_variant(rules=(
        "if (tf is high) and (idf is high) -> (relevance is high)",
        "if (tf is not_high) and (idf is not_high) -> (relevance is not_high)",
        "if (tf is not not_high) -> (relevance is high) weight 0.5",
        "if (overlap is not_high) -> (relevance is not_high)",
    )),
    "smooth": template_variant(prototype=((0.0, 1.0), {
        "high": MembershipFunction.sigmoid(9.0, 0.55),
        "low": MembershipFunction.gaussian(0.3, 0.1),
    }), rules=(
        "if (tf is high) and (idf is high) -> (relevance is high)",
        "if (tf is low) and (idf is not high) -> (relevance is not high)",
        "if (overlap is high) -> (relevance is high)",
        "if (overlap is low) -> (relevance is not high)",
    )),
    "narrow": template_variant(prototype=((0.2, 0.7), {
        "high": MembershipFunction.triangular(0.2, 0.7, 0.7),
        "not_high": MembershipFunction.triangular(0.2, 0.2, 0.7),
    })),
    "idf_only": template_variant(rules=(
        "if (idf is high) -> (relevance is high)",
        "if (idf is not high) -> (relevance is not high) weight 0.4",
        "if (overlap is high) -> (relevance is high)",
    )),
    "interleaved": template_variant(ratio=0.37, rules=(
        "if (overlap is high) -> (relevance is high) weight 0.7",
        "if (tf is high) and (idf is high) -> (relevance is high) weight 0.3",
        "if (overlap is not high) -> (relevance is not high) weight 0.3",
        "if (tf is not high) and (idf is not high) -> (relevance is not high)"
        " weight 0.9",
    )),
}


# every operator combination without a moment form, which runs the grid path
GRID_OPERATORS = [
    dict(zip(("and_method", "implication", "aggregation", "defuzzification"),
             combo))
    for combo in itertools.product(
        *(methods for _, methods in OPERATORS.values()))
    if combo[1:] != ("prod", "sum", "centroid")
]


def candidate_inputs(index, reference, doc_id):
    """The instantiated system's inputs for one candidate: its column of
    the query's ``reference_dense_fis_inputs``."""
    candidates, inputs = reference
    column = candidates.tolist().index(index.doc_ids.index(doc_id))
    return {name: float(value[column]) if np.ndim(value) else value
            for name, value in inputs.items()}


def grid_pipeline(config, inputs):
    """One row through the grid pipeline, composed stage by stage from 1-D
    calls, with implied sets in canonical order: sets sorted by (label,
    negated), strengths ascending within a set."""
    degrees = fuzzify(config, inputs)
    fired = sorted(((rule.consequent.label, rule.consequent.negated),
                    float(fire_rule(rule, degrees, config.and_method)))
                   for rule in config.rules)
    implied = [imply(config.consequent_samples[key], strength,
                     config.implication) for key, strength in fired]
    return defuzzify(aggregate(implied, config.aggregation),
                     config.output.universe, config.defuzzification)


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
                tokens = tokenize(query)
                reference = reference_dense_fis_inputs(index, tokens)
                config = instantiate_fis(template, len(set(tokens)))
                ranked = score_fis(index, template, query)
                assert ranked.entries
                for entry in ranked.entries:
                    inputs = candidate_inputs(index, reference, entry.doc_id)
                    assert entry.score == evaluate(config, inputs), \
                        (name, query, entry.doc_id)

    @pytest.mark.parametrize(
        "operators", GRID_OPERATORS,
        ids=["/".join(operators.values()) for operators in GRID_OPERATORS])
    def test_grid_path_is_the_stage_pipeline_per_candidate(self, index20,
                                                           operators):
        """score_fis equals the grid pipeline composed of 1-D stage calls,
        one candidate at a time, bit for bit.  The five-term query on the
        random index scores 279 rows in blocks of 5; every 3rd is checked."""
        template = template_variant(**operators)
        for index, query, stride in [
                (index20, "river flood levee ice water", 1),
                (index20, "ice", 1),
                (random_index(), "w4 w5 w6 w7 w8", 3)]:
            tokens = tokenize(query)
            reference = reference_dense_fis_inputs(index, tokens)
            config = instantiate_fis(template, len(set(tokens)))
            ranked = score_fis(index, template, query)
            assert ranked.entries
            for entry in ranked.entries[::stride]:
                inputs = candidate_inputs(index, reference, entry.doc_id)
                assert entry.score == grid_pipeline(config, inputs), \
                    (query, entry.doc_id)

    def test_grid_path_memory_is_bounded(self):
        """Grid-path scoring works on blocks of a fixed number of floats, so
        a query's peak allocation does not grow with its candidates: here
        279 rows x 12 implied sets x 1001 points would take 27 MB at once.
        It peaks at 1.2 MiB with 2^16-float blocks, 2.2 MiB with 2^17."""
        index = random_index()
        template = TEMPLATES["min_max"]
        query = "w4 w5 w6 w7 w8"
        assert len(score_fis(index, template, query).entries) == 279
        tracemalloc.start()
        try:
            score_fis(index, template, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_long_baseline_query_memory_is_bounded(self):
        """The baseline sums per posting and builds no terms x candidates
        array: a query of the first 1000 of 3000 vocabulary words over 4000
        documents peaks at 2.1 MiB, where the dense path took 66 MiB."""
        rng = random.Random(11)
        words = [f"w{i}" for i in range(3000)]
        weights = [1 / rank for rank in range(1, 3001)]
        index = build_index([
            Document(f"d{i:04d}", " ".join(
                rng.choices(words, weights, k=rng.randint(20, 80))))
            for i in range(4000)
        ])
        query = " ".join(index.terms[:1000])
        tracemalloc.start()
        try:
            ranked = score_baseline(index, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ranked.entries) == 1000
        assert peak < 8 << 20

    def test_every_strength_row_count_is_evaluate_bit_for_bit(self):
        """Queries of t = 1..7 terms give each consequent set t + 1 strength
        rows under the default template: every sorting network of 2 to 6
        rows and the np.sort above them.  Doc ids and score bytes equal the
        paper's expansion scored as columns, with its rules in any
        order."""
        index = random_index()
        template = default_template()
        shuffler = random.Random(47)
        for t in range(1, 8):
            terms = [f"w{i}" for i in range(1, t + 1)]
            ranked = score_fis(index, template, " ".join(terms), k=150)
            candidates, inputs = reference_dense_fis_inputs(index, terms)
            assert extract_features(index, terms).candidates.tolist() == \
                candidates.tolist() == np.unique(np.concatenate(
                    [index.postings(term)[0] for term in terms])).tolist()
            config = instantiate_fis(template, t)
            scores = evaluate(config, inputs)
            for _ in range(3):
                rules = list(config.rules)
                shuffler.shuffle(rules)
                shuffled = dataclasses.replace(config, rules=tuple(rules))
                assert evaluate(shuffled, inputs).tobytes() == \
                    scores.tobytes()
            doc_ids = [index.doc_ids[c] for c in candidates]
            order = sorted(range(len(candidates)),
                           key=lambda c: (-scores[c], doc_ids[c]))[:150]
            assert ranked.entries.doc_ids == tuple(doc_ids[c] for c in order)
            assert ranked.entries.scores.tobytes() == scores[order].tobytes()

    @pytest.mark.parametrize("implication", ["prod", "min"],
                             ids=["moment path", "grid path"])
    def test_all_zero_warning_points_at_the_caller(self, index20,
                                                   implication):
        """A one-term query has overlap 1 everywhere, so the one rule never
        fires and every candidate scores the midpoint."""
        template = template_variant(implication=implication, rules=(
            "if (overlap is not high) -> (relevance is high)",))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranked = score_fis(index20, template, "river")
        assert ranked.entries
        assert set(ranked.entries.scores.tolist()) == {0.5}
        assert [(w.category, str(w.message)[:8], w.filename)
                for w in caught] == [(RuntimeWarning, "all-zero", __file__)]

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

    @pytest.mark.parametrize("name, read", [
        ("default", ["high"]), ("not_high_set", ["high", "not_high"]),
        ("idf_only", ["high"])], ids=["default", "not_high_set", "idf_only"])
    @pytest.mark.parametrize("query, t", [
        ("ice", 1), ("river flood levee ice water", 5)], ids=["t1", "t5"])
    def test_fuzzifies_once_per_prototype_set(self, index20, monkeypatch,
                                              query, t, name, read):
        """tf, idf and overlap share one prototype, so a query samples each
        set that some rule reads once, whatever the number of terms, and no
        other set: a negated clause reads its set as 1 - degree."""
        template = TEMPLATES[name]
        want = score_fis(index20, template, query)  # caches output samples
        sampled = []
        original = MembershipFunction.sample

        def counting(mf, xs):
            sampled.append(mf)
            return original(mf, xs)

        monkeypatch.setattr(MembershipFunction, "sample", counting)
        assert score_fis(index20, template, query) == want
        assert len(set(tokenize(query))) == t
        sets = template.variable_prototype.sets
        assert sampled == [sets[label] for label in read]

    def test_query_rules_are_weighted_once_per_term_count(self, index20):
        """The rules of a term count are the tuple stored by its first
        query, one per distinct term count, and a copy of the template
        starts with none; they are the config's rules in config order at
        weight w * (1/t), times the overlap ratio for overlap rules, bit
        for bit."""
        template = dataclasses.replace(TEMPLATES["interleaved"])
        assert template._rules == {}
        for query in ("ice", "river flood", "flood river", "water", "ice"):
            score_fis(index20, template, query)
        stored = dict(template._rules)
        assert sorted(stored) == [1, 2]
        assert template.query_rules(2) is stored[2]
        score_fis(index20, template, "levee water")
        assert template._rules[2] is stored[2]
        assert dataclasses.replace(template)._rules == {}
        ratio = template.overlap_weight_ratio
        for t in (1, 2, 3, 7):
            rules = template.query_rules(t)
            assert len(rules) == len(template.config.rules)
            for rule, original in zip(rules, template.config.rules):
                assert (rule.antecedent, rule.consequent) == (
                    original.antecedent, original.consequent)
                weight = original.weight * (1 / t)
                if original.antecedent[0].variable == "overlap":
                    weight = weight * ratio
                assert rule.weight.hex() == weight.hex()

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


# a small vocabulary, so that documents repeat words and share them; "of"
# and "x" are never tokens, so a document of them alone has none
_WORDS = ("aa", "bb", "cc", "dd", "ee")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(texts=st.lists(st.lists(st.sampled_from(_WORDS + ("of", "x")),
                               max_size=10), min_size=1, max_size=12),
       query=st.lists(st.sampled_from(_WORDS + ("zz", "yy")), min_size=1,
                      max_size=6),
       k=st.integers(1, 14))
@example(texts=[["aa", "bb", "aa"], [], ["bb", "cc"]], query=["zz", "yy"],
         k=5)
@example(texts=[["aa", "bb", "aa"], ["of", "x"], ["bb", "cc"], ["aa"]],
         query=["bb", "zz", "aa", "bb"], k=2)
def test_scorers_equal_the_dense_path_bit_for_bit(texts, query, k):
    """Both scorers give the doc ids and score bytes of the dense terms x
    candidates path (``tests/oracles.py``): the baseline its per-term
    accumulation, the fuzzy ranker the paper's expansion on its features.
    Queries repeat terms and hold absent ones, or only absent ones."""
    index = build_index([Document(f"d{i}", " ".join(words))
                         for i, words in enumerate(texts)])
    text = " ".join(query)
    ranked = score_baseline(index, text, k=k)
    expected = reference_ranking(index, *reference_dense_baseline(index,
                                                                  query), k)
    assert (ranked.entries.doc_ids, ranked.entries.scores.tobytes()) == \
        expected
    template = default_template()
    candidates, inputs = reference_dense_fis_inputs(index, query)
    scores = (evaluate(instantiate_fis(template, len(set(query))), inputs)
              if len(candidates) else np.zeros(0))
    ranked = score_fis(index, template, text, k=k)
    assert (ranked.entries.doc_ids, ranked.entries.scores.tobytes()) == \
        reference_ranking(index, candidates, scores, k)


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
        # a slice keeps each entry's rank, so reversed ranks run n..1
        reversed_entries = ranked.entries[::-1]
        with pytest.raises(RunFormatError) as caught:
            dataclasses.replace(ranked, entries=reversed_entries)
        assert str(caught.value) == (
            f"topic q9: rank {len(ranked.entries)} out of order (expected 1)")
        renumbered = tuple(RankedEntry(doc_id, score, rank)
                           for rank, (doc_id, score, _) in
                           enumerate(reversed_entries, start=1))
        swapped = dataclasses.replace(ranked, entries=renumbered)
        assert swapped == RankedList("q9", renumbered)
        assert swapped.entries.doc_ids == ranked.entries.doc_ids[::-1]
        with pytest.raises(AttributeError):
            ranked.entries = ()


def wide_index(n: int):
    """n documents that all match ``river flood``, with varied scores."""
    return build_index([
        Document(f"d{i:04d}", "river " * (1 + i % 7) + "flood " * (i % 3)
                 + f"w{i} " * (i % 5))
        for i in range(n)])


def run_lines_of(ranked: RankedList, tag: str) -> str:
    """A run topic's lines as a loop over the entries writes them, row by
    row."""
    return "".join(f"{ranked.query_id} Q0 {e.doc_id} {e.rank} {e.score:.6f} "
                   f"{tag}\n" for e in ranked.entries)


class TestColumnarEntries:
    """``RankedList.entries`` is a sequence over doc-id, score and rank
    columns that reads like the tuple of its entries."""

    @staticmethod
    def tracked_while_holding(make) -> int:
        """GC-tracked objects added while ``make()``'s result, a non-empty
        ranked list or run, is held."""
        gc.collect()
        before = len(gc.get_objects())
        held = make()
        gc.collect()
        if isinstance(held, RunFile):
            assert held.topics and all(held.topics.values())
        else:
            assert held.entries
        return len(gc.get_objects()) - before

    def test_ranked_lists_add_few_tracked_objects(self, template):
        index = wide_index(900)
        scorers = {
            "baseline": lambda k: score_baseline(index, "river flood", k=k),
            "fis": lambda k: score_fis(index, template, "river flood", k=k),
        }
        for name, score in scorers.items():
            score(1)  # the index's lazy per-document columns
            small = self.tracked_while_holding(lambda: score(20))
            large = self.tracked_while_holding(lambda: score(800))
            assert len(score(800).entries) == 800
            assert large <= 10, name
            assert large <= small, name

    def test_parsed_runs_add_few_tracked_objects(self):
        index = wide_index(900)

        def parsed(k):
            return parse_run(format_run(run_from_ranked(
                [score_baseline(index, "river flood", k=k)], "t")))

        parsed(1)  # the index's lazy per-document columns
        small = self.tracked_while_holding(lambda: parsed(20))
        large = self.tracked_while_holding(lambda: parsed(800))
        assert len(parsed(800).topics["1"]) == 800
        assert large <= 10
        assert large <= small

    def test_equals_the_tuple_of_its_entries(self, index20, template):
        for ranked in (score_baseline(index20, "river flood"),
                       score_fis(index20, template, "river flood")):
            entries = ranked.entries
            as_tuple = tuple(entries)
            assert len(as_tuple) == len(entries) > 1
            assert all(type(e) is RankedEntry for e in as_tuple)
            assert entries == as_tuple and as_tuple == entries
            assert entries == list(as_tuple)
            assert entries != as_tuple[:-1] and entries != as_tuple[::-1]
            assert RankedList(ranked.query_id, as_tuple) == ranked
            assert isinstance(entries, RankedEntries)
        empty = score_baseline(index20, "nosuchterm").entries
        assert empty == () and () == empty and len(empty) == 0
        assert list(empty) == [] and empty != (RankedEntry("d1", 1.0, 1),)
        assert (RankedEntries(("d1",), np.array([1.0])) == 5) is False

    def test_repr_is_the_tuple_of_its_entries(self, index20):
        entries = score_baseline(index20, "river flood").entries
        assert repr(entries) == repr(tuple(entries))

    def test_indices_and_slices(self, index20):
        entries = score_baseline(index20, "river flood").entries
        as_tuple = tuple(entries)
        n = len(entries)
        for i in range(-n, n):
            assert entries[i] == as_tuple[i]
            assert type(entries[i]) is RankedEntry
            assert type(entries[i].score) is float
        for i in (n, n + 5, -n - 1):
            with pytest.raises(IndexError):
                entries[i]
        for cut in (slice(1, 3), slice(None, -1), slice(None, None, -1),
                    slice(None, None, -2), slice(2, 1), slice(-50, 50)):
            part = entries[cut]
            assert type(part) is tuple and part == as_tuple[cut]
            assert all(type(e) is RankedEntry for e in part)

    def test_equal_lists_hash_equal(self, index20, template):
        first = score_fis(index20, template, "river flood", query_id="q")
        again = score_fis(index20, template, "river flood", query_id="q")
        assert first == again and first.entries is not again.entries
        assert hash(first) == hash(again)
        assert hash(first.entries) == hash(tuple(first.entries))
        rebuilt = RankedList("q", tuple(first.entries))
        assert hash(rebuilt) == hash(first)
        assert len({first, again, rebuilt}) == 1

    @pytest.mark.parametrize("columns, lengths", [
        ((("a", "b"), np.array([1.0])), (2, 1)),
        ((("a",), np.array([1.0, 0.5])), (1, 2)),
        ((("a", "b"), np.array([1.0, 0.5, 0.25])), (2, 3)),
        (((), np.array([1.0])), (0, 1)),
    ])
    def test_unequal_columns_rejected(self, columns, lengths):
        with pytest.raises(RunFormatError) as caught:
            RankedEntries(*columns)
        assert str(caught.value) == (
            "ranked columns differ in length: {} doc ids, {} scores"
            .format(*lengths))

    def test_scores_are_read_only(self, index20, template):
        for ranked in (score_baseline(index20, "river flood"),
                       score_fis(index20, template, "river flood"),
                       RankedList("t", (RankedEntry("d1", 0.5, 1),)),
                       RankedList("t", ())):
            scores = ranked.entries.scores
            assert scores.dtype == np.float64
            assert not scores.flags.writeable
            with pytest.raises(ValueError):
                scores[:1] = 2.0

    @pytest.mark.parametrize("scores", [
        np.array([0.5, 0.25]), np.array([3, 2], dtype=np.int64), [0.5, 0.25],
        (3, 2), np.array([0.5, 0.25], dtype=np.float32)],
        ids=["float64", "int64", "list", "tuple", "float32"])
    def test_owns_its_columns(self, scores):
        """The columns are a tuple and a read-only float64 copy: the
        caller's own scores stay writeable and as they were."""
        doc_ids = ["a", "b"]
        entries = RankedEntries(doc_ids, scores)
        doc_ids[0] = "z"
        assert entries.doc_ids == ("a", "b")
        assert entries.scores.dtype == np.float64
        assert not entries.scores.flags.writeable
        assert entries.scores.tolist() == [float(s) for s in scores]
        if isinstance(scores, np.ndarray):
            assert scores.flags.writeable
            scores[0] = 9
            assert entries.scores[0] != 9

    @pytest.mark.parametrize("scores", [
        ["high"], [object()], [[0.5]], np.array([[0.5]]), 0.5, None,
        [0.5, [0.25]], "0.5"],
        ids=["word", "object", "nested", "2d", "scalar", "none", "ragged",
             "text"])
    def test_scores_not_a_column_of_numbers_rejected(self, scores):
        with pytest.raises(RunFormatError) as caught:
            RankedEntries(("a",), scores)
        assert str(caught.value) == (
            "ranked scores must be one column of numbers")

    @pytest.mark.parametrize("score", ["high", object(), [0.5], (0.5, 0.25)],
                             ids=["word", "object", "list", "pair"])
    def test_entry_score_not_a_number_names_the_topic(self, score):
        with pytest.raises(RunFormatError) as caught:
            RankedList("q", [("a", score, 1)])
        assert str(caught.value) == (
            "topic q: ranked scores must be one column of numbers")

    @pytest.mark.parametrize("scores", [
        np.array([True]), [True, False], np.array(["0.5"]), ("0.5",),
        np.array([0.5], dtype=object)],
        ids=["bool-array", "bool-list", "text-array", "text-tuple",
             "object-array"])
    def test_only_int_unsigned_and_float_columns_accepted(self, scores):
        with pytest.raises(RunFormatError) as caught:
            RankedEntries(("a",) * len(scores), scores)
        assert str(caught.value) == (
            "ranked scores must be one column of numbers")

    @pytest.mark.parametrize("score", ["0.5", True],
                             ids=["text", "bool"])
    def test_entry_score_of_another_type_names_the_topic(self, score):
        with pytest.raises(RunFormatError) as caught:
            RankedList("t", (("d1", score, 1),))
        assert str(caught.value) == (
            "topic t: ranked scores must be one column of numbers")

    @pytest.mark.parametrize("flag", [True, np.True_],
                             ids=["bool", "numpy-bool"])
    def test_entry_bool_among_numeric_scores_names_the_topic(self, flag):
        with pytest.raises(RunFormatError) as caught:
            RankedList("t", (("a", 0.5, 1), ("b", flag, 2), ("c", 9, 9)))
        assert str(caught.value) == (
            "topic t: ranked scores must be one column of numbers")

    def test_entry_int_and_float_scores_mix(self):
        ranked = RankedList("t", (("a", 2, 1), ("b", 0.5, 2),
                                  ("c", np.int64(0), 3)))
        assert ranked.entries.scores.dtype == np.float64
        assert ranked.entries.scores.tolist() == [2.0, 0.5, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_score_not_finite_rejected(self, bad):
        with pytest.raises(RunFormatError) as caught:
            RankedEntries(("a", "b", "c"), np.array([1.0, bad, bad]))
        assert str(caught.value) == f"score {bad} at rank 2 is not finite"

    def test_a_run_of_a_non_finite_score_is_never_written(self):
        with pytest.raises(RunFormatError, match="not finite"):
            format_run(RunFile("x", {
                "1": RankedEntries(("a",), np.array([math.nan]))}))

    def test_ill_formed_lists_keep_their_run_bytes(self, index20):
        """A hand-built list whose scores rise or that repeats a doc still
        constructs and formats, each entry's rank its position: score order
        and distinct docs are checked where a run is read, at its line."""
        ranked = score_baseline(index20, "river flood", query_id="q9")
        top = ranked.entries[0]

        def swap_first_two(entries):
            first, second, *rest = entries
            return (RankedEntry(second.doc_id, second.score, 1),
                    RankedEntry(first.doc_id, first.score, 2), *rest)

        def repeat_first(entries):
            return (*entries, RankedEntry(top.doc_id, entries[-1].score,
                                          len(entries) + 1))

        cases = {
            "swapped first two": (swap_first_two,
                                  "line 2: topic q9: score increases at "
                                  "rank 2"),
            "repeated first": (repeat_first,
                               f"line 4: topic q9: duplicate doc "
                               f"{top.doc_id}"),
            "dropped last": (lambda entries: entries[:-1], None),
        }
        for name, (change, message) in cases.items():
            bad = dataclasses.replace(ranked, entries=change(ranked.entries))
            n = len(bad.entries)
            assert [e.rank for e in bad.entries] == list(range(1, n + 1)), \
                name
            assert bad.entries[-1].rank == n, name
            text = format_run(run_from_ranked([bad], "t"))
            assert text == run_lines_of(bad, "t"), name
            if message is None:
                parsed = parse_run(text).topics["q9"]
                assert [(e.doc_id, e.rank) for e in parsed] == \
                    [(e.doc_id, e.rank) for e in bad.entries]
            else:
                with pytest.raises(RunFormatError) as caught:
                    parse_run(text)
                assert str(caught.value) == message, name
