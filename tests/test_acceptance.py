"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output); a failure means the criterion does not hold.  Run with::

    pytest tests/test_acceptance.py -v
"""

import math
import random
import warnings

import numpy as np
import pytest

from frank.cli import main
from frank.evaluation import (Qrels, evaluate_run, load_qrels, load_run,
                              run_from_ranked)
from frank.fis import FisConfig, defuzzify, evaluate, fuzzify
from frank.index import InvertedIndex, build_index, read_corpus_jsonl, tokenize
from frank.membership import MembershipFunction
from frank.ranker import RankedList, default_template, instantiate_fis
from frank.rules import parse_rule, print_rule

from generators import random_config, random_inputs, random_rule_ast
from oracles import reference_rfis_score
from test_fis import default_rfis_config, rfis_inputs
from test_rules import CANONICAL_RULES


def report(line):
    print(f"[acceptance] {line}: pass")


def test_c01_worked_examples_exact(template):
    """Fuzzification 0.7 -> (0.7, 0.3); product operator 0.42; 1/t weights."""
    config = instantiate_fis(template, 1)
    degrees = fuzzify(config, {"tf_1": 0.7, "idf_1": 0.0, "overlap": 0.0})
    assert degrees[("tf_1", "high")] == 0.7
    assert degrees[("tf_1", "not_high")] == pytest.approx(0.3, abs=1e-12)

    from frank.fis import fire_rule
    rule = parse_rule("if (tf is high) and (idf is high) -> (relevance is high)")
    strength = fire_rule(rule, {("tf", "high"): 0.7, ("idf", "high"): 0.6}, "prod")
    assert strength == pytest.approx(0.42, abs=1e-12)

    four = instantiate_fis(template, 4)
    per_term = {r.weight for r in four.rules
                if r.antecedent[0].variable.startswith(("tf_", "idf_"))}
    overlap = {r.weight for r in four.rules
               if r.antecedent[0].variable == "overlap"}
    assert per_term == {0.25}
    assert overlap == {0.25 / 6}
    report("criterion 1, worked examples (0.7/0.3 fuzzification, 0.42 "
           "product, 1/t weights)")


def test_c02_oracle_equivalence_at_high_resolution():
    """>= 100 random vectors vs the independent reference pipeline at
    resolution 100000, within 1e-6."""
    rng = np.random.default_rng(2024)
    resolution = 100_000
    checked = 0
    worst = 0.0
    for t in (1, 2, 3, 5):
        config = default_rfis_config(t, resolution=resolution)
        for _ in range(26):
            tf = rng.uniform(0.0, 1.0, t).tolist()
            idf = rng.uniform(0.0, 1.0, t).tolist()
            overlap = float(rng.uniform(0.0, 1.0))
            engine = evaluate(config, rfis_inputs(tf, idf, overlap))
            reference = reference_rfis_score(tf, idf, overlap, resolution)
            worst = max(worst, abs(engine - reference))
            assert engine == pytest.approx(reference, abs=1e-6)
            checked += 1
    assert checked >= 100
    report(f"criterion 2, engine vs independent oracle on {checked} vectors "
           f"(worst |diff| {worst:.2e} <= 1e-6)")


def test_c03_analytic_defuzzification():
    """Centroid of the full-strength rising ramp is 2/3; symmetric
    aggregates land on the universe midpoint."""
    resolution = 1001
    grid = np.linspace(0.0, 1.0, resolution)
    ramp = MembershipFunction.triangular(0.0, 1.0, 1.0).sample(grid)
    value = defuzzify(ramp, (0.0, 1.0), "centroid")
    assert value == pytest.approx(2.0 / 3.0, abs=2.0 / resolution)

    symmetric = MembershipFunction.triangular(0.2, 0.5, 0.8).sample(grid)
    center = defuzzify(symmetric, (0.0, 1.0), "centroid")
    assert center == pytest.approx(0.5, abs=1e-9)
    report("criterion 3, analytic centroids (2/3 ramp, symmetric midpoint)")


def test_c04_rule_order_invariance():
    """1000 random (config, input, permutation) triples, bit-identical."""
    rng = np.random.default_rng(404)
    shuffler = random.Random(404)
    for _ in range(1000):
        config = random_config(rng)
        inputs = random_inputs(rng, config)
        shuffled_rules = list(config.rules)
        shuffler.shuffle(shuffled_rules)
        shuffled = FisConfig(
            config.inputs, config.output, tuple(shuffled_rules),
            config.and_method, config.implication, config.aggregation,
            config.defuzzification, config.resolution,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert evaluate(config, inputs) == evaluate(shuffled, inputs)
    report("criterion 4, rule-order invariance on 1000 random triples "
           "(bit-identical)")


def test_c05_monotonicity_on_dense_grid(template):
    """With two terms, the crisp score never decreases in any tf input or
    in overlap, over a grid of more than 10^4 vectors."""
    config = instantiate_fis(template, 2)
    steps = np.linspace(0.0, 1.0, 22)
    idf_1, idf_2 = 0.6, 0.4
    scores = np.empty((len(steps), len(steps), len(steps)))
    for i, tf_1 in enumerate(steps):
        for j, tf_2 in enumerate(steps):
            for k, overlap in enumerate(steps):
                scores[i, j, k] = evaluate(config, {
                    "tf_1": float(tf_1), "tf_2": float(tf_2),
                    "idf_1": idf_1, "idf_2": idf_2,
                    "overlap": float(overlap),
                })
    assert scores.size >= 10_000
    for axis, name in ((0, "tf_1"), (1, "tf_2"), (2, "overlap")):
        diffs = np.diff(scores, axis=axis)
        assert diffs.min() >= -1e-12, f"score decreased along {name}"
    report(f"criterion 5, monotonicity in tf and overlap over "
           f"{scores.size} grid points")


def test_c06_metric_fixtures():
    """Hand-computed AP/P10/%no values, exact."""
    qrels = Qrels({("t1", "r1"): 1, ("t1", "r2"): 1})
    run = run_from_ranked(
        [RankedList("t1", [("r1", 0.9, 1), ("x", 0.5, 2), ("r2", 0.1, 3)])],
        "fix")
    report_one = evaluate_run(run, qrels)
    assert report_one.per_topic["t1"].ap == pytest.approx(5 / 6, abs=1e-12)

    four_qrels = Qrels({(f"t{i}", "r"): 1 for i in range(4)})
    four_run = run_from_ranked([
        RankedList("t0", [("r", 1.0, 1)]),
        RankedList("t1", [("r", 1.0, 1)]),
        RankedList("t2", [("r", 1.0, 1)]),
        RankedList("t3", [(f"x{j}", 1.0 - j / 100, j + 1) for j in range(10)]
                   + [("r", 0.5, 11)]),
    ], "fix")
    four_report = evaluate_run(four_run, four_qrels)
    assert four_report.pct_no == 0.25
    assert four_report.per_topic["t3"].ap == pytest.approx(1 / 11, abs=1e-12)
    report("criterion 6, metric fixtures (AP 5/6, AP 1/11, %no 25%)")


def test_c07_end_to_end_golden_run(tmp_path, capsys, data_dir, golden_dir):
    """Index + both rankers + report, byte-exact against the golden files."""
    index_file = tmp_path / "c20.idx"
    assert main(["index", "--corpus", str(data_dir / "corpus20.jsonl"),
                 "--out", str(index_file)]) == 0
    capsys.readouterr()

    assert main(["search", "--index", str(index_file), "--ranker", "fis",
                 "--template", str(data_dir / "template_default.cfg"),
                 "--queries", str(data_dir / "queries5.tsv"),
                 "--tag", "rfis"]) == 0
    fis_run = capsys.readouterr().out
    assert fis_run == (golden_dir / "run_fis.txt").read_text()

    assert main(["search", "--index", str(index_file), "--ranker", "baseline",
                 "--queries", str(data_dir / "queries5.tsv"),
                 "--tag", "vector"]) == 0
    baseline_run = capsys.readouterr().out
    assert baseline_run == (golden_dir / "run_baseline.txt").read_text()

    run_file = tmp_path / "fis.run"
    run_file.write_text(fis_run)
    assert main(["eval", "--run", str(run_file),
                 "--qrels", str(data_dir / "qrels20.txt")]) == 0
    assert capsys.readouterr().out == (golden_dir / "report_fis.txt").read_text()
    report("criterion 7, byte-exact golden runs and report for both rankers")


def test_c08_rankers_agree_qualitatively(data_dir, golden_dir):
    """The two rankers score the fixture within 0.15 MAP of each other and
    both put the uniquely relevant document first on single-answer topics."""
    qrels = load_qrels(data_dir / "qrels20.txt")
    fis_run = load_run(golden_dir / "run_fis.txt")
    baseline_run = load_run(golden_dir / "run_baseline.txt")
    fis_map = evaluate_run(fis_run, qrels).mean_ap
    baseline_map = evaluate_run(baseline_run, qrels).mean_ap
    assert abs(fis_map - baseline_map) <= 0.15

    single_answer = {"101": "d07", "102": "d03"}
    for topic, doc_id in single_answer.items():
        assert fis_run.topics[topic].doc_ids[0] == doc_id
        assert baseline_run.topics[topic].doc_ids[0] == doc_id
    report(f"criterion 8, |MAP delta| = {abs(fis_map - baseline_map):.4f} "
           "<= 0.15 and single-answer topics ranked first by both")


def test_c09_rule_language_roundtrip():
    """The canonical rule strings parse; 1000 random rule trees survive
    print-then-parse exactly."""
    for source in CANONICAL_RULES:
        parse_rule(source)
    rng = np.random.default_rng(909)
    for _ in range(1000):
        ast = random_rule_ast(rng)
        assert parse_rule(print_rule(ast)) == ast
    report("criterion 9, rule grammar accepts the canonical strings and "
           "1000 random round-trips are exact")


def test_c10_index_properties(data_dir):
    """Serialization round-trips byte-exactly; a shuffled rebuild keeps all
    statistics."""
    documents = list(read_corpus_jsonl(data_dir / "corpus20.jsonl"))
    index = build_index(documents)
    data = index.to_bytes()
    assert InvertedIndex.from_bytes(data).to_bytes() == data

    shuffled = documents[:]
    random.Random(10).shuffle(shuffled)
    rebuilt = build_index(shuffled)
    assert rebuilt.total_docs == index.total_docs
    assert rebuilt.terms == index.terms
    for token in index.terms:
        assert (len(rebuilt.postings(token)[0])
                == len(index.postings(token)[0]))
    for document in documents:
        a = index.doc_ids.index(document.doc_id)
        b = rebuilt.doc_ids.index(document.doc_id)
        for token in set(tokenize(document.text)):
            assert (index.term_frequency(a, token)
                    == rebuilt.term_frequency(b, token))
    report("criterion 10, byte-exact serialization and shuffle-invariant "
           "statistics")
