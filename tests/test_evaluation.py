"""Metrics and TREC-format file handling.

The 3-topic fixture below was scored by hand before the harness existed:

    t1: relevant {a1, a3}, run [a1, a2, a3, a4]
        AP = (1/1 + 2/3)/2 = 5/6,  P10 = 0.2,  relevant seen in top 10
    t2: relevant {b1}, run puts b1 at rank 11 behind ten misses
        AP = 1/11,  P10 = 0.0,  NO relevant in top 10
    t3: relevant {c1, c2, c3}, run [c1, c2, c3]
        AP = 1.0,  P10 = 0.3

    MAP = (5/6 + 1/11 + 1)/3,  mean P10 = 1/6,  %no = 1/3
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frank.errors import EvalError, RunFormatError
from frank.evaluation import (MetricsReport, Qrels, RunFile,
                              average_precision, evaluate_run, format_diff,
                              format_report, format_run, parse_qrels,
                              parse_run, precision_at_10, report_jsonl,
                              run_from_ranked)
from frank.ranker import RankedEntries, RankedEntry, RankedList

from oracles import (ReferenceRunError, reference_format_run,
                     reference_parse_run)


def make_run(tag, ranking_by_topic):
    return run_from_ranked([
        RankedList(topic, [(doc_id, 1.0 / rank, rank)
                           for rank, doc_id in enumerate(doc_ids, start=1)])
        for topic, doc_ids in ranking_by_topic.items()
    ], tag)


FIXTURE_QRELS = Qrels({
    ("t1", "a1"): 1, ("t1", "a2"): 0, ("t1", "a3"): 2, ("t1", "a4"): 0,
    ("t2", "b1"): 1,
    ("t3", "c1"): 1, ("t3", "c2"): 1, ("t3", "c3"): 1,
})

FIXTURE_RUN = make_run("fixture", {
    "t1": ["a1", "a2", "a3", "a4"],
    "t2": [f"x{i}" for i in range(1, 11)] + ["b1"],
    "t3": ["c1", "c2", "c3"],
})


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(["r1", "r2", "r3"], {"r1", "r2", "r3"}) == 1.0

    def test_relevant_at_ranks_one_and_three(self):
        value = average_precision(["r1", "x", "r2"], {"r1", "r2"})
        assert value == pytest.approx(5 / 6)

    def test_no_relevant_retrieved(self):
        assert average_precision(["x", "y"], {"r1"}) == 0.0

    def test_unretrieved_relevant_count_in_denominator(self):
        assert average_precision(["r1"], {"r1", "r2", "r3", "r4"}) == 0.25

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(EvalError):
            average_precision(["x"], set())


class TestPrecisionAt10:
    def test_three_of_ten(self):
        ranked = ["r1", "x", "r2", "x", "x", "r3", "x", "x", "x", "x", "r4"]
        assert precision_at_10(ranked, {"r1", "r2", "r3", "r4"}) == 0.3

    def test_short_list_keeps_denominator(self):
        assert precision_at_10(["r1", "r2"], {"r1", "r2"}) == 0.2

    def test_empty_list(self):
        assert precision_at_10([], {"r1"}) == 0.0


class TestEvaluateRun:
    def test_hand_computed_fixture(self):
        report = evaluate_run(FIXTURE_RUN, FIXTURE_QRELS)
        assert report.topic_count == 3
        assert report.per_topic["t1"].ap == pytest.approx(5 / 6)
        assert report.per_topic["t1"].p10 == 0.2
        assert not report.per_topic["t1"].no_rel_top10
        assert report.per_topic["t2"].ap == pytest.approx(1 / 11)
        assert report.per_topic["t2"].p10 == 0.0
        assert report.per_topic["t2"].no_rel_top10
        assert report.per_topic["t3"].ap == 1.0
        assert report.per_topic["t3"].p10 == 0.3
        assert report.mean_ap == pytest.approx((5 / 6 + 1 / 11 + 1) / 3)
        assert report.mean_p10 == pytest.approx(1 / 6)
        assert report.pct_no == pytest.approx(1 / 3)

    def test_one_of_four_topics_flagged(self):
        qrels = Qrels({(f"t{i}", "r"): 1 for i in range(4)})
        run = make_run("q", {
            "t0": ["r"], "t1": ["r"], "t2": ["r"],
            "t3": [f"x{i}" for i in range(10)] + ["r"],
        })
        report = evaluate_run(run, qrels)
        assert report.pct_no == 0.25

    def test_perfect_run_scores_one(self):
        qrels = Qrels({("t1", "r1"): 1, ("t1", "r2"): 1})
        run = make_run("perfect", {"t1": ["r1", "r2"]})
        assert evaluate_run(run, qrels).mean_ap == 1.0

    def test_qrels_topic_missing_from_run_scores_zero(self):
        qrels = Qrels({("t1", "r1"): 1, ("t2", "r2"): 1})
        run = make_run("partial", {"t1": ["r1"]})
        report = evaluate_run(run, qrels)
        assert report.topic_count == 2
        assert report.per_topic["t2"].ap == 0.0
        assert report.per_topic["t2"].no_rel_top10

    def test_run_topic_missing_from_qrels_is_error(self):
        qrels = Qrels({("t1", "r1"): 1})
        run = make_run("stray", {"t1": ["r1"], "t9": ["z"]})
        with pytest.raises(EvalError, match="t9"):
            evaluate_run(run, qrels)

    def test_zero_relevant_topic_excluded_with_warning(self):
        qrels = Qrels({("t1", "r1"): 1, ("t2", "x"): 0})
        run = make_run("r", {"t1": ["r1"], "t2": ["x"]})
        with pytest.warns(UserWarning, match="t2"):
            report = evaluate_run(run, qrels)
        assert report.topic_count == 1

    def test_graded_judgments_binarize(self):
        qrels = Qrels({("t1", "r1"): 2, ("t1", "r2"): 1, ("t1", "x"): 0})
        run = make_run("g", {"t1": ["r1", "r2", "x"]})
        assert evaluate_run(run, qrels).mean_ap == 1.0

    def test_metrics_depend_only_on_doc_order(self):
        qrels = Qrels({("t1", "r1"): 1, ("t1", "r2"): 1})
        by_order = make_run("a", {"t1": ["r1", "x", "r2"]})
        different_scores = run_from_ranked([
            RankedList("t1", [("r1", 9.0, 1), ("x", 3.0, 2), ("r2", 0.25, 3)]),
        ], "b")
        report_a = evaluate_run(by_order, qrels)
        report_b = evaluate_run(different_scores, qrels)
        assert report_a.per_topic["t1"] == report_b.per_topic["t1"]

    def test_appending_nonrelevant_below_ten_changes_nothing(self):
        qrels = Qrels({("t1", "r1"): 1, ("t1", "r2"): 1})
        short = make_run("s", {"t1": ["r1", "x1", "r2"] + [f"x{i}" for i in range(2, 9)]})
        longer = make_run("s", {
            "t1": ["r1", "x1", "r2"] + [f"x{i}" for i in range(2, 9)]
                  + [f"y{i}" for i in range(40)],
        })
        a = evaluate_run(short, qrels).per_topic["t1"]
        b = evaluate_run(longer, qrels).per_topic["t1"]
        assert (a.ap, a.p10, a.no_rel_top10) == (b.ap, b.p10, b.no_rel_top10)

    def test_deterministic(self):
        first = evaluate_run(FIXTURE_RUN, FIXTURE_QRELS)
        second = evaluate_run(FIXTURE_RUN, FIXTURE_QRELS)
        assert first == second


def delta_row(text):
    """The signed-delta row of a ``format_diff`` table, as (tag, floats)."""
    tag, _, *values = text.splitlines()[-1].split()
    return tag, [float(value.rstrip("%")) for value in values]


class TestDiff:
    def test_self_diff_is_zero(self):
        report = evaluate_run(FIXTURE_RUN, FIXTURE_QRELS)
        text = format_diff(report, report, "a", "b")
        assert text.splitlines()[-1].split() == [
            "b", "all", "+0.0000", "+0.0000", "+0.00%"]

    def test_known_fixture_deltas(self):
        qrels = Qrels({("t1", "r1"): 1, ("t2", "r2"): 1})
        run_a = make_run("a", {"t1": ["r1"], "t2": ["x", "r2"]})
        run_b = make_run("b", {"t1": ["x", "r1"], "t2": ["r2"]})
        report_a = evaluate_run(run_a, qrels)
        report_b = evaluate_run(run_b, qrels)
        # t1: 1.0 -> 0.5, t2: 0.5 -> 1.0; MAP unchanged
        assert delta_row(format_diff(report_a, report_b, "a", "b")) == (
            "b", [0.0, 0.0, 0.0])

    def test_antisymmetry(self):
        qrels = Qrels({("t1", "r1"): 1, ("t2", "r2"): 1})
        run_a = make_run("a", {"t1": ["r1"], "t2": ["x", "r2"]})
        run_b = make_run("b", {"t1": ["x", "r1"], "t2": ["r2"]})
        report_a = evaluate_run(run_a, qrels)
        report_b = evaluate_run(run_b, qrels)
        _, forward = delta_row(format_diff(report_a, report_b, "a", "b"))
        _, backward = delta_row(format_diff(report_b, report_a, "b", "a"))
        assert forward == [-value for value in backward]

    def test_topic_mismatch_rejected(self):
        report = evaluate_run(FIXTURE_RUN, FIXTURE_QRELS)
        other = evaluate_run(
            make_run("o", {"t1": ["a1"]}), Qrels({("t1", "a1"): 1}))
        with pytest.raises(EvalError, match=re.escape(
                "topic sets differ (only in a: ['t2', 't3'], "
                "only in b: [])")):
            format_diff(report, other, "a", "o")


class TestQrelsParsing:
    def test_comments_and_ignored_field(self):
        qrels = parse_qrels("# header\n301 0 doc-a 1\n301 Q0 doc-b 0 # tail\n")
        assert qrels.judgments == {("301", "doc-a"): 1, ("301", "doc-b"): 0}

    def test_relevant_docs_per_topic(self):
        qrels = parse_qrels("t1 0 a 1\nt2 0 a 0\nt1 0 b 2\nt1 0 c 0\n"
                            "t2 0 d 1\n")
        assert qrels.relevant_docs("t1") == {"a", "b"}
        assert qrels.relevant_docs("t2") == {"d"}
        assert qrels.relevant_docs("t3") == set()
        qrels.relevant_docs("t1").add("z")  # callers get their own copy
        assert qrels.relevant_docs("t1") == {"a", "b"}

    def test_duplicate_pair_rejected(self):
        with pytest.raises(RunFormatError, match="duplicate"):
            parse_qrels("t 0 x 1\nt 0 x 1\n")

    def test_negative_relevance_rejected(self):
        with pytest.raises(RunFormatError, match=">= 0"):
            parse_qrels("t 0 x -1\n")

    def test_field_count_enforced(self):
        with pytest.raises(RunFormatError, match="line 1"):
            parse_qrels("t 0 x\n")


_TOPICS = ("t1", "t2", "t10")
_DOCS = ("d1", "d2", "d3", "d4")
_SCORES = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@st.composite
def run_texts(draw):
    """Run text near a well-formed run: topics grouped or interleaved, then
    up to three lines broken in a way the parser checks (rank, score
    order, duplicate doc, topic, tag, unreadable number), then maybe a
    field dropped or added or a blank line put in.  Every score is
    finite."""
    pending = []
    for topic in draw(st.lists(st.sampled_from(_TOPICS), unique=True,
                               max_size=3)):
        docs = draw(st.lists(st.sampled_from(_DOCS), unique=True, min_size=1,
                             max_size=4))
        scores = sorted(draw(st.lists(_SCORES, min_size=len(docs),
                                      max_size=len(docs))), reverse=True)
        pending.append([[topic, "Q0", doc, str(rank), f"{score:.6f}", "run"]
                        for rank, (doc, score) in enumerate(zip(docs, scores),
                                                            start=1)])
    lines = []
    while pending:  # each topic's lines stay in rank order
        rows = pending[draw(st.integers(0, len(pending) - 1))]
        lines.append(rows.pop(0))
        pending = [rows for rows in pending if rows]
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        kind = draw(st.sampled_from(("rank", "score", "score", "doc", "doc",
                                     "topic", "tag")))
        if kind == "rank":
            fields[3] = draw(st.sampled_from(("0", "1", "2", "3", "5", "-1",
                                              "x", "2.0", "0_1", "１")))
        elif kind == "score":
            fields[4] = draw(st.sampled_from(("9", "9", "0.500000", "-0",
                                              "1e-3", "-2.5", "x", "0.4_0",
                                              "٠.5")))
        elif kind == "doc":
            fields[2] = draw(st.sampled_from(_DOCS))
        elif kind == "topic":
            fields[0] = draw(st.sampled_from(_TOPICS))
        else:
            fields[5] = "other"
    kind = draw(st.sampled_from(("none", "none", "none", "drop field",
                                 "add field", "blank")))
    if kind == "blank":
        lines.insert(draw(st.integers(0, len(lines))), [])
    elif lines and kind != "none":
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        if kind == "drop field":
            del fields[draw(st.integers(0, 5))]
        else:
            fields.append("extra")
    separator = draw(st.sampled_from((" ", "\t", "  ")))
    return "\n".join(separator.join(fields) for fields in lines)


# one-word text that a %-pattern or an f-string could misread, and
# non-ASCII; then text that may be empty or hold whitespace, such as U+00A0,
# or a line break to str.splitlines, such as U+2028 and \x1c
_WORD = st.text(st.sampled_from("a1_%{}\u00e9\u2603"), min_size=1,
                max_size=4)
_ANY_TEXT = st.text(st.sampled_from("a1_%{} \u00a0\u2028\x1c"), max_size=4)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300))
_NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def hand_built_runs(draw, faulty: bool):
    """A tag and, per topic, ``(doc_id, score, rank)`` entries as a
    hand-made run gives them to :func:`build`: one-word text, finite scores
    in any order, ranks by position, repeated doc ids, topics without
    entries and runs without topics.  With ``faulty``, three runs in four
    pick one kind of field, in which about one field in four breaks what
    construction checks: text that is empty or holds whitespace, a
    non-finite score, ranks that are not 1..n."""
    fault = draw(st.sampled_from((None, "text", "score", "rank"))
                 if faulty else st.none())
    text = st.one_of(_WORD, _WORD, _WORD, _ANY_TEXT) if fault == "text" \
        else _WORD
    score = st.one_of(_FINITE, _FINITE, _FINITE, _NON_FINITE) \
        if fault == "score" else _FINITE
    lists = {}
    for topic in draw(st.lists(text, unique=True, max_size=4)):
        n = draw(st.integers(0, 5))
        column = {"min_size": n, "max_size": n}
        doc_ids = draw(st.lists(text, **column))
        scores = draw(st.lists(score, **column))
        if draw(st.booleans()):
            scores.sort(reverse=True)
        ranks = range(1, n + 1)
        if fault == "rank" and draw(st.integers(0, 3)) == 0:
            ranks = draw(st.lists(st.integers(-5, 10**12), **column))
        lists[topic] = list(zip(doc_ids, scores, ranks))
    return draw(text), lists


def build(tag, lists) -> RunFile:
    return run_from_ranked([RankedList(topic, entries)
                            for topic, entries in lists.items()], tag)


def constructs(tag, lists) -> bool:
    """Whether :func:`build` accepts the run, as ``str.split`` sees it: the
    tag, topics and doc ids one word each, scores finite, ranks 1..n."""
    def one_word(text):
        return text.split() == [text]

    return one_word(tag) and all(
        one_word(topic) and all(
            one_word(doc_id) and math.isfinite(score) and rank == position
            for position, (doc_id, score, rank) in enumerate(entries, 1))
        for topic, entries in lists.items())


class TestRunFileParsing:
    def test_roundtrip(self):
        text = format_run(FIXTURE_RUN)
        parsed = parse_run(text)
        assert format_run(parsed) == text
        for entries in parsed.topics.values():
            assert type(entries) is RankedEntries
            assert entries.scores.dtype == np.float64
            assert not entries.scores.flags.writeable

    def test_format_is_byte_stable(self):
        run = run_from_ranked(
            [RankedList("t1", [("d1", 0.5, 1), ("d2", 0.25, 2)])], "tag")
        assert format_run(run) == (
            "t1 Q0 d1 1 0.500000 tag\n"
            "t1 Q0 d2 2 0.250000 tag\n"
        )

    def test_run_without_lines_formats_to_nothing(self):
        assert format_run(RunFile("t", {})) == ""
        empty = RankedList("t1", ())
        assert format_run(run_from_ranked([empty], "t")) == ""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(hand_built_runs(faulty=False))
    def test_format_run_matches_line_by_line_reference(self, drawn):
        """The same text as the per-line f-string formatter in
        ``tests/oracles.py``, whatever a built run holds."""
        run = build(*drawn)
        assert format_run(run) == reference_format_run(run)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(hand_built_runs(faulty=True))
    def test_built_runs_read_back(self, drawn):
        """A hand-made run constructs exactly when its fields are what a
        run file's lines can hold.  Then ``parse_run`` reads its text back
        exactly when it has a line and every topic's scores, as written to
        6 places, do not rise and its doc ids are distinct; and it reads
        back the same doc ids and those scores."""
        tag, lists = drawn
        if not constructs(tag, lists):
            with pytest.raises(RunFormatError):
                build(tag, lists)
            return
        text = format_run(build(tag, lists))
        doc_ids = {topic: tuple(doc_id for doc_id, _, _ in entries)
                   for topic, entries in lists.items() if entries}
        scores = {topic: [float(f"{score:.6f}") for _, score, _ in entries]
                  for topic, entries in lists.items() if entries}
        readable = bool(doc_ids) and all(
            len(set(doc_ids[topic])) == len(doc_ids[topic])
            and all(a >= b for a, b in zip(column, column[1:]))
            for topic, column in scores.items())
        if not readable:
            with pytest.raises(RunFormatError):
                parse_run(text)
            return
        run = parse_run(text)
        assert run.tag == tag
        assert {t: e.doc_ids for t, e in run.topics.items()} == doc_ids
        assert {t: e.scores.tolist() for t, e in run.topics.items()} == \
            scores

    @pytest.mark.parametrize("tag, topic, entries, message", [
        ("x", "1", [("a b", 0.5, 1)],
         "topic 1: doc id 'a b' is empty or contains whitespace"),
        ("x", "1", [("a", 0.5, 1), ("", 0.25, 2)],
         "topic 1: doc id '' is empty or contains whitespace"),
        ("x", "1", [("a\u00a0b", 0.5, 1)],
         "topic 1: doc id 'a\\xa0b' is empty or contains whitespace"),
        ("x", "1", [("a", math.nan, 1)],
         "topic 1: score nan at rank 1 is not finite"),
        ("x", "1", [("a", 0.5, 1), ("b", -math.inf, 2)],
         "topic 1: score -inf at rank 2 is not finite"),
        ("x", "1", [("a", 0.5, 5)],
         "topic 1: rank 5 out of order (expected 1)"),
        ("x", "1", [("a", 0.5, 2), ("b", 0.25, 1)],
         "topic 1: rank 2 out of order (expected 1)"),
        ("x", "1", [("a", 0.5, 1), ("b", 0.25, 3)],
         "topic 1: rank 3 out of order (expected 2)"),
        ("", "1", [("a", 0.5, 1)],
         "run tag '' is empty or contains whitespace"),
        ("x y", "1", [("a", 0.5, 1)],
         "run tag 'x y' is empty or contains whitespace"),
        ("x", "", [("a", 0.5, 1)],
         "topic '' is empty or contains whitespace"),
        ("x", "1 2", [],
         "topic '1 2' is empty or contains whitespace"),
    ])
    def test_construction_rejects_what_a_run_line_cannot_hold(
            self, tag, topic, entries, message):
        with pytest.raises(RunFormatError) as caught:
            run_from_ranked([RankedList(topic, entries)], tag)
        assert str(caught.value) == message
        assert caught.value.line is None

    def test_topics_sorted_in_output(self):
        run = run_from_ranked([
            RankedList(topic, [("d", 1.0, 1)]) for topic in ("t2", "t1", "t10")
        ], "tag")
        lines = format_run(run).splitlines()
        assert [line.split()[0] for line in lines] == ["t1", "t10", "t2"]

    @pytest.mark.parametrize("rank, score", [
        ("x", "0.5"), ("2.0", "0.5"), ("2", "high"),
        # float() reads these; nan would pass the score-order check
        ("2", "nan"), ("2", "NaN"), ("2", "inf"), ("2", "-inf"),
        ("2", "infinity"), ("2", "1e999"),
    ])
    def test_bad_rank_or_score_rejected(self, rank, score):
        line = f"t1 Q0 d2 {rank} {score} tag"
        text = f"t1 Q0 d1 1 1.0 tag\n{line}\nt1 Q0 d3 3 5.0 tag\n"
        with pytest.raises(RunFormatError) as caught:
            parse_run(text)
        assert str(caught.value) == f"line 2: bad rank or score in {line!r}"
        assert caught.value.line == 2

    def test_rank_gap_rejected(self):
        with pytest.raises(RunFormatError, match="rank"):
            parse_run("t1 Q0 d1 1 0.9 tag\nt1 Q0 d2 3 0.8 tag\n")

    def test_increasing_score_rejected(self):
        with pytest.raises(RunFormatError, match="score increases"):
            parse_run("t1 Q0 d1 1 0.5 tag\nt1 Q0 d2 2 0.8 tag\n")

    def test_duplicate_doc_rejected(self):
        with pytest.raises(RunFormatError, match="duplicate doc"):
            parse_run("t1 Q0 d1 1 0.9 tag\nt1 Q0 d1 2 0.8 tag\n")

    def test_duplicate_doc_is_per_topic_and_names_its_line(self):
        text = ("t1 Q0 d1 1 0.9 tag\nt2 Q0 d1 1 0.9 tag\n"
                "t1 Q0 d2 2 0.8 tag\nt1 Q0 d1 3 0.7 tag\n")
        with pytest.raises(RunFormatError) as caught:
            parse_run(text)
        assert str(caught.value) == "line 4: topic t1: duplicate doc d1"
        assert caught.value.line == 4

    def test_duplicate_doc_found_across_repeated_topic_switches(self):
        lines = ["t1 Q0 d1 1 0.9 tag", "t2 Q0 d1 1 0.9 tag",
                 "t1 Q0 d2 2 0.8 tag", "t2 Q0 d2 2 0.8 tag",
                 "t1 Q0 d3 3 0.7 tag", "t2 Q0 d3 3 0.7 tag"]
        assert parse_run("\n".join(lines)).topics["t2"].doc_ids == (
            "d1", "d2", "d3")
        with pytest.raises(RunFormatError,
                           match="^line 7: topic t2: duplicate doc d2$"):
            parse_run("\n".join(lines + ["t2 Q0 d2 4 0.6 tag"]))

    def test_conflicting_tags_rejected(self):
        with pytest.raises(RunFormatError, match="conflicting"):
            parse_run("t1 Q0 d1 1 0.9 one\nt1 Q0 d2 2 0.8 two\n")

    def test_empty_run_rejected(self):
        with pytest.raises(RunFormatError, match="empty"):
            parse_run("\n\n")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(run_texts())
    def test_parse_run_matches_row_wise_reference(self, text):
        """Same rows as ``(doc_id, score, rank)``, or the same error at the
        same line, as the row-wise parser in ``tests/oracles.py``."""
        try:
            tag, rows = reference_parse_run(text)
        except ReferenceRunError as error:
            with pytest.raises(RunFormatError) as caught:
                parse_run(text)
            assert (str(caught.value), caught.value.line) == \
                (str(error), error.line)
            return
        run = parse_run(text)
        assert run.tag == tag
        assert list(run.topics) == list(rows)
        for topic, entries in run.topics.items():
            assert type(entries) is RankedEntries
            assert list(entries) == [(doc_id, score, rank)
                                     for doc_id, rank, score in rows[topic]]

    def test_run_from_ranked_lists(self):
        lists = [
            RankedList("t1", (RankedEntry("d1", 0.9, 1),)),
            RankedList("t2", (RankedEntry("d2", 0.8, 1),)),
        ]
        run = run_from_ranked(lists, "mine")
        assert run.tag == "mine"
        assert run.topics["t1"].doc_ids == ("d1",)
        assert all(type(entries) is RankedEntries
                   for entries in run.topics.values())

    def test_run_from_ranked_duplicate_topic(self):
        lists = [
            RankedList("t1", (RankedEntry("d1", 0.9, 1),)),
            RankedList("t1", (RankedEntry("d2", 0.8, 1),)),
        ]
        with pytest.raises(EvalError, match="duplicate topic"):
            run_from_ranked(lists, "mine")


class TestReports:
    def test_plain_table(self):
        report = evaluate_run(FIXTURE_RUN, FIXTURE_QRELS)
        text = format_report(report, "fixture")
        lines = text.splitlines()
        assert lines[0].split() == ["Tag", "Topic", "Set", "MAP", "P10", "%no"]
        assert "fixture" in lines[1]
        assert "0.6414" in lines[1]  # (5/6 + 1/11 + 1)/3
        assert "33.33%" in lines[1]

    def test_diff_table_signs(self):
        qrels = Qrels({("t1", "r1"): 1})
        run_a = make_run("a", {"t1": ["r1"]})
        run_b = make_run("b", {"t1": ["x", "r1"]})
        report_a = evaluate_run(run_a, qrels)
        text = format_diff(report_a, evaluate_run(run_b, qrels), "a", "b")
        assert "-0.5000" in text
        assert "+0.0000" in text or "-0.1000" in text

    def test_jsonl_shape(self):
        report = evaluate_run(FIXTURE_RUN, FIXTURE_QRELS)
        lines = report_jsonl(report, "fixture").splitlines()
        assert len(lines) == 4  # three topics + aggregate
        import json
        aggregate = json.loads(lines[-1])
        assert aggregate["tag"] == "fixture"
        assert aggregate["topics"] == 3
        assert aggregate["map"] == pytest.approx((5 / 6 + 1 / 11 + 1) / 3)
