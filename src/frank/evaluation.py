"""Retrieval evaluation: qrels and run files, AP / P@10 / %no, reports.

File formats follow the TREC exchange conventions.  Qrels lines are
``topic_id 0 doc_id relevance`` (the second field is ignored, ``#``
comments allowed).  Run lines are ``topic_id Q0 doc_id rank score tag``
with scores printed to exactly 6 decimal places and lines ordered by
(topic ascending, rank ascending).  A line ends at ``\\n``, ``\\r\\n`` or
``\\r``.

Relevance is binarized at judgment >= 1.  Topics present in the qrels but
with no relevant documents are excluded from averages, with a warning;
topics present in a run but absent from the qrels are an error.  Topics in
the qrels but absent from a run score 0 and stay in the averages.

Percentages in the plain-text report are rounded to 2 decimals with the
round-half-even behavior of Python float formatting.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

from .errors import (EvalError, RunFormatError, read_number, read_text,
                     split_lines)
from .index import one_word
from .ranker import RankedEntries, RankedList


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments keyed by (topic_id, doc_id)."""

    judgments: dict[tuple[str, str], int]

    def topics(self) -> list[str]:
        return sorted({topic for topic, _ in self.judgments})

    def relevant_docs(self, topic: str) -> set[str]:
        return set(self._relevant_by_topic.get(topic, ()))

    @cached_property
    def _relevant_by_topic(self) -> dict[str, set[str]]:
        relevant: dict[str, set[str]] = {}
        for (topic, doc), judgment in self.judgments.items():
            if judgment >= 1:
                relevant.setdefault(topic, set()).add(doc)
        return relevant


@dataclass(frozen=True)
class RunFile:
    """One system's ranked output: topic -> its ranked entries.

    The tag and every topic are one word each (see
    :func:`frank.index.one_word`), or :class:`RunFormatError` is raised.
    """

    tag: str
    topics: dict[str, RankedEntries]

    def __post_init__(self):
        if not one_word(self.tag):
            raise RunFormatError(
                f"run tag {self.tag!r} is empty or contains whitespace")
        for topic in self.topics:
            if not one_word(topic):
                raise RunFormatError(
                    f"topic {topic!r} is empty or contains whitespace")


@dataclass(frozen=True)
class TopicMetrics:
    ap: float
    p10: float
    no_rel_top10: bool


@dataclass(frozen=True)
class MetricsReport:
    per_topic: dict[str, TopicMetrics]
    mean_ap: float
    mean_p10: float
    pct_no: float

    @property
    def topic_count(self) -> int:
        return len(self.per_topic)


def parse_qrels(text: str) -> Qrels:
    judgments: dict[tuple[str, str], int] = {}
    for number, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise RunFormatError(
                f"expected 'topic 0 doc relevance', got {len(fields)} fields",
                line=number,
            )
        topic, _, doc_id, relevance_text = fields
        try:
            relevance = read_number(relevance_text, int)
        except ValueError:
            raise RunFormatError(
                f"relevance must be an integer, got {relevance_text!r}",
                line=number,
            )
        if relevance < 0:
            raise RunFormatError(
                f"relevance must be >= 0, got {relevance}", line=number
            )
        if (topic, doc_id) in judgments:
            raise RunFormatError(
                f"duplicate judgment for topic {topic} doc {doc_id}",
                line=number,
            )
        judgments[(topic, doc_id)] = relevance
    return Qrels(judgments)


def load_qrels(path: str | Path) -> Qrels:
    return parse_qrels(read_text(path, RunFormatError))


def parse_run(text: str) -> RunFile:
    # ranks and scores are plain ASCII: one test of the whole text spares
    # the check per field where no field can be anything else
    plain = text.isascii() and "_" not in text
    to_int, to_float = (int, float) if plain else (
        partial(read_number, kind=int), partial(read_number, kind=float))
    tag: str | None = None
    topics: dict[str, tuple[list[str], list[float]]] = {}
    # Doc ids of the current topic's lines, for the duplicate check.  Run
    # files group lines by topic, so one set at a time suffices; a topic
    # whose lines come back after another topic's keeps its set from then
    # on, so each line is still added to a set at most twice.
    current: str | None = None
    docs: set[str] = set()
    interleaved: dict[str, set[str]] = {}
    for number, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise RunFormatError(
                f"expected 'topic Q0 doc rank score tag', got "
                f"{len(fields)} fields", line=number,
            )
        topic, _, doc_id, rank_text, score_text, line_tag = fields
        try:
            rank = to_int(rank_text)
            score = to_float(score_text)
            if not math.isfinite(score):  # nan would pass the order check
                raise ValueError
        except ValueError:
            raise RunFormatError(f"bad rank or score in {line!r}", line=number)
        if tag is None:
            tag = line_tag
        elif tag != line_tag:
            raise RunFormatError(
                f"conflicting run tags {tag!r} and {line_tag!r}", line=number
            )
        if topic != current:
            current = topic
            doc_ids, scores = topics.setdefault(topic, ([], []))
            docs = interleaved.get(topic) or set(doc_ids)
            if doc_ids:
                interleaved[topic] = docs
        if rank != len(doc_ids) + 1:
            raise RunFormatError(
                f"topic {topic}: rank {rank} out of order (expected "
                f"{len(doc_ids) + 1})", line=number,
            )
        if doc_ids and score > scores[-1]:
            raise RunFormatError(
                f"topic {topic}: score increases at rank {rank}", line=number
            )
        if doc_id in docs:
            raise RunFormatError(
                f"topic {topic}: duplicate doc {doc_id}", line=number
            )
        docs.add(doc_id)
        doc_ids.append(doc_id)
        scores.append(score)
    if tag is None:
        raise RunFormatError("empty run file")
    return RunFile(tag, {
        topic: RankedEntries(doc_ids, scores)
        for topic, (doc_ids, scores) in topics.items()})


def load_run(path: str | Path) -> RunFile:
    return parse_run(read_text(path, RunFormatError))


def format_run(run: RunFile) -> str:
    """Canonical run-file bytes: topics ascending, ranks ascending; empty
    for a run without lines.

    Each topic is one ``%`` of its line pattern, repeated once per entry,
    over a flat list of (doc id, rank, score) fields; ranks are positions,
    1 to n."""
    tag = run.tag.replace("%", "%%")
    texts = []
    for topic, entries in sorted(run.topics.items()):
        fields = [None] * (3 * len(entries))
        fields[0::3] = entries.doc_ids
        fields[1::3] = range(1, len(entries) + 1)
        fields[2::3] = entries.scores.tolist()
        pattern = f"{topic.replace('%', '%%')} Q0 %s %s %.6f {tag}\n"
        texts.append(pattern * len(entries) % tuple(fields))
    return "".join(texts)


def run_from_ranked(ranked_lists: list[RankedList], tag: str) -> RunFile:
    topics: dict[str, RankedEntries] = {}
    for ranked in ranked_lists:
        if ranked.query_id in topics:
            raise EvalError(f"duplicate topic {ranked.query_id} in run")
        topics[ranked.query_id] = ranked.entries
    return RunFile(tag, topics)


def average_precision(doc_ids: Sequence[str], relevant: set[str]) -> float:
    """Mean of precision at each relevant retrieved rank, over all relevant.

    The denominator counts every relevant document in the judgments,
    retrieved or not; relevance is binary.
    """
    if not relevant:
        raise EvalError("average precision needs at least one relevant doc")
    hits = 0
    precision_sum = 0.0
    for rank, doc_id in enumerate(doc_ids, start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(relevant)


def precision_at_10(doc_ids: Sequence[str], relevant: set[str]) -> float:
    """Relevant fraction of the first 10 retrieved; the denominator stays
    10 even for shorter lists."""
    hits = sum(1 for doc_id in doc_ids[:10] if doc_id in relevant)
    return hits / 10.0


def evaluate_run(run: RunFile, qrels: Qrels) -> MetricsReport:
    """Score a run against qrels, per topic and averaged."""
    qrels_topics = set(qrels.topics())
    unknown = sorted(set(run.topics) - qrels_topics)
    if unknown:
        raise EvalError(
            f"run topic(s) absent from qrels: {', '.join(unknown)}"
        )
    per_topic: dict[str, TopicMetrics] = {}
    skipped = []
    for topic in sorted(qrels_topics):
        relevant = qrels.relevant_docs(topic)
        if not relevant:
            skipped.append(topic)
            continue
        ranked = run.topics[topic].doc_ids if topic in run.topics else ()
        per_topic[topic] = TopicMetrics(
            ap=average_precision(ranked, relevant),
            p10=precision_at_10(ranked, relevant),
            no_rel_top10=not any(doc in relevant for doc in ranked[:10]),
        )
    if skipped:
        warnings.warn(
            f"topic(s) with no relevant documents excluded from averages: "
            f"{', '.join(skipped)}",
            stacklevel=2,
        )
    if not per_topic:
        raise EvalError("no topics with relevant documents to evaluate")
    count = len(per_topic)
    return MetricsReport(
        per_topic=per_topic,
        mean_ap=sum(m.ap for m in per_topic.values()) / count,
        mean_p10=sum(m.p10 for m in per_topic.values()) / count,
        pct_no=sum(m.no_rel_top10 for m in per_topic.values()) / count,
    )


_HEADER = f"{'Tag':<16} {'Topic Set':<10} {'MAP':>8} {'P10':>8} {'%no':>8}"


def format_report(report: MetricsReport, tag: str) -> str:
    """Aligned plain-text table with one aggregate row."""
    row = (
        f"{tag:<16} {'all':<10} {report.mean_ap:>8.4f} "
        f"{report.mean_p10:>8.4f} {report.pct_no * 100:>7.2f}%"
    )
    return f"{_HEADER}\n{row}\n"


def format_diff(report_a: MetricsReport, report_b: MetricsReport,
                tag_a: str, tag_b: str) -> str:
    """The report of ``report_a``, then a row of signed deltas (b minus a)
    of the aggregate metrics; both reports must cover the same topics."""
    only_a = sorted(set(report_a.per_topic) - set(report_b.per_topic))
    only_b = sorted(set(report_b.per_topic) - set(report_a.per_topic))
    if only_a or only_b:
        raise EvalError(
            f"topic sets differ (only in a: {only_a}, only in b: {only_b})"
        )
    delta = (
        f"{tag_b:<16} {'all':<10} "
        f"{report_b.mean_ap - report_a.mean_ap:>+8.4f} "
        f"{report_b.mean_p10 - report_a.mean_p10:>+8.4f} "
        f"{(report_b.pct_no - report_a.pct_no) * 100:>+7.2f}%"
    )
    return f"{format_report(report_a, tag_a)}{delta}\n"


def report_jsonl(report: MetricsReport, tag: str) -> str:
    """Machine-readable report: one line per topic plus an aggregate line."""
    lines = []
    for topic in sorted(report.per_topic):
        metrics = report.per_topic[topic]
        lines.append(json.dumps({
            "topic": topic,
            "ap": metrics.ap,
            "p10": metrics.p10,
            "no_rel_top10": metrics.no_rel_top10,
        }))
    lines.append(json.dumps({
        "tag": tag,
        "topic_set": "all",
        "topics": report.topic_count,
        "map": report.mean_ap,
        "p10": report.mean_p10,
        "pct_no": report.pct_no,
    }))
    return "\n".join(lines) + "\n"
