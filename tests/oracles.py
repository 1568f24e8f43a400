"""Independent straight-line reference implementations used as test oracles.

Everything in this module is deliberately written from scratch against the
documented behavior, sharing no code with the package under test: membership
curves use the min/clip formula instead of explicit branches, accumulation
uses ``math.fsum``, and the ranking pipeline below recomputes corpus
statistics directly from token counts.
"""

from __future__ import annotations

import math
import re
import struct
from collections import Counter, defaultdict

import numpy as np

STOPWORDS = frozenset(
    "a about an and are as at be but by for from has have in is it its "
    "not of on or that the this to was were will with".split()
)

_WORD_RE = re.compile(r"[a-z0-9]+", re.ASCII)


def reference_tokenize(text: str) -> list[str]:
    words = _WORD_RE.findall(text.lower())
    return [w for w in words if len(w) >= 2 and w not in STOPWORDS]


def reference_frix(docs: list[tuple[str, str]]) -> bytes:
    """FRIX1 bytes of ``(doc_id, text)`` pairs, built the straightforward
    way: a ``Counter`` per document, a list of (ordinal, tf) per token, and
    one array per token's postings."""
    u32 = struct.Struct("<I").pack
    headers = []
    occurrences: dict[str, list[int]] = defaultdict(list)
    for ordinal, (doc_id, text) in enumerate(docs):
        counts = Counter(reference_tokenize(text))
        raw = doc_id.encode("utf-8")
        headers.append(u32(len(raw)) + raw + u32(sum(counts.values()))
                       + u32(max(counts.values(), default=0)))
        for token, tf in counts.items():
            occurrences[token].extend((ordinal, tf))
    parts = [b"FRIX1\x01", u32(len(docs)), *headers, u32(len(occurrences))]
    for token in sorted(occurrences, key=lambda t: t.encode("utf-8")):
        raw = token.encode("utf-8")
        postings = occurrences[token]
        parts += (u32(len(raw)), raw, u32(len(postings) // 2),
                  np.array(postings, "<u4").tobytes())
    return b"".join(parts)


def tri(x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Triangular membership via the min-of-edges formula."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.minimum((x - a) / (b - a), (c - x) / (c - b))
    y = np.where(np.isnan(y), 1.0, y)  # 0/0 only happens at a collapsed peak
    return np.clip(y, 0.0, 1.0)


def trap(x: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.minimum((x - a) / (b - a), (d - x) / (d - c))
    y = np.where(np.isnan(y), 1.0, y)
    return np.clip(y, 0.0, 1.0)


def reference_sample(a: float, b: float, c: float, d: float,
                     xs: np.ndarray) -> np.ndarray:
    """Trapezoid (a, b, c, d) degrees by masked scatters: 0 everywhere, each
    edge's open interval written from its ramp, then 1 on [b, c].  A
    triangle is the trapezoid whose shoulders meet at its peak."""
    xs = np.asarray(xs, dtype=np.float64)
    y = np.zeros_like(xs)
    if a < b:
        rising = (xs > a) & (xs < b)
        y[rising] = (xs[rising] - a) / (b - a)
    if c < d:
        falling = (xs > c) & (xs < d)
        y[falling] = (d - xs[falling]) / (d - c)
    y[(xs >= b) & (xs <= c)] = 1.0
    return y


def centroid_of(grid: np.ndarray, mu: np.ndarray) -> float:
    return math.fsum(grid * mu) / math.fsum(mu)


def _clamp01(v: float) -> float:
    return min(max(float(v), 0.0), 1.0)


def reference_rfis_score(tf: list[float], idf: list[float], overlap: float,
                         resolution: int = 100_000) -> float:
    """Crisp relevance of the default ranking system, recomputed from scratch.

    Default system: one [0, 1] variable per feature with complementary
    high / not-high ramps, product AND, product implication, sum
    aggregation, centroid defuzzification.  Per term: a (tf and idf -> high)
    rule plus its negated twin, each weighted 1/t; one (overlap -> high)
    rule plus its negated twin, each weighted 1/(6t).

    For the default ramps the degree of "high" at v is v itself and the
    degree of "not high" is 1 - v, so fuzzification is written inline.
    """
    t = len(tf)
    assert len(idf) == t and t >= 1
    grid = np.linspace(0.0, 1.0, resolution)
    mu_high = tri(grid, 0.0, 1.0, 1.0)
    mu_not_high = 1.0 - mu_high
    term_weight = 1.0 / t
    overlap_weight = (1.0 / t) * (1.0 / 6.0)

    aggregate = np.zeros_like(grid)
    for f_raw, g_raw in zip(tf, idf):
        f = _clamp01(f_raw)
        g = _clamp01(g_raw)
        aggregate = aggregate + (f * g) * term_weight * mu_high
        aggregate = aggregate + ((1.0 - f) * (1.0 - g)) * term_weight * mu_not_high
    ov = _clamp01(overlap)
    aggregate = aggregate + ov * overlap_weight * mu_high
    aggregate = aggregate + (1.0 - ov) * overlap_weight * mu_not_high
    return centroid_of(grid, aggregate)


class ReferenceCorpus:
    """Corpus statistics recomputed directly from raw token counts."""

    def __init__(self, docs: list[tuple[str, str]]):
        self.doc_ids = [doc_id for doc_id, _ in docs]
        self.counts: dict[str, Counter] = {
            doc_id: Counter(reference_tokenize(text)) for doc_id, text in docs
        }
        self.lengths = {
            doc_id: sum(c.values()) for doc_id, c in self.counts.items()
        }
        self.n_docs = len(docs)

    def doc_freq(self, token: str) -> int:
        return sum(1 for c in self.counts.values() if token in c)

    def idf_raw(self, token: str) -> float:
        return math.log(self.n_docs / self.doc_freq(token))

    def idf_norm(self, token: str) -> float:
        n = self.doc_freq(token)
        if n == 0 or self.n_docs == 1:
            return 0.0
        return math.log(self.n_docs / n) / math.log(self.n_docs)

    def tf_norm(self, doc_id: str, token: str) -> float:
        counts = self.counts[doc_id]
        if not counts:
            return 0.0
        return counts.get(token, 0) / max(counts.values())


def _distinct(tokens: list[str]) -> list[str]:
    seen: list[str] = []
    for token in tokens:
        if token not in seen:
            seen.append(token)
    return seen


def reference_extract_features(index, query_tokens: list[str]
                               ) -> tuple[list[int], list[list[float]],
                                          list[float]]:
    """The candidates, tf matrix and overlap column of ``extract_features``,
    one token and one document at a time: the candidates are the documents
    some distinct token's postings name, read through ``index.postings``,
    and each is looked up in a dict of each token's postings."""
    terms = _distinct(query_tokens)
    candidates = sorted({ordinal for token in terms
                         for ordinal in index.postings(token)[0].tolist()})
    tf = []
    matched = [0] * len(candidates)
    for token in terms:
        ordinals, frequencies = index.postings(token)
        found = dict(zip(ordinals.tolist(), frequencies.tolist()))
        row = []
        for column, ordinal in enumerate(candidates):
            count = found.get(ordinal, 0)
            top = int(index.max_term_frequencies[ordinal])
            row.append(count / top if count and top else 0.0)
            matched[column] += count > 0
        tf.append(row)
    return candidates, tf, [m / len(terms) for m in matched]


def reference_rank_fis(corpus: ReferenceCorpus, query: str, k: int = 1000,
                       resolution: int = 1001) -> list[tuple[str, float]]:
    """Ranked (doc_id, score) list under the default ranking system."""
    terms = _distinct(reference_tokenize(query))
    assert terms
    candidates = [
        doc_id for doc_id in corpus.doc_ids
        if any(term in corpus.counts[doc_id] for term in terms)
    ]
    scored = []
    for doc_id in candidates:
        tf = [corpus.tf_norm(doc_id, term) for term in terms]
        idf = [
            corpus.idf_norm(term) if corpus.doc_freq(term) else 0.0
            for term in terms
        ]
        matched = sum(1 for term in terms if term in corpus.counts[doc_id])
        overlap = matched / len(terms)
        scored.append(
            (doc_id, reference_rfis_score(tf, idf, overlap, resolution))
        )
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def reference_rank_baseline(corpus: ReferenceCorpus, query: str,
                            k: int = 1000) -> list[tuple[str, float]]:
    """Ranked (doc_id, score) list under the tf-idf vector formula."""
    terms = _distinct(reference_tokenize(query))
    assert terms
    in_corpus = [t for t in terms if corpus.doc_freq(t) > 0]
    norm_sq = math.fsum(corpus.idf_raw(t) ** 2 for t in in_corpus)
    query_norm = 1.0 / math.sqrt(norm_sq) if norm_sq > 0 else 1.0
    candidates = [
        doc_id for doc_id in corpus.doc_ids
        if any(term in corpus.counts[doc_id] for term in terms)
    ]
    scored = []
    for doc_id in candidates:
        length_norm = (
            1.0 / math.sqrt(corpus.lengths[doc_id])
            if corpus.lengths[doc_id] else 0.0
        )
        total = 0.0
        matched = 0
        for term in in_corpus:
            if term in corpus.counts[doc_id]:
                matched += 1
                total += (
                    corpus.tf_norm(doc_id, term)
                    * corpus.idf_raw(term)
                    * 1.0  # boost
                    * length_norm
                )
        score = total * (matched / len(terms)) * query_norm
        scored.append((doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


class ReferenceRunError(Exception):
    """A run-file error as ``frank.errors.RunFormatError`` reports it: the
    message prefixed with ``line N: `` when the line is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def reference_parse_run(text: str) -> tuple[str, dict[str, list]]:
    """The run-file parser as it was written row by row: the tag and, per
    topic, its lines as ``(doc_id, rank, score)`` tuples.

    Lines are ``topic Q0 doc rank score tag``; ranks run 1, 2, ... per
    topic, scores do not rise, a topic names a doc once and every line
    carries the same tag.  Scores are taken as ``float`` reads them, so
    non-finite ones are not rejected here.
    """
    tag: str | None = None
    topics: dict[str, list[tuple[str, int, float]]] = {}
    current: str | None = None
    docs: set[str] = set()
    interleaved: dict[str, set[str]] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise ReferenceRunError(
                f"expected 'topic Q0 doc rank score tag', got "
                f"{len(fields)} fields", line=number,
            )
        topic, _, doc_id, rank_text, score_text, line_tag = fields
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise ReferenceRunError(f"bad rank or score in {line!r}",
                                    line=number)
        if tag is None:
            tag = line_tag
        elif tag != line_tag:
            raise ReferenceRunError(
                f"conflicting run tags {tag!r} and {line_tag!r}", line=number
            )
        entries = topics.setdefault(topic, [])
        if rank != len(entries) + 1:
            raise ReferenceRunError(
                f"topic {topic}: rank {rank} out of order (expected "
                f"{len(entries) + 1})", line=number,
            )
        if entries and score > entries[-1][2]:
            raise ReferenceRunError(
                f"topic {topic}: score increases at rank {rank}", line=number
            )
        if topic != current:
            current = topic
            docs = interleaved.get(topic) or {doc for doc, _, _ in entries}
            if entries:
                interleaved[topic] = docs
        if doc_id in docs:
            raise ReferenceRunError(
                f"topic {topic}: duplicate doc {doc_id}", line=number
            )
        docs.add(doc_id)
        entries.append((doc_id, rank, score))
    if tag is None:
        raise ReferenceRunError("empty run file")
    return tag, topics


def reference_format_run(run) -> str:
    """The run-file formatter as it was written line by line, one f-string
    per line, over a ``RunFile``'s ``tag`` and per-topic ``doc_ids`` and
    ``scores`` columns; ranks are positions from 1."""
    lines = []
    for topic, entries in sorted(run.topics.items()):
        for rank, (doc_id, score) in enumerate(
                zip(entries.doc_ids, entries.scores.tolist()), start=1):
            lines.append(f"{topic} Q0 {doc_id} {rank} {score:.6f} {run.tag}")
    return "\n".join(lines) + "\n" if lines else ""
