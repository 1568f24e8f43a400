"""Corpus ingestion, tokenization, and an immutable inverted index.

The index supplies the three features the rankers consume: per-document
normalized term frequency, corpus-level normalized inverse document
frequency, and query overlap.

Tokenization is fixed so every downstream number is reproducible:
lowercase, split on any non-alphanumeric ASCII character, drop tokens
shorter than 2 characters, remove the 30 stopwords below, no stemming.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import CorpusError, IndexFormatError, QueryError

#: The fixed stopword list (30 words).
STOPWORDS = frozenset((
    "a", "about", "an", "and", "are", "as", "at", "be", "but", "by",
    "for", "from", "has", "have", "in", "is", "it", "its", "not", "of",
    "on", "or", "that", "the", "this", "to", "was", "were", "will", "with",
))

_TOKEN_RE = re.compile(r"[a-z0-9]+", re.ASCII)

_ORDINAL = attrgetter("doc_ordinal")
_FREQUENCY = attrgetter("term_frequency")

_MAGIC = b"FRIX1"
_VERSION = 1


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class Posting:
    doc_ordinal: int
    term_frequency: int


@dataclass(frozen=True)
class DocEntry:
    doc_id: str
    token_count: int
    max_term_frequency: int


@dataclass(frozen=True)
class QueryFeatures:
    """Ranking features of one query's candidate documents, as columns.

    ``terms`` holds the distinct query tokens in first-occurrence order and
    ``idf`` their idf_norm.  Row i of ``tf`` holds tf_norm of ``terms[i]``
    for each of the ``candidates`` (doc ordinals, ascending), 0 where the
    document lacks the token.  ``matched_count`` and ``overlap`` are the
    number and fraction of distinct tokens each candidate contains.
    """

    terms: tuple[str, ...]
    idf: tuple[float, ...]
    candidates: np.ndarray
    tf: np.ndarray
    matched_count: np.ndarray
    overlap: np.ndarray


def tokenize(text: str) -> list[str]:
    """Split text into index tokens under the fixed policy above."""
    words = _TOKEN_RE.findall(text.lower())
    return [w for w in words if len(w) >= 2 and w not in STOPWORDS]


class InvertedIndex:
    """Immutable token -> postings map with per-document statistics.

    Built once by :func:`build_index`; afterwards it is a pure read
    structure, safe for concurrent readers without synchronization.
    """

    def __init__(self, term_table: dict[str, tuple[int, tuple[Posting, ...]]],
                 doc_table: tuple[DocEntry, ...]):
        self._term_table = term_table
        self._doc_table = doc_table
        self._ordinals = {entry.doc_id: i for i, entry in enumerate(doc_table)}

    @property
    def total_docs(self) -> int:
        return len(self._doc_table)

    @property
    def doc_table(self) -> tuple[DocEntry, ...]:
        return self._doc_table

    @property
    def terms(self) -> list[str]:
        return sorted(self._term_table)

    @property
    def total_tokens(self) -> int:
        return sum(entry.token_count for entry in self._doc_table)

    def doc_entry(self, doc_ordinal: int) -> DocEntry:
        return self._doc_table[doc_ordinal]

    def ordinal_of(self, doc_id: str) -> int:
        return self._ordinals[doc_id]

    def document_frequency(self, token: str) -> int:
        entry = self._term_table.get(token)
        return entry[0] if entry else 0

    def postings(self, token: str) -> tuple[Posting, ...]:
        entry = self._term_table.get(token)
        return entry[1] if entry else ()

    def posting_columns(self, token: str) -> tuple[np.ndarray, np.ndarray]:
        """A token's postings as two columns: doc ordinals (ascending) and
        term frequencies."""
        postings = self.postings(token)
        return (np.fromiter(map(_ORDINAL, postings), np.intp, len(postings)),
                np.fromiter(map(_FREQUENCY, postings), np.int64,
                            len(postings)))

    @cached_property
    def max_term_frequencies(self) -> np.ndarray:
        """Each document's max term frequency, by ordinal."""
        return np.fromiter((e.max_term_frequency for e in self._doc_table),
                           np.int64, len(self._doc_table))

    @cached_property
    def token_counts(self) -> np.ndarray:
        """Each document's token count, by ordinal."""
        return np.fromiter((e.token_count for e in self._doc_table),
                           np.int64, len(self._doc_table))

    @cached_property
    def doc_id_ranks(self) -> np.ndarray:
        """Each document's position in ascending doc_id order, by ordinal."""
        order = sorted(range(len(self._doc_table)),
                       key=lambda ordinal: self._doc_table[ordinal].doc_id)
        ranks = np.empty(len(order), np.intp)
        ranks[order] = np.arange(len(order))
        return ranks

    def term_frequency(self, doc_ordinal: int, token: str) -> int:
        for posting in self.postings(token):
            if posting.doc_ordinal == doc_ordinal:
                return posting.term_frequency
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return (self._term_table == other._term_table
                and self._doc_table == other._doc_table)

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Single-file binary form; terms are written sorted, so the bytes
        are a canonical function of the index contents."""
        out = bytearray()
        out += _MAGIC
        out += struct.pack("<B", _VERSION)
        out += struct.pack("<I", len(self._doc_table))
        for entry in self._doc_table:
            raw = entry.doc_id.encode("utf-8")
            out += struct.pack("<I", len(raw))
            out += raw
            out += struct.pack("<II", entry.token_count, entry.max_term_frequency)
        out += struct.pack("<I", len(self._term_table))
        for token in sorted(self._term_table):
            n, postings = self._term_table[token]
            raw = token.encode("utf-8")
            out += struct.pack("<I", len(raw))
            out += raw
            out += struct.pack("<I", n)
            for posting in postings:
                out += struct.pack("<II", posting.doc_ordinal,
                                   posting.term_frequency)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> InvertedIndex:
        view = memoryview(data)
        if bytes(view[:5]) != _MAGIC:
            raise IndexFormatError("not an index file (bad magic bytes)")
        version = view[5]
        if version != _VERSION:
            raise IndexFormatError(f"unsupported index version {version}")
        offset = 6

        def take(fmt: str):
            nonlocal offset
            size = struct.calcsize(fmt)
            if offset + size > len(view):
                raise IndexFormatError("truncated index file")
            values = struct.unpack_from(fmt, view, offset)
            offset += size
            return values

        def take_str() -> str:
            nonlocal offset
            (length,) = take("<I")
            if offset + length > len(view):
                raise IndexFormatError("truncated index file")
            raw = bytes(view[offset:offset + length])
            offset += length
            return raw.decode("utf-8")

        (n_docs,) = take("<I")
        doc_table = []
        for _ in range(n_docs):
            doc_id = take_str()
            token_count, max_tf = take("<II")
            doc_table.append(DocEntry(doc_id, token_count, max_tf))
        (n_terms,) = take("<I")
        term_table: dict[str, tuple[int, tuple[Posting, ...]]] = {}
        for _ in range(n_terms):
            token = take_str()
            (n,) = take("<I")
            postings = tuple(
                Posting(*take("<II")) for _ in range(n)
            )
            term_table[token] = (n, postings)
        if offset != len(view):
            raise IndexFormatError("trailing bytes after index data")
        return cls(term_table, tuple(doc_table))

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> InvertedIndex:
        return cls.from_bytes(Path(path).read_bytes())


def build_index(corpus: Iterable[Document]) -> InvertedIndex:
    """Build an index from a document stream.

    Deterministic given input order.  Documents whose tokenization is empty
    stay in the document table and count toward the corpus size.
    """
    doc_table: list[DocEntry] = []
    seen: set[str] = set()
    occurrences: dict[str, list[Posting]] = {}
    for document in corpus:
        if not document.doc_id:
            raise CorpusError("empty doc_id")
        if document.doc_id in seen:
            raise CorpusError(f"duplicate doc_id {document.doc_id!r}")
        seen.add(document.doc_id)
        ordinal = len(doc_table)
        counts = Counter(tokenize(document.text))
        max_tf = max(counts.values()) if counts else 0
        doc_table.append(
            DocEntry(document.doc_id, sum(counts.values()), max_tf)
        )
        for token, tf in counts.items():
            occurrences.setdefault(token, []).append(Posting(ordinal, tf))
    if not doc_table:
        raise CorpusError("empty corpus")
    term_table = {
        token: (len(postings), tuple(postings))
        for token, postings in occurrences.items()
    }
    return InvertedIndex(term_table, tuple(doc_table))


def idf_norm(index: InvertedIndex, token: str) -> float:
    """Normalized inverse document frequency, ln(N/n) / ln(N), in [0, 1].

    A token in a single document scores 1, a token in every document scores
    0.  Unknown tokens score 0 (they contribute no matched evidence), and a
    single-document corpus has no spread to normalize, also 0.
    """
    n = index.document_frequency(token)
    total = index.total_docs
    if n == 0 or total == 1:
        return 0.0
    return math.log(total / n) / math.log(total)


def idf_raw(index: InvertedIndex, token: str) -> float:
    """Unnormalized ln(N/n); 0.0 for unknown tokens."""
    n = index.document_frequency(token)
    if n == 0:
        return 0.0
    return math.log(index.total_docs / n)


def tf_norm(index: InvertedIndex, doc_ordinal: int, token: str) -> float:
    """Term frequency normalized by the document's max term frequency."""
    tf = index.term_frequency(doc_ordinal, token)
    if tf == 0:
        return 0.0
    return tf / index.doc_entry(doc_ordinal).max_term_frequency


def extract_features(index: InvertedIndex, query_tokens: list[str],
                     candidates: np.ndarray) -> QueryFeatures:
    """Ranking features of the candidate documents for the query tokens.

    ``candidates`` are doc ordinals in ascending order.  One pass over each
    distinct token's postings fills the tf matrix.  Distinct query tokens
    (first-occurrence order) set the overlap denominator; duplicates are
    collapsed.  A candidate whose term frequency exceeds its recorded
    maximum means the index is corrupt; a document with no tokens (maximum
    0) has tf_norm 0 for every token.
    """
    if not query_tokens:
        raise QueryError("no query tokens")
    distinct = list(dict.fromkeys(query_tokens))
    candidates = np.asarray(candidates, dtype=np.intp)
    counts = np.zeros((len(distinct), len(candidates)), dtype=np.int64)
    for row, token in zip(counts, distinct):
        ordinals, frequencies = index.posting_columns(token)
        columns = np.searchsorted(candidates, ordinals)
        hit = columns < len(candidates)
        hit[hit] = candidates[columns[hit]] == ordinals[hit]
        row[columns[hit]] = frequencies[hit]
    max_tf = index.max_term_frequencies[candidates]
    corrupt = (counts > max_tf).any(axis=0)
    if corrupt.any():
        entry = index.doc_entry(int(candidates[corrupt.argmax()]))
        raise IndexFormatError(
            f"corrupt index: document {entry.doc_id!r} has max term "
            f"frequency {entry.max_term_frequency}, inconsistent with its "
            f"postings"
        )
    matched = np.count_nonzero(counts, axis=0)
    return QueryFeatures(
        terms=tuple(distinct),
        idf=tuple(idf_norm(index, token) for token in distinct),
        candidates=candidates,
        tf=np.divide(counts, max_tf, out=np.zeros(counts.shape),
                     where=max_tf > 0),
        matched_count=matched,
        overlap=matched / len(distinct),
    )


def read_corpus_jsonl(path: str | Path) -> Iterator[Document]:
    """Stream documents from a JSON Lines file.

    Each line is an object with string fields ``doc_id`` and ``text``;
    unknown fields are ignored.  Malformed lines fail with their number.
    """
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"invalid JSON: {exc.msg}", line=number)
            if not isinstance(record, dict):
                raise CorpusError("line is not a JSON object", line=number)
            for field in ("doc_id", "text"):
                if not isinstance(record.get(field), str):
                    raise CorpusError(
                        f"missing or non-string field {field!r}", line=number
                    )
            yield Document(record["doc_id"], record["text"])
