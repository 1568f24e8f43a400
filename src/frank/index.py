"""Corpus ingestion, tokenization, and an immutable inverted index.

The index supplies the three features the rankers consume: per-document
normalized term frequency, corpus-level normalized inverse document
frequency, and query overlap.

Tokenization is fixed so every downstream number is reproducible:
lowercase, split on any non-alphanumeric ASCII character, drop tokens
shorter than 2 characters, remove the 30 stopwords below, no stemming.

An :class:`InvertedIndex` is its FRIX1 bytes, all integers little-endian
uint32 and strings length-prefixed UTF-8::

    b"FRIX1" 1 N (doc_id token_count max_tf)*N T (token df (ordinal tf)*df)*T

Tokens ascend, and so do each token's doc ordinals: the bytes are a
canonical function of the contents.  The one constructor checks the bytes
once (see :class:`InvertedIndex`) and decodes their headers into a token ->
(df, offset) table, the doc ids and per-document arrays; a token's postings
are read-only ``np.frombuffer`` views of the bytes, never copies.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
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

_MAGIC = b"FRIX1"
_VERSION = 1
_U32 = np.dtype("<u4")
_UINT = struct.Struct("<I")
_PAIR = struct.Struct("<II")
_NO_POSTINGS = np.frombuffer(b"", _U32)
_TRUNCATED = "truncated index file"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class QueryFeatures:
    """Ranking features of one query's candidate documents, as columns.

    ``terms`` holds the distinct query tokens in first-occurrence order and
    ``idf`` their idf_norm.  Row i of ``tf`` holds tf_norm of ``terms[i]``
    for each of the ``candidates`` (doc ordinals, ascending), 0 where the
    document lacks the token.  ``overlap`` holds, per candidate, the number
    of distinct tokens it contains divided by ``len(terms)``.
    """

    terms: tuple[str, ...]
    idf: tuple[float, ...]
    candidates: np.ndarray
    tf: np.ndarray
    overlap: np.ndarray


def tokenize(text: str) -> list[str]:
    """Split text into index tokens under the fixed policy above."""
    words = _TOKEN_RE.findall(text.lower())
    return [w for w in words if len(w) >= 2 and w not in STOPWORDS]


def _u32(data: bytes, offset: int) -> tuple[int, int]:
    """The uint32 at ``offset`` and the offset after it."""
    if offset + 4 > len(data):
        raise IndexFormatError(_TRUNCATED)
    return _UINT.unpack_from(data, offset)[0], offset + 4


def _string(data: bytes, offset: int, what: str,
            trailer: int) -> tuple[bytes, str, int]:
    """The length-prefixed string at ``offset``, raw and decoded, and the
    offset after it; ``trailer`` more bytes must follow it."""
    length, start = _u32(data, offset)
    stop = start + length
    if stop + trailer > len(data):
        raise IndexFormatError(_TRUNCATED)
    raw = data[start:stop]
    try:
        return raw, raw.decode("utf-8"), stop
    except UnicodeDecodeError:
        raise IndexFormatError(
            f"corrupt index: {what} at byte {start} is not valid UTF-8"
        ) from None


class InvertedIndex:
    """Immutable token -> postings map with per-document statistics.

    Built by :func:`build_index` or loaded from FRIX1 bytes, then a pure
    read structure, safe for concurrent readers.  Per-document statistics
    are ``doc_ids`` and the read-only arrays ``token_counts``,
    ``max_term_frequencies`` and ``doc_id_ranks``, by doc ordinal.
    Construction raises :class:`IndexFormatError` unless every count and
    length fits the bytes with none left over, doc ids and tokens are
    UTF-8, doc ids unique, tokens strictly ascending, each df and tf >= 1,
    each token's doc ordinals < N and strictly ascending, and each
    document's max term frequency the maximum over its postings.
    """

    def __init__(self, data: bytes):
        if data[:5] != _MAGIC:
            raise IndexFormatError("not an index file (bad magic bytes)")
        if len(data) > 5 and data[5] != _VERSION:
            raise IndexFormatError(f"unsupported index version {data[5]}")
        n_docs, offset = _u32(data, 6)
        # a document takes at least 12 bytes and a token 8, so no count
        # that passes these checks can size a large allocation
        if n_docs > (len(data) - offset) // 12:
            raise IndexFormatError(_TRUNCATED)
        ordinals: dict[str, int] = {}
        stats = bytearray()
        for ordinal in range(n_docs):
            _, doc_id, offset = _string(data, offset, "doc id", 8)
            if ordinals.setdefault(doc_id, ordinal) != ordinal:
                raise IndexFormatError(
                    f"corrupt index: duplicate doc id {doc_id!r}")
            stats += data[offset:offset + 8]
            offset += 8
        n_terms, offset = _u32(data, offset)
        if n_terms > (len(data) - offset) // 8:
            raise IndexFormatError(_TRUNCATED)
        terms: dict[str, tuple[int, int]] = {}
        previous = None
        for _ in range(n_terms):
            raw, token, offset = _string(data, offset, "token", 4)
            if previous is not None and raw <= previous:
                raise IndexFormatError(
                    f"corrupt index: token {token!r} is "
                    f"{'a duplicate' if raw == previous else 'out of order'}")
            previous = raw
            df, offset = _u32(data, offset)
            if df == 0:
                raise IndexFormatError(
                    f"corrupt index: token {token!r} has no postings")
            if offset + 8 * df > len(data):
                raise IndexFormatError(_TRUNCATED)
            terms[token] = (df, offset)
            offset += 8 * df
        if offset != len(data):
            raise IndexFormatError("trailing bytes after index data")

        per_doc = np.frombuffer(bytes(stats), _U32).reshape(n_docs, 2)
        self._data = data
        self._terms = terms
        self._ordinals = ordinals
        self.doc_ids: tuple[str, ...] = tuple(ordinals)
        #: Each document's token count and max term frequency, by ordinal.
        self.token_counts = per_doc[:, 0]
        self.max_term_frequencies = per_doc[:, 1]
        #: Each document's position in ascending doc_id order, by ordinal.
        order = sorted(range(n_docs), key=self.doc_ids.__getitem__)
        self.doc_id_ranks = np.empty(n_docs, np.intp)
        self.doc_id_ranks[order] = np.arange(n_docs)
        self.doc_id_ranks.flags.writeable = False
        self._check_postings()

    def _check_postings(self) -> None:
        """Check every posting against N, its token's order and its
        document's recorded max term frequency, all tokens at once."""
        data = self._data
        ordinal, tf = np.frombuffer(
            b"".join(data[at:at + 8 * df] for df, at in self._terms.values()),
            _U32).reshape(-1, 2).astype(np.int64).T
        ends = np.cumsum([df for df, _ in self._terms.values()], dtype=np.intp)

        def fail(position: int, problem: str):
            token = list(self._terms)[np.searchsorted(ends, position, "right")]
            raise IndexFormatError(f"corrupt index: token {token!r} {problem}")

        if (bad := np.flatnonzero(ordinal >= self.total_docs)).size:
            fail(bad[0], f"has a posting for doc ordinal {ordinal[bad[0]]} "
                         f"of an index of {self.total_docs} documents")
        if (bad := np.flatnonzero(tf == 0)).size:
            fail(bad[0], "has a posting with term frequency 0")
        steps = np.diff(ordinal)
        steps[ends[:-1] - 1] = 1  # a token's first posting may go anywhere
        if (bad := np.flatnonzero(steps <= 0)).size:
            fail(bad[0] + 1, "has postings out of doc ordinal order")
        observed = np.zeros(self.total_docs, np.int64)
        np.maximum.at(observed, ordinal, tf)
        if (bad := np.flatnonzero(observed != self.max_term_frequencies)).size:
            raise IndexFormatError(
                f"corrupt index: document {self.doc_ids[bad[0]]!r} has max "
                f"term frequency {self.max_term_frequencies[bad[0]]}, "
                f"inconsistent with its postings")

    @property
    def total_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def terms(self) -> list[str]:
        return list(self._terms)

    @property
    def total_tokens(self) -> int:
        return int(self.token_counts.sum())

    def ordinal_of(self, doc_id: str) -> int:
        return self._ordinals[doc_id]

    def document_frequency(self, token: str) -> int:
        entry = self._terms.get(token)
        return entry[0] if entry else 0

    def postings(self, token: str) -> tuple[np.ndarray, np.ndarray]:
        """A token's doc ordinals (ascending) and term frequencies, as
        read-only uint32 views of the index bytes; empty if unknown."""
        entry = self._terms.get(token)
        if entry is None:
            return _NO_POSTINGS, _NO_POSTINGS
        df, offset = entry
        pairs = np.frombuffer(self._data, _U32, 2 * df, offset).reshape(df, 2)
        return pairs[:, 0], pairs[:, 1]

    def term_frequency(self, doc_ordinal: int, token: str) -> int:
        ordinals, frequencies = self.postings(token)
        i = int(np.searchsorted(ordinals, doc_ordinal))
        if i < len(ordinals) and ordinals[i] == doc_ordinal:
            return int(frequencies[i])
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return self._data == other._data

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The FRIX1 bytes the index was built from or loaded from."""
        return self._data

    @classmethod
    def from_bytes(cls, data: bytes) -> InvertedIndex:
        return cls(bytes(data))

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> InvertedIndex:
        return cls.from_bytes(Path(path).read_bytes())


def build_index(corpus: Iterable[Document]) -> InvertedIndex:
    """Build an index from a document stream.

    Deterministic given input order.  Doc ids are unique, non-empty and
    free of whitespace (run files split their fields on it).  Documents
    whose tokenization is empty stay in the document table and count
    toward the corpus size.
    """
    docs: list[bytes] = []
    seen: set[str] = set()
    occurrences: dict[str, list[int]] = defaultdict(list)  # ordinal, tf, ...
    for document in corpus:
        if not document.doc_id or any(map(str.isspace, document.doc_id)):
            raise CorpusError(f"doc_id {document.doc_id!r} is empty or "
                              "contains whitespace")
        if document.doc_id in seen:
            raise CorpusError(f"duplicate doc_id {document.doc_id!r}")
        seen.add(document.doc_id)
        ordinal = len(docs)
        counts = Counter(tokenize(document.text))
        try:
            raw = document.doc_id.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(
                f"doc_id {document.doc_id!r} is not valid Unicode") from None
        docs.append(_UINT.pack(len(raw)) + raw + _PAIR.pack(
            sum(counts.values()), max(counts.values(), default=0)))
        for token, tf in counts.items():
            occurrences[token].extend((ordinal, tf))
    if not docs:
        raise CorpusError("empty corpus")
    parts = [_MAGIC, bytes((_VERSION,)), _UINT.pack(len(docs)), *docs,
             _UINT.pack(len(occurrences))]
    for token in sorted(occurrences):
        raw = token.encode("utf-8")
        postings = occurrences[token]
        parts += (_UINT.pack(len(raw)), raw, _UINT.pack(len(postings) // 2),
                  np.array(postings, _U32).tobytes())
    return InvertedIndex(b"".join(parts))


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
    return tf / int(index.max_term_frequencies[doc_ordinal])


def extract_features(index: InvertedIndex, query_tokens: list[str],
                     candidates: np.ndarray) -> QueryFeatures:
    """Ranking features of the candidate documents for the query tokens.

    ``candidates`` are doc ordinals in ascending order.  One pass over each
    distinct token's postings fills the tf matrix.  Distinct query tokens
    (first-occurrence order) set the overlap denominator; duplicates are
    collapsed.  A document with no tokens (maximum 0) has tf_norm 0 for
    every token.
    """
    if not query_tokens:
        raise QueryError("no query tokens")
    distinct = list(dict.fromkeys(query_tokens))
    candidates = np.asarray(candidates, dtype=np.intp)
    counts = np.zeros((len(distinct), len(candidates)), dtype=np.int64)
    for row, token in zip(counts, distinct):
        ordinals, frequencies = index.postings(token)
        columns = np.searchsorted(candidates, ordinals)
        hit = columns < len(candidates)
        hit[hit] = candidates[columns[hit]] == ordinals[hit]
        row[columns[hit]] = frequencies[hit]
    max_tf = index.max_term_frequencies[candidates]
    return QueryFeatures(
        terms=tuple(distinct),
        idf=tuple(idf_norm(index, token) for token in distinct),
        candidates=candidates,
        tf=np.divide(counts, max_tf, out=np.zeros(counts.shape),
                     where=max_tf > 0),
        overlap=np.count_nonzero(counts, axis=0) / len(distinct),
    )


def read_corpus_jsonl(path: str | Path) -> Iterator[Document]:
    """Stream documents from a JSON Lines file.

    Each line is an object with string fields ``doc_id`` and ``text``;
    unknown fields are ignored.  Lines end at ``\\n``.  Malformed lines,
    invalid UTF-8 included, fail with their number.
    """
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"invalid UTF-8 at byte {exc.start}",
                                  line=number)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
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
