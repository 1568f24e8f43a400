"""Corpus ingestion, tokenization, and an immutable inverted index.

The index supplies the three features the rankers consume: per-document
normalized term frequency, corpus-level normalized inverse document
frequency, and query overlap.

Tokenization is fixed so every downstream number is reproducible:
lowercase, split on any non-alphanumeric ASCII character, drop tokens
shorter than 2 characters, remove the 30 stopwords below, no stemming.
Queries and the build share one byte-level tokenizer: the lowercased
text's UTF-8 bytes, every byte but ``0-9a-z`` translated to a space, split
on the spaces.  It keeps the stopwords and one-character words, which the
build drops as the first ids of its vocabulary and queries by set lookup.

An :class:`InvertedIndex` is its FRIX1 bytes, all integers little-endian
uint32 and strings length-prefixed UTF-8::

    b"FRIX1" 1 N (doc_id token_count max_tf)*N T (token df (ordinal tf)*df)*T

Tokens ascend, and so do each token's doc ordinals: the bytes are a
canonical function of the contents.  :func:`build_index` writes them by
sorting every (token, document) occurrence at once, not by growing a list
per token.  The one constructor checks the bytes once (see
:class:`InvertedIndex`): one sequential pass per table over the length
prefixes finds and decodes every doc id and token, which are then checked
in bulk, into a token -> (df, offset) table, the doc ids and per-document
arrays gathered from the bytes in one step.  A token's postings are read-only
``np.frombuffer`` views of the bytes, never copies.
"""

from __future__ import annotations

import io
import json
import math
import operator
import re
import struct
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, count
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CorpusError, IndexFormatError, QueryError

#: The fixed stopword list (30 words).
STOPWORDS = frozenset((
    "a", "about", "an", "and", "are", "as", "at", "be", "but", "by",
    "for", "from", "has", "have", "in", "is", "it", "its", "not", "of",
    "on", "or", "that", "the", "this", "to", "was", "were", "will", "with",
))

_WORD_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz"
#: every byte but a word byte to a space, for ``bytes.split``
_TABLE = bytes(c if c in _WORD_BYTES else 32 for c in range(256))
#: the words that are never tokens: the stopwords and every one-character
#: word ("a" is both)
_DROPPED = frozenset([*(word.encode() for word in STOPWORDS),
                      *(bytes((c,)) for c in _WORD_BYTES)])
#: whitespace as ``str.isspace`` has it, which a doc id may not contain
_SPACE = re.compile(r"\s")


def one_word(text: str) -> bool:
    """Whether ``text`` is non-empty and free of whitespace: what a run
    file's doc id, topic or tag must be, as ``parse_run`` splits its lines
    on whitespace."""
    return bool(text) and not _SPACE.search(text)


_MAGIC = b"FRIX1"
_VERSION = 1
_U32 = np.dtype("<u4")
_UINT = struct.Struct("<I")
_PAIR = struct.Struct("<II")
_NO_POSTINGS = np.frombuffer(b"", _U32).reshape(0, 2)
_TRUNCATED = "truncated index file"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    #: the corpus line the document came from, for error messages
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class QueryFeatures:
    """Ranking features of one query's candidate documents, as columns.

    ``terms`` holds the distinct query tokens in first-occurrence order and
    ``idf`` their idf_norm.  ``candidates`` are the ordinals of the
    documents holding at least one of the terms, ascending.  Row i of
    ``tf`` holds the term frequency of ``terms[i]`` in each candidate
    divided by that document's max term frequency, 0 where the document
    lacks the token.  ``overlap`` holds, per candidate, the number of
    distinct tokens it contains divided by ``len(terms)``.
    """

    terms: tuple[str, ...]
    idf: tuple[float, ...]
    candidates: np.ndarray
    tf: np.ndarray
    overlap: np.ndarray


def _words(text: str) -> list[bytes]:
    """Every maximal run of ASCII letters and digits in the lowercased text,
    as bytes: the index tokens, plus the dropped words among them."""
    # lone surrogates pass through as bytes >= 0x80, which become spaces
    return text.lower().encode("utf-8", "surrogatepass").translate(
        _TABLE).split()


def tokenize(text: str) -> list[str]:
    """Split text into index tokens under the fixed policy above."""
    return [w.decode() for w in _words(text) if w not in _DROPPED]


def _u32(data: bytes, offset: int) -> tuple[int, int]:
    """The uint32 at ``offset`` and the offset after it."""
    if offset + 4 > len(data):
        raise IndexFormatError(_TRUNCATED)
    return _UINT.unpack_from(data, offset)[0], offset + 4


def _scan(data: bytes, offset: int, records: int, postings: bool
          ) -> tuple[list[str], np.ndarray, np.ndarray, int, str | None]:
    """One pass over ``records`` records from ``offset`` on, each a
    length-prefixed UTF-8 string followed by a document's 8 bytes of
    statistics or, with ``postings``, by a token's df and its df postings
    of 8 bytes.

    Returns the strings, decoded as they are found, where each starts and
    stops, the offset after the last record and the fault that stopped the
    pass, if any: a string that is not UTF-8, or bytes that ran out.  A
    token whose postings run out is still returned, so that its own checks
    come before the truncation, as they do in byte order.
    """
    unpack = _UINT.unpack_from
    size = len(data)
    trailer = 4 if postings else 8
    strings: list[str] = []
    starts = array("q")
    fault: str | None = _TRUNCATED
    for _ in range(records):
        start = offset + 4
        if start > size:
            break
        stop = start + unpack(data, offset)[0]
        offset = stop + trailer
        if offset > size:
            break
        try:
            strings.append(data[start:stop].decode("utf-8"))
        except UnicodeDecodeError:
            what = "token" if postings else "doc id"
            fault = (f"corrupt index: {what} at byte {start} is not valid "
                     "UTF-8")
            break
        starts.append(start)
        if postings:
            offset += 8 * unpack(data, offset - 4)[0]
            if offset > size:
                break
    else:
        fault = None
    begin = np.frombuffer(starts, np.int64)
    return (strings, begin, begin + _gather(data, begin - 4, 4)[:, 0],
            offset, fault)


def _gather(data: bytes, positions: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes at each of ``positions``, as rows of uint32."""
    return sliding_window_view(np.frombuffer(data, np.uint8), width)[
        positions].view(_U32)


def _first_malformed(doc_ids: list[str], starts: np.ndarray,
                     stops: np.ndarray) -> int:
    """The position of the first of ``doc_ids``, decoded from ``starts`` to
    ``stops``, that is empty or contains whitespace; ``len(doc_ids)`` if
    none is."""
    empty = np.flatnonzero(starts == stops)
    first = int(empty[0]) if empty.size else len(doc_ids)
    space = _SPACE.search("".join(doc_ids))
    if space:
        ends = np.cumsum(list(map(len, doc_ids)))  # in characters
        first = min(first, int(np.searchsorted(ends, space.start(), "right")))
    return first


class InvertedIndex:
    """Immutable token -> postings map with per-document statistics.

    Built by :func:`build_index` or loaded from FRIX1 bytes, then a pure
    read structure, safe for concurrent readers.  Per-document statistics
    are ``doc_ids`` and the read-only arrays ``token_counts``,
    ``max_term_frequencies``, ``doc_id_ranks`` and ``doc_id_array`` (the
    doc ids as objects), by doc ordinal.
    Construction raises :class:`IndexFormatError` unless every count and
    length fits the bytes with none left over, doc ids and tokens are
    UTF-8, doc ids non-empty, free of whitespace and unique, tokens
    strictly ascending, each df and tf >= 1, each token's doc ordinals < N
    and strictly ascending, and each document's token count the sum of its
    postings' term frequencies and its max term frequency their maximum.
    Where the bytes break several of these, the first break in byte order
    is the one reported.
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
        doc_ids, starts, stops, offset, fault = _scan(data, offset, n_docs,
                                                      False)
        ordinals = dict(zip(doc_ids, range(n_docs)))
        malformed = _first_malformed(doc_ids, starts, stops)
        if len(ordinals) < len(doc_ids):
            seen: set[str] = set()
            duplicate = next((doc_id for doc_id in doc_ids[:malformed]
                              if doc_id in seen or seen.add(doc_id)), None)
            if duplicate is not None:
                raise IndexFormatError(
                    f"corrupt index: duplicate doc id {duplicate!r}")
        if malformed < len(doc_ids):
            raise IndexFormatError(
                f"corrupt index: doc id at byte {starts[malformed]} is empty "
                f"or contains whitespace")
        if fault:
            raise IndexFormatError(fault)
        per_doc = _gather(data, stops, 8)

        n_terms, offset = _u32(data, offset)
        if n_terms > (len(data) - offset) // 8:
            raise IndexFormatError(_TRUNCATED)
        tokens, starts, stops, offset, fault = _scan(data, offset, n_terms,
                                                     True)
        dfs = _gather(data, stops, 4)[:, 0]
        # UTF-8 keeps code point order, so the strings compare as the bytes
        unordered = next(compress(count(1), map(
            operator.ge, tokens, tokens[1:])), len(tokens))
        empty = np.flatnonzero(dfs == 0)
        first = min(unordered, empty[0] if empty.size else len(tokens))
        if first < len(tokens):
            token = tokens[first]
            if first == unordered:
                problem = ("a duplicate" if token == tokens[first - 1]
                           else "out of order")
                raise IndexFormatError(
                    f"corrupt index: token {token!r} is {problem}")
            raise IndexFormatError(
                f"corrupt index: token {token!r} has no postings")
        if fault:
            raise IndexFormatError(fault)
        if offset != len(data):
            raise IndexFormatError("trailing bytes after index data")

        per_doc.flags.writeable = False
        self._data = data
        self._terms: dict[str, tuple[int, int]] = dict(zip(
            tokens, zip(dfs.tolist(), (stops + 4).tolist())))
        self._ordinals = ordinals
        self.doc_ids: tuple[str, ...] = tuple(doc_ids)
        #: Each document's token count and max term frequency, by ordinal.
        self.token_counts = per_doc[:, 0]
        self.max_term_frequencies = per_doc[:, 1]
        #: Each document's position in ascending doc_id order, by ordinal.
        order = sorted(range(n_docs), key=self.doc_ids.__getitem__)
        self.doc_id_ranks = np.empty(n_docs, np.intp)
        self.doc_id_ranks[order] = np.arange(n_docs)
        self.doc_id_ranks.flags.writeable = False
        #: ``doc_ids`` as an object array, to gather many with one index.
        self.doc_id_array = np.array(self.doc_ids, dtype=object)
        self.doc_id_array.flags.writeable = False
        self._check_postings()

    def _check_postings(self) -> None:
        """Check every posting against N, its token's order and its
        document's recorded token count and max term frequency, all tokens
        at once."""
        data = self._data
        ordinal, tf = np.frombuffer(
            b"".join(data[at:at + 8 * df] for df, at in self._terms.values()),
            _U32).reshape(-1, 2).T
        ends = np.cumsum([df for df, _ in self._terms.values()], dtype=np.intp)

        def fail(position: int, problem: str):
            token = list(self._terms)[np.searchsorted(ends, position, "right")]
            raise IndexFormatError(f"corrupt index: token {token!r} {problem}")

        if (bad := np.flatnonzero(ordinal >= self.total_docs)).size:
            fail(bad[0], f"has a posting for doc ordinal {ordinal[bad[0]]} "
                         f"of an index of {self.total_docs} documents")
        if (bad := np.flatnonzero(tf == 0)).size:
            fail(bad[0], "has a posting with term frequency 0")
        unordered = ordinal[1:] <= ordinal[:-1]
        unordered[ends[:-1] - 1] = False  # a token's first posting is free
        if (bad := np.flatnonzero(unordered)).size:
            fail(bad[0] + 1, "has postings out of doc ordinal order")
        observed = np.zeros(self.total_docs, _U32)
        np.maximum.at(observed, ordinal, tf)
        # uint64 sums are exact; np.add.at's fast path needs matching dtypes
        counted = np.zeros(self.total_docs, np.uint64)
        np.add.at(counted, ordinal, tf.astype(np.uint64))
        miscounted = counted != self.token_counts
        bad = np.flatnonzero(miscounted
                             | (observed != self.max_term_frequencies))
        if bad.size:  # the token count comes first in a document's record
            doc = bad[0]
            problem = (
                f"token count {self.token_counts[doc]}" if miscounted[doc]
                else f"max term frequency {self.max_term_frequencies[doc]}")
            raise IndexFormatError(
                f"corrupt index: document {self.doc_ids[doc]!r} has "
                f"{problem}, inconsistent with its postings")

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
        pairs = self._pairs(token)
        return pairs[:, 0], pairs[:, 1]

    def _pairs(self, token: str) -> np.ndarray:
        """A token's postings as (ordinal, tf) rows of one read-only df x 2
        uint32 view of the index bytes; no rows if unknown."""
        entry = self._terms.get(token)
        if entry is None:
            return _NO_POSTINGS
        df, offset = entry
        return np.frombuffer(self._data, _U32, 2 * df, offset).reshape(df, 2)

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


def _doc_id_bytes(document: Document, seen: set[str]) -> bytes:
    """The next document's doc id as UTF-8, checked: non-empty, free of
    whitespace (run files split their fields on it) and unique."""
    doc_id = document.doc_id
    if not one_word(doc_id):
        raise CorpusError(f"doc_id {doc_id!r} is empty or contains "
                          "whitespace", line=document.line)
    if doc_id in seen:
        raise CorpusError(f"duplicate doc_id {doc_id!r}", line=document.line)
    seen.add(doc_id)
    try:
        return doc_id.encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(f"doc_id {doc_id!r} is not valid Unicode",
                          line=document.line) from None


def build_index(corpus: Iterable[Document]) -> InvertedIndex:
    """Build an index from a document stream.

    Deterministic given input order.  Doc ids are unique, non-empty and
    free of whitespace; a document read by :func:`read_corpus_jsonl` that
    breaks this fails with its line.  Documents whose tokenization is
    empty stay in the document table and count toward the corpus size.

    The inversion sorts instead of merging per-token lists (Witten, Moffat
    & Bell, *Managing Gigabytes*, chs. 3 and 5): every word the byte
    tokenizer finds in every document becomes an id of one vocabulary,
    keyed by the word's bytes, in one int32 column.  The vocabulary's first
    ids are the dropped words (stopwords and one-character words), so one
    comparison drops them all.  One ``np.unique`` over term rank * N + doc
    ordinal yields each posting, in FRIX1 order, with its term frequency.
    ``np.bincount`` gives the dfs and ``np.maximum.at`` each document's max
    term frequency.  Token names are written as the bytes they are keyed by.
    """
    return InvertedIndex(_invert(corpus))


def _invert(corpus: Iterable[Document]) -> bytes:
    """The FRIX1 bytes of a document stream, for :func:`build_index`, whose
    constructor then runs after every column here has been freed."""
    # ids 0 .. len(_DROPPED) - 1 are the dropped words', dropped below
    next_id = count()
    vocabulary = defaultdict(next_id.__next__, zip(_DROPPED, next_id))
    words = array("i")  # every document's token ids, one after another
    lengths = array("i")  # how many of them each document has
    doc_ids: list[bytes] = []
    seen: set[str] = set()
    for document in corpus:
        doc_ids.append(_doc_id_bytes(document, seen))
        before = len(words)
        words.extend(map(vocabulary.__getitem__, _words(document.text)))
        lengths.append(len(words) - before)
    if not doc_ids:
        raise CorpusError("empty corpus")
    n_docs = len(doc_ids)

    ids = np.frombuffer(words, np.int32)
    ordinals = np.repeat(np.arange(n_docs, dtype=np.uint32), lengths)
    kept = ids >= len(_DROPPED)
    ids, ordinals = ids[kept], ordinals[kept]
    del words, kept
    token_counts = np.bincount(ordinals, minlength=n_docs)
    names = list(vocabulary)
    order = sorted(range(len(_DROPPED), len(names)), key=names.__getitem__)
    n_terms = len(order)
    key_type = np.uint32 if n_terms * n_docs <= 1 << 32 else np.uint64
    ranks = np.zeros(len(names), key_type)
    ranks[order] = np.arange(n_terms, dtype=key_type)
    keys = ranks[ids]
    keys *= n_docs
    keys += ordinals
    del ids, ordinals
    keys, frequencies = np.unique(keys, return_counts=True)
    terms, ordinals = np.divmod(keys, key_type(n_docs))
    del keys
    dfs = np.bincount(terms, minlength=n_terms)
    max_tfs = np.zeros(n_docs, np.int64)
    np.maximum.at(max_tfs, ordinals, frequencies)
    pairs = np.empty((len(ordinals), 2), _U32)
    pairs[:, 0] = ordinals
    pairs[:, 1] = frequencies
    del terms, ordinals, frequencies
    postings = memoryview(pairs.reshape(-1))  # uint32s, two per posting

    # one growing buffer, not a list of parts: joining n parts costs a
    # buffer descriptor per part, more than the index for small tokens
    out = io.BytesIO()
    write = out.write
    write(_MAGIC + bytes((_VERSION,)) + _UINT.pack(n_docs))
    for raw, stats in zip(doc_ids, zip(token_counts.tolist(),
                                       max_tfs.tolist())):
        write(_UINT.pack(len(raw)))
        write(raw)
        write(_PAIR.pack(*stats))
    write(_UINT.pack(n_terms))
    end = 0
    for term, df in zip(order, dfs.tolist()):
        raw = names[term]
        write(_UINT.pack(len(raw)))
        write(raw)
        write(_UINT.pack(df))
        start, end = end, end + 2 * df
        write(postings[start:end])
    return out.getvalue()


def idf_norm(index: InvertedIndex, token: str) -> float:
    """Normalized inverse document frequency, ln(N/n) / ln(N), in [0, 1].

    A token in a single document scores 1, a token in every document scores
    0.  Unknown tokens score 0 (they contribute no matched evidence), and a
    corpus of fewer than two documents has no spread to normalize, also 0.
    """
    total = index.total_docs
    return idf_raw(index, token) / math.log(total) if total > 1 else 0.0


def idf_raw(index: InvertedIndex, token: str) -> float:
    """Unnormalized ln(N/n); 0.0 for unknown tokens."""
    n = index.document_frequency(token)
    if n == 0:
        return 0.0
    return math.log(index.total_docs / n)


def extract_features(index: InvertedIndex,
                     query_tokens: list[str]) -> QueryFeatures:
    """Ranking features of every document holding a query token.

    This is the one candidate generator (Witten, Moffat & Bell, *Managing
    Gigabytes*, ch. 4): each distinct token's postings are read once, and
    one ``np.unique`` over their doc ordinals gives both the candidates and
    each posting's column, so one scatter fills the tf matrix, whatever the
    number of tokens.  Distinct query tokens (first-occurrence order) set
    the overlap denominator; duplicates are collapsed.  A document holding
    no query token is not a candidate: all its features are 0.
    """
    if not query_tokens:
        raise QueryError("no query tokens")
    distinct = list(dict.fromkeys(query_tokens))
    pairs = [index._pairs(token) for token in distinct]
    rows = np.repeat(np.arange(len(distinct)), list(map(len, pairs)))
    ordinals, frequencies = np.concatenate(pairs).T
    candidates, columns = np.unique(ordinals, return_inverse=True)
    counts = np.zeros((len(distinct), len(candidates)), dtype=np.int64)
    counts[rows, columns] = frequencies
    return QueryFeatures(
        terms=tuple(distinct),
        idf=tuple(idf_norm(index, token) for token in distinct),
        candidates=candidates,
        # a candidate holds a posting, so its max term frequency is >= 1
        tf=counts / index.max_term_frequencies[candidates],
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
            yield Document(record["doc_id"], record["text"], number)
