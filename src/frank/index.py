"""Corpus ingestion, tokenization, and an immutable inverted index.

The index supplies the three features the rankers consume: each
posting's normalized term frequency, corpus-level normalized inverse
document frequency, and query overlap.

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
in bulk, into a token -> postings offset table (the df is the uint32
before it), the doc ids and per-document arrays gathered from the bytes in
one step, the postings a cache-sized block of whole tokens at a time.  The
first fault in byte order is reported, a posting's ordinal before its tf,
and each document's recorded totals are checked last.  A token's postings
are read-only ``np.frombuffer`` views of the bytes, never copies.
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
#: Postings per block of the load's check (512 KiB), to stay in L2 cache.
_BLOCK_POSTINGS = 1 << 16


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    #: the corpus line the document came from, for error messages
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class QueryFeatures:
    """Ranking features of one query's candidate documents, as columns.

    ``terms`` holds the distinct query tokens in first-occurrence order,
    ``idf_raw`` their ln(N/df), 0 for a token in no document, and ``idf``
    that over ln(N), in [0, 1], or 0 for every token when N < 2, both
    from ``dfs``.  ``candidates`` are the ordinals of the documents
    holding at least one of the terms, ascending.  ``overlap`` holds, per
    candidate, the number of distinct terms it contains divided by
    ``len(terms)``.

    The term frequencies are per posting: the postings of ``terms[0]``,
    then of ``terms[1]`` and so on (``dfs`` of them per term), each with its
    doc ordinal in ``ordinals``, its candidate's position in ``columns`` and
    its normalized tf, the term's count in the document over the document's
    max term frequency, in ``posting_tf``.  A candidate that lacks a term
    has no posting of it: its tf there is 0.
    """

    terms: tuple[str, ...]
    idf_raw: tuple[float, ...]
    idf: tuple[float, ...]
    candidates: np.ndarray
    overlap: np.ndarray
    dfs: list[int]
    ordinals: np.ndarray
    columns: np.ndarray
    posting_tf: np.ndarray


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
    starts: list[int] = []
    add_string, add_start = strings.append, starts.append
    fault: str | None = _TRUNCATED
    try:  # a length prefix past the end raises struct.error
        for _ in range(records):
            start = offset + 4
            stop = start + unpack(data, offset)[0]
            offset = stop + trailer
            if offset > size:
                break
            add_string(data[start:stop].decode())
            add_start(start)
            if postings:
                offset += 8 * unpack(data, stop)[0]
                if offset > size:
                    break
        else:
            fault = None
    except struct.error:
        pass
    except UnicodeDecodeError:
        what = "token" if postings else "doc id"
        fault = f"corrupt index: {what} at byte {start} is not valid UTF-8"
    begin = np.array(starts, np.int64)
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
    ``max_term_frequencies``, ``length_norms``, ``doc_id_ranks`` and
    ``doc_id_array`` (the doc ids as objects), by doc ordinal.
    Construction raises :class:`IndexFormatError` unless every count and
    length fits the bytes with none left over, doc ids and tokens are
    UTF-8, doc ids non-empty, free of whitespace and unique, tokens
    strictly ascending, each df and tf >= 1, each token's doc ordinals < N
    and strictly ascending, and each document's token count the sum of its
    postings' term frequencies and its max term frequency their maximum.
    Where the bytes break several of these, the first break in byte order
    is the one reported, a posting's ordinal before its tf, but each
    document's totals are checked last, against postings that passed.
    Postings are checked a block of whole tokens at a time, so the check's
    extra memory does not grow with their number.
    """

    def __init__(self, data: bytes):
        data = bytes(data)  # the caller's buffer may change; bytes cannot
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
        malformed = _first_malformed(doc_ids, starts, stops)
        if len(set(doc_ids)) < len(doc_ids):
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
        # check the postings of the tokens before the first bad record, of
        # those the bytes hold whole; 8 * a uint32 df would wrap
        past = stops + 4 + 8 * dfs.astype(np.int64)
        checked = min(first, np.searchsorted(past, len(data), "right"))
        at = (stops + 4).tolist()
        until = past[:checked].tolist()
        ends = np.cumsum(dfs[:checked], dtype=np.intp)
        # blocks of whole tokens in byte order, each from the token holding
        # a multiple of _BLOCK_POSTINGS postings, so each stays in cache
        cuts = sorted({checked, *ends.searchsorted(np.arange(
            0, ends[-1] if checked else 0, _BLOCK_POSTINGS), "right").tolist()})
        # each document's max tf and tf sum, over the postings that passed
        observed = np.zeros(n_docs, _U32)
        counted = np.zeros(n_docs, np.uint64)
        for low, high in zip(cuts, cuts[1:]):
            ordinal, tf = np.frombuffer(b"".join(
                data[a:b] for a, b in zip(at[low:high], until[low:high])),
                _U32).reshape(-1, 2).T
            block_ends = np.cumsum(dfs[low:high], dtype=np.intp)
            out_of_range = ordinal >= n_docs
            out_of_order = np.zeros(len(ordinal), bool)
            np.less_equal(ordinal[1:], ordinal[:-1], out=out_of_order[1:])
            out_of_order[block_ends[:-1]] = False  # free at a token's start
            bad = np.flatnonzero(out_of_range | out_of_order | (tf == 0))
            if bad.size:  # the first faulty posting, its ordinal before tf
                where = bad[0]
                problem = (f"has a posting for doc ordinal {ordinal[where]} "
                           f"of an index of {n_docs} documents"
                           if out_of_range[where]
                           else "has postings out of doc ordinal order"
                           if out_of_order[where]
                           else "has a posting with term frequency 0")
                token = tokens[low + block_ends.searchsorted(where, "right")]
                raise IndexFormatError(
                    f"corrupt index: token {token!r} {problem}")
            np.maximum.at(observed, ordinal, tf)
            # uint64 sums are exact; np.add.at's fast path needs one dtype
            np.add.at(counted, ordinal, tf.astype(np.uint64))
        if first < len(tokens):
            token = tokens[first]
            problem = ("has no postings" if first != unordered
                       else "is a duplicate" if token == tokens[first - 1]
                       else "is out of order")
            raise IndexFormatError(f"corrupt index: token {token!r} {problem}")
        if fault:
            raise IndexFormatError(fault)
        if offset != len(data):
            raise IndexFormatError("trailing bytes after index data")
        # every posting passed its checks: the documents' totals come last
        miscounted = counted != per_doc[:, 0]
        bad = np.flatnonzero(miscounted | (observed != per_doc[:, 1]))
        if bad.size:  # the token count comes first in a document's record
            doc = bad[0]
            problem = (f"token count {per_doc[doc, 0]}" if miscounted[doc]
                       else f"max term frequency {per_doc[doc, 1]}")
            raise IndexFormatError(
                f"corrupt index: document {doc_ids[doc]!r} has {problem}, "
                "inconsistent with its postings")

        per_doc.flags.writeable = False
        self._data = data
        #: each token's postings offset; its df is the uint32 before it
        self._terms: dict[str, int] = dict(zip(tokens, at))
        self.doc_ids: tuple[str, ...] = tuple(doc_ids)
        #: Each document's token count and max term frequency, by ordinal.
        self.token_counts = per_doc[:, 0]
        self.max_term_frequencies = per_doc[:, 1]
        #: Each document's 1/sqrt(token count), 0 for an empty document.
        self.length_norms = np.zeros(n_docs)
        lengths = self.token_counts.astype(np.float64)
        np.divide(1.0, np.sqrt(lengths), out=self.length_norms,
                  where=lengths > 0)
        self.length_norms.flags.writeable = False
        #: Each document's position in ascending doc_id order, by ordinal.
        order = sorted(range(n_docs), key=self.doc_ids.__getitem__)
        self.doc_id_ranks = np.empty(n_docs, np.intp)
        self.doc_id_ranks[order] = np.arange(n_docs)
        self.doc_id_ranks.flags.writeable = False
        #: ``doc_ids`` as an object array, to gather many with one index.
        self.doc_id_array = np.array(self.doc_ids, dtype=object)
        self.doc_id_array.flags.writeable = False

    @property
    def total_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def terms(self) -> list[str]:
        return list(self._terms)

    @property
    def total_tokens(self) -> int:
        return int(self.token_counts.sum())

    def postings(self, token: str) -> tuple[np.ndarray, np.ndarray]:
        """A token's doc ordinals (ascending) and term frequencies, as
        read-only uint32 views of the index bytes; empty if unknown."""
        pairs = self._pairs(token)
        return pairs[:, 0], pairs[:, 1]

    def _pairs(self, token: str) -> np.ndarray:
        """A token's postings as (ordinal, tf) rows of one read-only df x 2
        uint32 view of the index bytes; no rows if unknown."""
        offset = self._terms.get(token)
        if offset is None:
            return _NO_POSTINGS
        df = _UINT.unpack_from(self._data, offset - 4)[0]
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
        return cls(data)

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
    names = list(vocabulary)  # keeps the keys; the rest is loop-only
    del vocabulary, seen
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


def _unique(ordinals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ordinals, return_inverse=True)``: the distinct values,
    ascending, and each value's position among them, at half its cost."""
    ordered = np.sort(ordinals)
    first = np.empty(len(ordered), bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, distinct.searchsorted(ordinals)


def extract_features(index: InvertedIndex,
                     query_tokens: list[str]) -> QueryFeatures:
    """Ranking features of every document holding a query token.

    This is the one candidate generator (Witten, Moffat & Bell, *Managing
    Gigabytes*, ch. 4): each distinct token's postings are read once, and
    one sort of their doc ordinals gives both the candidates and each
    posting's column.  The work is per posting, never per (term,
    candidate) cell: each posting's normalized tf is one division, and the
    overlap one ``np.bincount`` of the columns, since a token's postings
    name a document at most once.  Distinct query tokens (first-occurrence
    order) set the overlap denominator; duplicates are collapsed, and no
    token at all raises :class:`QueryError`.  A document holding no query
    token is not a candidate: all its features are 0.
    """
    if not query_tokens:
        raise QueryError("query is empty after tokenization")
    distinct = list(dict.fromkeys(query_tokens))
    pairs = [index._pairs(token) for token in distinct]
    ordinals, frequencies = np.concatenate(pairs).T
    candidates, columns = _unique(ordinals)
    total = index.total_docs
    dfs = list(map(len, pairs))
    raw = tuple(math.log(total / df) if df else 0.0 for df in dfs)
    return QueryFeatures(
        terms=tuple(distinct),
        idf_raw=raw,
        idf=tuple(value / math.log(total) if total > 1 else 0.0
                  for value in raw),
        candidates=candidates,
        overlap=np.bincount(columns, minlength=len(candidates))
        / len(distinct),
        dfs=dfs,
        ordinals=ordinals,
        columns=columns,
        # a posting's document holds the token, so its max tf is >= 1
        posting_tf=frequencies / index.max_term_frequencies[ordinals],
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
            except RecursionError:
                raise CorpusError("invalid JSON: nested too deeply",
                                  line=number)
            except ValueError:  # an integer past Python's digit limit
                raise CorpusError("invalid JSON: number too long", line=number)
            if not isinstance(record, dict):
                raise CorpusError("line is not a JSON object", line=number)
            for field in ("doc_id", "text"):
                if not isinstance(record.get(field), str):
                    raise CorpusError(
                        f"missing or non-string field {field!r}", line=number
                    )
            yield Document(record["doc_id"], record["text"], number)
