"""Tokenization, index construction, features, and serialization.

The feature table for the 5-document fixture was enumerated by hand from
the raw token counts before the index code was written:

    doc  counts                    length  max_tf
    d1   apple 1, banana 2         3       2
    d2   banana 1, cherry 3        4       3
    d3   apple 1, cherry 1, durian 1   3   1
    d4   durian 2, elder 1, apple 1    4   2
    d5   fig 1                     1       1

    N = 5; document frequencies: apple 3, banana 2, cherry 2, durian 2,
    elder 1, fig 1.
"""

import math
import random
import string
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frank import index as index_module
from frank.errors import CorpusError, IndexFormatError, QueryError
from frank.index import (Document, InvertedIndex, build_index,
                         extract_features, read_corpus_jsonl, tokenize,
                         STOPWORDS)

from oracles import (ReferenceCorpus, frix, reference_extract_features,
                     reference_frix, reference_tokenize)


def df_of(index, token):
    """A token's document frequency: the length of its postings."""
    return len(index.postings(token)[0])


def idf_of(index, token):
    """A token's normalized idf, as the one feature extractor gives it."""
    return extract_features(index, [token]).idf[0]


def dense_tf(features):
    """The terms x candidates tf matrix that the postings describe: each
    posting's tf in its own cell, 0 in every cell no posting names."""
    rows = np.repeat(np.arange(len(features.terms)), features.dfs)
    cells = set(zip(rows.tolist(), features.columns.tolist()))
    assert len(cells) == len(features.posting_tf)
    tf = np.zeros((len(features.terms), len(features.candidates)))
    tf[rows, features.columns] = features.posting_tf
    return tf


# Words and fragments that exercise the tokenizer's edges: one-character
# tokens, digits, hyphens, stopwords in any case, the two characters whose
# lowercase forms leave ASCII (Kelvin sign) or grow (dotted capital I),
# lone surrogates, which UTF-8 cannot encode, and separators that
# str.isspace knows but bytes.split does not.
_PIECES = st.one_of(
    st.sampled_from(["a", "x", "7", "ab", "Ab", "AB", "the", "The", "OF",
                     "e-mail", "tf-idf", "2006", "x1", "09", "\u212a",
                     "\u212ai", "\u0130", "\u0130t", "naïve", "-", "--",
                     "\ud800", "x\udfffy", "ab\x1ccd", "\x1d", "x\x1ey",
                     "\x1f", "ab\x85cd", "ab\u00a0cd", "ab\u2028cd"]),
    st.text(alphabet="abkK019-_ .,\n\t\u212a\u0130\u00e9", max_size=8),
)
_TEXTS = st.lists(_PIECES, max_size=10).map(" ".join)


class TestTokenize:
    def test_lowercase_split_and_stopwords(self):
        assert tokenize("The Fuzzy Logic, applied!") == ["fuzzy", "logic", "applied"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_hyphen_splits_case_merges(self):
        assert tokenize("TF-IDF tf idf") == ["tf", "idf", "tf", "idf"]

    def test_short_tokens_dropped(self):
        assert tokenize("a b c d9 x") == ["d9"]

    def test_digits_kept(self):
        assert tokenize("model 42 released in 2004") == ["model", "42", "released", "2004"]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_TEXTS)
    def test_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_stopword_list_is_exactly_thirty(self):
        assert len(STOPWORDS) == 30

    def test_no_stemming(self):
        assert tokenize("running runs run") == ["running", "runs", "run"]


class TestBuildIndex:
    def test_single_document_counts(self):
        index = build_index([Document("d1", "apple banana banana")])
        assert index.total_docs == 1
        assert df_of(index, "banana") == 1
        assert index.term_frequency(0, "banana") == 2

    def test_document_frequency_across_docs(self):
        docs = [Document(f"d{i}", text) for i, text in enumerate([
            "fuzzy sets", "crisp sets", "fuzzy rules", "plain text"])]
        index = build_index(docs)
        assert index.total_docs == 4
        assert df_of(index, "fuzzy") == 2

    def test_build_is_deterministic(self, data_dir):
        first = build_index(read_corpus_jsonl(data_dir / "corpus5.jsonl"))
        second = build_index(read_corpus_jsonl(data_dir / "corpus5.jsonl"))
        assert first.to_bytes() == second.to_bytes()

    def test_duplicate_doc_id_named_in_error(self):
        docs = [Document("dup", "one"), Document("dup", "two")]
        with pytest.raises(CorpusError, match="dup"):
            build_index(docs)

    def test_doc_id_error_names_the_corpus_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a", "text": "x"}\n\n'
                        '{"doc_id": "a", "text": "y"}\n')
        with pytest.raises(CorpusError) as excinfo:
            build_index(read_corpus_jsonl(path))
        assert str(excinfo.value) == "line 3: duplicate doc_id 'a'"

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            build_index([])

    def test_empty_tokenization_doc_still_counts(self):
        index = build_index([Document("d1", "apple"), Document("d2", "of the")])
        assert index.total_docs == 2
        assert index.token_counts[1] == 0
        assert index.max_term_frequencies[1] == 0
        assert index.length_norms.tolist() == [1.0, 0.0]
        assert not index.length_norms.flags.writeable

    def test_postings_sorted_without_duplicates(self, index5):
        for token in index5.terms:
            ordinals = index5.postings(token)[0].tolist()
            assert ordinals == sorted(set(ordinals))
            n, postings = df_of(index5, token), index5.postings(token)
            assert n == len(postings[0]) == len(postings[1])


class TestBuildMatchesReference:
    """The sort-based build writes the same FRIX1 bytes as the reference
    build's Counter per document."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(_TEXTS, min_size=1, max_size=8))
    @example([""])
    @example(["", "", "the of"])
    @example(["The AND of", "a b c 1 2"])
    @example(["single document"])
    @example(["K-9 \u212a9 \u0130stanbul istanbul", "k9 KK \u0130\u0130"])
    @example(["river \ud800flood"])
    def test_bytes_equal_reference(self, texts):
        docs = [(f"d{i}\u00e9", text) for i, text in enumerate(texts)]
        built = build_index(Document(*doc) for doc in docs)
        assert built.to_bytes() == reference_frix(docs)


def _zipf_corpus(n_docs: int, n_words: int, length: int,
                 seed: int) -> list[Document]:
    rng = random.Random(seed)
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9)))
             for _ in range(n_words)]
    weights = [1 / rank for rank in range(1, n_words + 1)]
    return [Document(f"doc{i:05d}",
                     " ".join(rng.choices(words, weights, k=length)))
            for i in range(n_docs)]


class TestBuildMemory:
    def test_peak_allocation_is_a_small_multiple_of_the_index(self):
        """Intermediates stay in 4-byte columns, each dropped once used,
        and the bytes grow in one buffer: a build's peak traced allocation
        stays under 8x its FRIX1 size (a list per token, or a list of
        parts joined at the end, takes over 10x)."""
        docs = _zipf_corpus(2000, 3000, 30, seed=7)
        tracemalloc.start()
        try:
            size = len(build_index(docs).to_bytes())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * size


class TestNormalizedFeatures:
    def test_idf_half(self):
        docs = [Document(f"d{i}", t) for i, t in enumerate(
            ["shared apple", "shared", "other", "another"])]
        index = build_index(docs)
        # n=2 of N=4: ln(2)/ln(4) is exactly one half
        assert idf_of(index, "shared") == 0.5

    def test_idf_everywhere_is_zero(self):
        docs = [Document(f"d{i}", "common word") for i in range(3)]
        index = build_index(docs)
        assert idf_of(index, "common") == 0.0

    def test_idf_unique_is_one(self, index5):
        assert idf_of(index5, "fig") == 1.0

    def test_idf_unknown_token_is_zero(self, index5):
        assert idf_of(index5, "zzz") == 0.0

    def test_idf_single_doc_corpus_is_zero(self):
        index = build_index([Document("only", "apple banana")])
        assert idf_of(index, "apple") == 0.0

    def test_idf_monotone_in_document_frequency(self):
        for total in (2, 5, 20):
            # term tj appears in exactly j+1 documents
            docs = [
                Document(f"d{i}", " ".join(f"t{j}" for j in range(total) if i <= j))
                for i in range(total)
            ]
            index = build_index(docs)
            values = [idf_of(index, f"t{j}") for j in range(total)]
            assert values == sorted(values, reverse=True)

    def test_idf_empty_corpus_is_zero(self):
        """A zero-document index loads; its idf never takes ln(0)."""
        index = InvertedIndex(b"FRIX1\x01" + bytes(8))
        assert index.total_docs == 0
        assert idf_of(index, "apple") == 0.0

    def test_tf_norm_by_max_frequency(self):
        index = build_index([Document("d", "aa aa aa bb")])
        tf = dense_tf(extract_features(index, ["aa", "bb"]))[:, 0]
        assert tf[0] == 1.0
        assert tf[1] == pytest.approx(1 / 3)

    def test_tf_norm_absent_token(self, index5):
        """d1 holds apple but not fig, so its fig tf is 0."""
        features = extract_features(index5, ["apple", "fig"])
        column = features.candidates.tolist().index(index5.doc_ids.index("d1"))
        assert dense_tf(features)[:, column].tolist() == [0.5, 0.0]

    def test_every_nonempty_doc_has_a_unit_tf(self, index20):
        """Over every term, the candidates are the documents with a token,
        and each reaches its max term frequency."""
        features = extract_features(index20, index20.terms)
        assert features.candidates.tolist() == np.flatnonzero(
            index20.token_counts).tolist()
        assert (dense_tf(features).max(axis=0) == 1.0).all()


class TestExtractFeatures:
    def test_hand_enumerated_fixture_table(self, index5):
        """Features for query {apple, cherry, grape} against each document."""
        ln = math.log
        idf_apple = ln(5 / 3) / ln(5)
        idf_cherry = ln(5 / 2) / ln(5)
        query = ["apple", "cherry", "grape"]

        features = extract_features(index5, query)
        assert features.terms == ("apple", "cherry", "grape")
        assert features.idf == (pytest.approx(idf_apple),
                                pytest.approx(idf_cherry), 0.0)
        by_doc = {
            index5.doc_ids[ordinal]: column
            for column, ordinal in enumerate(features.candidates)
        }

        def tf(doc_id):
            return dense_tf(features)[:, by_doc[doc_id]].tolist()

        def overlap(doc_id):
            return features.overlap[by_doc[doc_id]]

        assert tf("d3") == [1.0, 1.0, 0.0]
        assert overlap("d3") == 2 / 3

        # unmatched term: tf drops to 0 but the corpus idf is still reported
        assert tf("d1") == [0.5, 0.0, 0.0]
        assert overlap("d1") == pytest.approx(1 / 3)

        assert tf("d2") == [0.0, 1.0, 0.0]
        assert overlap("d2") == pytest.approx(1 / 3)

        assert tf("d4") == [0.5, 0.0, 0.0]
        assert overlap("d4") == pytest.approx(1 / 3)

        # d5 holds none of the query tokens, so it is not a candidate
        assert "d5" not in by_doc

    def test_full_overlap(self, index5):
        features = extract_features(index5, ["apple", "cherry"])
        column = features.candidates.tolist().index(index5.doc_ids.index("d3"))
        assert features.overlap[column] == 1.0

    def test_duplicate_query_tokens_collapse(self, index5):
        features = extract_features(index5, ["apple", "apple", "cherry"])
        assert len(features.terms) == 2
        assert dense_tf(features).shape == (2, 4)
        column = features.candidates.tolist().index(index5.doc_ids.index("d3"))
        assert features.overlap[column] == 1.0

    def test_empty_query_rejected(self, index5):
        with pytest.raises(QueryError):
            extract_features(index5, [])

    def test_document_without_tokens_is_not_a_candidate(self):
        """A document with no tokens records max term frequency 0; that is a
        valid index, not a corrupt one, and the document is never scored."""
        index = build_index([Document("d1", "apple"), Document("d2", "of the")])
        features = extract_features(index, ["apple"])
        assert features.candidates.tolist() == [0]
        assert dense_tf(features).tolist() == [[1.0]]
        assert features.overlap.tolist() == [1.0]

    def test_candidates_match_per_document_tf_norm(self, index20, data_dir):
        """Each column equals the reference tf_norm of its document, and the
        candidates are exactly the documents with a nonzero tf_norm."""
        reference = ReferenceCorpus([
            (d.doc_id, d.text)
            for d in read_corpus_jsonl(data_dir / "corpus20.jsonl")])
        query = ["river", "flood", "ice", "nosuchterm"]
        features = extract_features(index20, query)
        columns = dict(zip(features.candidates.tolist(),
                           dense_tf(features).T))
        for ordinal, doc_id in enumerate(index20.doc_ids):
            expected = [reference.tf_norm(doc_id, token) for token in query]
            assert (ordinal in columns) == any(expected), doc_id
            if ordinal in columns:
                assert columns[ordinal].tolist() == expected


@pytest.mark.parametrize("query", [
    ["river", "flood", "river", "ice", "flood"],
    ["river", "nosuchterm", "ice"],
    ["nosuchterm"],
    ["river", "flood", "ice", "nosuchterm"],
    ["water", "river", "water"],
    ["river", "flood"],
], ids=["duplicate-tokens", "absent-token", "only-absent",
        "absent-among-three", "leading-duplicate", "two-terms"])
def test_extract_features_equals_the_per_token_loop(index20, data_dir,
                                                   query):
    """The one postings gather finds the candidates, the per-posting tf
    and the overlap column the per-token reference loop does, bit for bit:
    the postings are the nonzero cells of the reference's tf matrix.  The
    dfs and both idfs are the reference corpus's, recounted from the text."""
    candidates, tf, overlap = reference_extract_features(index20, query)
    reference = ReferenceCorpus([
        (d.doc_id, d.text)
        for d in read_corpus_jsonl(data_dir / "corpus20.jsonl")])
    features = extract_features(index20, query)
    distinct = list(dict.fromkeys(query))
    assert features.terms == tuple(distinct)
    assert features.idf == tuple(reference.idf_norm(t) for t in distinct)
    assert features.idf_raw == tuple(
        reference.idf_raw(t) if reference.doc_freq(t) else 0.0
        for t in distinct)
    assert features.candidates.tolist() == candidates
    # the postings, term by term, are the nonzero cells of the tf rows
    assert dense_tf(features).tolist() == tf
    assert features.overlap.tolist() == overlap
    assert features.dfs == [reference.doc_freq(t) for t in distinct]
    assert features.candidates[features.columns].tolist() == \
        features.ordinals.tolist()


class TestInvariants:
    def test_document_frequency_identity(self, index20, data_dir):
        """Sum of n over terms equals sum of distinct-token counts over docs,
        recomputed here from the raw text."""
        total_n = sum(df_of(index20, t) for t in index20.terms)
        distinct_total = 0
        for document in read_corpus_jsonl(data_dir / "corpus20.jsonl"):
            distinct_total += len(set(tokenize(document.text)))
        assert total_n == distinct_total

    def test_max_tf_matches_rebuild(self, index20, data_dir):
        from collections import Counter
        docs = list(read_corpus_jsonl(data_dir / "corpus20.jsonl"))
        for document in docs[::3]:  # spot-check a sample
            counts = Counter(tokenize(document.text))
            ordinal = index20.doc_ids.index(document.doc_id)
            assert index20.max_term_frequencies[ordinal] == (
                max(counts.values()) if counts else 0)

    def test_shuffled_rebuild_keeps_statistics(self, data_dir):
        docs = list(read_corpus_jsonl(data_dir / "corpus20.jsonl"))
        shuffled = docs[:]
        random.Random(99).shuffle(shuffled)
        original = build_index(docs)
        rebuilt = build_index(shuffled)
        assert original.total_docs == rebuilt.total_docs
        assert original.terms == rebuilt.terms
        for token in original.terms:
            assert df_of(original, token) == df_of(rebuilt, token)
        for document in docs:
            a = original.doc_ids.index(document.doc_id)
            b = rebuilt.doc_ids.index(document.doc_id)
            for token in set(tokenize(document.text)):
                assert (original.term_frequency(a, token)
                        == rebuilt.term_frequency(b, token))

    def test_statistics_match_reference_corpus(self, index20, data_dir):
        docs = [(d.doc_id, d.text)
                for d in read_corpus_jsonl(data_dir / "corpus20.jsonl")]
        reference = ReferenceCorpus(docs)
        for token in index20.terms:
            features = extract_features(index20, [token])
            assert df_of(index20, token) == reference.doc_freq(token)
            assert features.idf_raw[0] == pytest.approx(
                reference.idf_raw(token))
            assert features.idf[0] == reference.idf_norm(token)


class TestSerialization:
    def test_roundtrip_is_bit_exact(self, index20):
        data = index20.to_bytes()
        again = InvertedIndex.from_bytes(data).to_bytes()
        assert data == again

    def test_roundtrip_preserves_equality(self, index5):
        assert InvertedIndex.from_bytes(index5.to_bytes()) == index5

    def test_not_equal_to_other_types(self, index5):
        assert index5 != "x"

    def test_mutable_buffer_is_copied(self, index20):
        """The index keeps its own bytes: changing the buffer it was built
        from leaves its bytes and postings as they were."""
        data = index20.to_bytes()
        buffer = bytearray(data)
        index = InvertedIndex(buffer)
        ordinals, frequencies = index.postings("ice")
        want = ordinals.tolist(), frequencies.tolist()
        buffer[:] = bytes(len(buffer))
        assert index.to_bytes() == data
        assert (ordinals.tolist(), frequencies.tolist()) == want
        assert index.postings("ice")[1].tolist() == want[1]
        assert not ordinals.flags.writeable
        assert not frequencies.flags.writeable

    def test_memoryview_builds_an_equal_index(self, index20):
        data = index20.to_bytes()
        assert InvertedIndex(memoryview(data)) == index20
        assert InvertedIndex.from_bytes(memoryview(data)) == index20

    def test_corrupt_memoryview_rejected(self, index5):
        data = bytearray(index5.to_bytes())
        data[5] = 9
        with pytest.raises(IndexFormatError, match="version"):
            InvertedIndex(memoryview(data))
        with pytest.raises(IndexFormatError, match="trailing"):
            InvertedIndex(memoryview(index5.to_bytes() + b"\x00"))

    def test_save_and_load(self, index5, tmp_path):
        path = tmp_path / "fixture.idx"
        index5.save(path)
        assert InvertedIndex.load(path) == index5

    def test_bad_magic_rejected(self):
        with pytest.raises(IndexFormatError, match="magic"):
            InvertedIndex.from_bytes(b"NOPE1" + b"\x01" + b"\x00" * 8)

    def test_bad_version_rejected(self, index5):
        data = bytearray(index5.to_bytes())
        data[5] = 9
        with pytest.raises(IndexFormatError, match="version"):
            InvertedIndex.from_bytes(bytes(data))

    def test_version_error_names_the_version_byte(self, index5):
        data = bytearray(index5.to_bytes())
        data[5] = 2  # the byte after it, the document count's first, is 5
        with pytest.raises(IndexFormatError) as caught:
            InvertedIndex.from_bytes(bytes(data))
        assert str(caught.value) == "unsupported index version 2"

    def test_truncated_rejected(self, index5):
        data = index5.to_bytes()
        with pytest.raises(IndexFormatError, match="truncated"):
            InvertedIndex.from_bytes(data[:len(data) // 2])

    def test_trailing_bytes_rejected(self, index5):
        with pytest.raises(IndexFormatError, match="trailing"):
            InvertedIndex.from_bytes(index5.to_bytes() + b"\x00")

    def test_magic_alone_is_truncated(self):
        with pytest.raises(IndexFormatError, match="truncated"):
            InvertedIndex.from_bytes(b"FRIX1")

    def test_first_fault_in_byte_order_is_reported(self, index5):
        """A doc id that is not UTF-8 comes before a token table cut short,
        so it is the fault named."""
        data = index5.to_bytes()
        assert data[14:16] == b"d1"
        data = data[:14] + b"d\xff" + data[16:-4]
        with pytest.raises(IndexFormatError) as excinfo:
            InvertedIndex.from_bytes(data)
        assert str(excinfo.value) == ("corrupt index: doc id at byte 14 is "
                                      "not valid UTF-8")


# d1 "aa bb bb", d2 "cc", with the one posting of aa given term frequency 0
# below, then a second fault after it in the bytes
TWO_DOCS = [(b"d1", 3, 2), (b"d2", 1, 1)]
TF_ZERO = [(b"aa", [(0, 0)]), (b"bb", [(0, 2)])]
WELL_FORMED_CC = frix(TWO_DOCS, TF_ZERO + [(b"cc", [(1, 1)])])
AA_TF_ZERO = "token 'aa' has a posting with term frequency 0"

FAULT_ORDER = {
    "tf_zero_before_ordinal_out_of_range": (
        frix(TWO_DOCS, TF_ZERO + [(b"cc", [(9, 1)])]), AA_TF_ZERO),
    "tf_zero_before_token_out_of_order": (
        frix(TWO_DOCS, TF_ZERO + [(b"ab", [(1, 1)])]), AA_TF_ZERO),
    "tf_zero_before_non_utf8_token": (
        frix(TWO_DOCS, TF_ZERO + [(b"c\xff", [(1, 1)])]), AA_TF_ZERO),
    **{f"tf_zero_before_file_cut_{cut}_bytes_short": (
        WELL_FORMED_CC[:-cut], AA_TF_ZERO) for cut in (1, 3, 8, 12)},
    "tf_zero_before_wrong_document_totals": (
        frix([(b"d1", 7, 7), (b"d2", 1, 1)], TF_ZERO + [(b"cc", [(1, 1)])]),
        AA_TF_ZERO),
    "tf_zero_before_a_later_postings_ordinal": (
        frix(TWO_DOCS, [(b"aa", [(0, 0), (9, 1)]), (b"bb", [(0, 2)])]),
        AA_TF_ZERO),
    "ordinal_before_tf_of_one_posting": (
        frix(TWO_DOCS, [(b"aa", [(1, 1), (0, 0)]), (b"bb", [(0, 2)])]),
        "token 'aa' has postings out of doc ordinal order"),
    "token_record_before_its_postings": (
        frix(TWO_DOCS, [(b"bb", [(0, 2)]), (b"aa", [(0, 0)])]),
        "token 'aa' is out of order"),
    # the third token's posting lies in a later block when blocks hold one
    # or two postings (see test_block_edges_change_no_fault)
    "later_tf_zero_before_token_out_of_order": (
        frix(TWO_DOCS, [(b"aa", [(0, 1)]), (b"bb", [(0, 2)]),
                        (b"cc", [(1, 0)]), (b"ab", [(1, 1)])]),
        "token 'cc' has a posting with term frequency 0"),
    "later_ordinal_out_of_range_before_wrong_document_totals": (
        frix([(b"d1", 7, 7), (b"d2", 1, 1)],
             [(b"aa", [(0, 1)]), (b"bb", [(0, 2)]), (b"cc", [(9, 1)])]),
        "token 'cc' has a posting for doc ordinal 9 of an index of 2 "
        "documents"),
}


@pytest.mark.parametrize("case", FAULT_ORDER)
def test_first_fault_in_byte_order_wins(case):
    """A token's record, then its postings in order, each posting's ordinal
    before its tf, all before a later token or the end of the file; each
    document's recorded totals are checked last."""
    data, problem = FAULT_ORDER[case]
    with pytest.raises(IndexFormatError) as excinfo:
        InvertedIndex.from_bytes(data)
    assert str(excinfo.value) == f"corrupt index: {problem}"


FIXTURE_BYTES = build_index(read_corpus_jsonl(
    Path(__file__).parent / "data" / "corpus5.jsonl")).to_bytes()


def assert_loads_or_rejects(data: bytes) -> None:
    """Loading either raises IndexFormatError, allocating no more than a
    small multiple of the input, or yields an index every read works on."""
    tracemalloc.start()
    try:
        index = InvertedIndex.from_bytes(data)
    except IndexFormatError:
        return
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20
    assert index.to_bytes() == data
    if not index.terms:
        return
    tf = dense_tf(extract_features(index, index.terms))
    # every candidate reaches its recorded max term frequency
    assert (tf.max(axis=0) == 1.0).all()
    assert (tf >= 0).all()


class TestMutatedBytes:
    """Every truncated or byte-flipped FRIX1 string loads or raises
    IndexFormatError, and nothing else."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, len(FIXTURE_BYTES) - 1))
    def test_truncated(self, length):
        assert_loads_or_rejects(FIXTURE_BYTES[:length])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, len(FIXTURE_BYTES) - 1), st.integers(1, 255))
    def test_byte_flipped(self, position, mask):
        data = bytearray(FIXTURE_BYTES)
        data[position] ^= mask
        assert_loads_or_rejects(bytes(data))


def load_fault(data: bytes) -> str | None:
    """The message of the IndexFormatError loading ``data`` raises, or None
    if it loads."""
    try:
        InvertedIndex.from_bytes(data)
    except IndexFormatError as error:
        return str(error)
    return None


def flipped(data: bytes, position: int, mask: int) -> bytes:
    changed = bytearray(data)
    changed[position] ^= mask
    return bytes(changed)


# the fault-order cases, the first-fault case on the fixture, and the
# fixture whole, cut at every length and with each byte flipped three ways
BLOCK_EDGE_CASES = [
    *(data for data, _ in FAULT_ORDER.values()),
    FIXTURE_BYTES[:14] + b"d\xff" + FIXTURE_BYTES[16:-4],
    FIXTURE_BYTES,
    *(FIXTURE_BYTES[:length] for length in range(len(FIXTURE_BYTES))),
    *(flipped(FIXTURE_BYTES, position, mask)
      for position in range(len(FIXTURE_BYTES)) for mask in (1, 0x80, 0xff)),
]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_block_edges_change_no_fault(monkeypatch, block):
    """The postings check runs a block of whole tokens at a time: blocks of
    one, two or three postings name the same fault as the default size, or
    load the same bytes, in every case above."""
    want = [load_fault(data) for data in BLOCK_EDGE_CASES]
    assert want.count(None) > 1
    monkeypatch.setattr(index_module, "_BLOCK_POSTINGS", block)
    assert [load_fault(data) for data in BLOCK_EDGE_CASES] == want
    for case in ("later_tf_zero_before_token_out_of_order",
                 "later_ordinal_out_of_range_before_wrong_document_totals"):
        data, problem = FAULT_ORDER[case]
        assert load_fault(data) == f"corrupt index: {problem}"


def _striped_index_bytes(stride: int) -> bytes:
    """2000 documents over 2000 tokens, token j in each document i with
    i = j mod ``stride``: 2000 / ``stride`` postings per token."""
    return build_index(
        Document(f"d{i}", " ".join(f"t{j:04d}"
                                   for j in range(i % stride, 2000, stride)))
        for i in range(2000)).to_bytes()


class TestLoadMemory:
    def test_working_memory_does_not_grow_with_the_postings(self):
        """The load checks postings a block at a time, so what it allocates
        beyond the index it keeps is the same for 50k and 400k postings
        over the same documents and tokens (one buffer of all postings,
        with its masks and uint64 copy, takes about 21 B a posting)."""
        working = []
        for stride in (80, 10):
            data = _striped_index_bytes(stride)
            tracemalloc.start()
            try:
                index = InvertedIndex(data)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(index.terms) == index.total_docs == 2000
            assert index.total_tokens == 4_000_000 // stride
            working.append(peak - kept)
        assert abs(working[1] - working[0]) < 1 << 20


class TestCorpusReading:
    def test_reads_fixture(self, data_dir):
        docs = list(read_corpus_jsonl(data_dir / "corpus5.jsonl"))
        assert [d.doc_id for d in docs] == ["d1", "d2", "d3", "d4", "d5"]

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "x", "text": "hello", "lang": "en"}\n')
        assert list(read_corpus_jsonl(path)) == [Document("x", "hello")]

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "x", "text": "ok"}\n{broken\n')
        with pytest.raises(CorpusError, match="line 2"):
            list(read_corpus_jsonl(path))

    @pytest.mark.parametrize("value, reason", [
        ("[" * 100000 + "]" * 100000, "nested too deeply"),
        ("1" * 5000, "number too long"),
    ])
    def test_json_python_cannot_convert_reports_line(self, tmp_path, value,
                                                     reason):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "x", "text": "ok"}\n'
                        f'{{"doc_id": "y", "text": "ok", "extra": {value}}}\n')
        with pytest.raises(CorpusError) as excinfo:
            list(read_corpus_jsonl(path))
        assert str(excinfo.value) == f"line 2: invalid JSON: {reason}"

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "x"}\n')
        with pytest.raises(CorpusError, match="text"):
            list(read_corpus_jsonl(path))

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('[1, 2]\n')
        with pytest.raises(CorpusError, match="object"):
            list(read_corpus_jsonl(path))
