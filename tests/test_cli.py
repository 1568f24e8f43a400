"""Command-line behavior: golden bytes, exit codes, determinism."""

import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frank import cli
from frank.cli import main
from frank.errors import FrankError, RunFormatError, read_text
from frank.evaluation import (evaluate_run, format_report, load_qrels,
                              load_run, parse_qrels, parse_run)
from frank.fis import MAX_RESOLUTION
from frank.fisfile import parse_fis_config, parse_template
from frank.index import Document, InvertedIndex, build_index, read_corpus_jsonl

from oracles import frix


@pytest.fixture()
def index_path(tmp_path, data_dir, capsys):
    path = tmp_path / "c20.idx"
    rc = main(["index", "--corpus", str(data_dir / "corpus20.jsonl"),
               "--out", str(path)])
    assert rc == 0
    capsys.readouterr()  # drain the summary line
    return path


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# d1 "apple banana banana", d2 "banana"
D1, D2 = (b"d1", 3, 2), (b"d2", 1, 1)
APPLE, BANANA = (b"apple", [(0, 1)]), (b"banana", [(0, 2), (1, 1)])

CORRUPT_INDEXES = {
    "ordinal_out_of_range": (
        [D1, D2], [APPLE, (b"banana", [(0, 2), (99, 1)])],
        "token 'banana' has a posting for doc ordinal 99 of an index of 2 "
        "documents"),
    "ordinals_decreasing": (
        [D1, D2], [APPLE, (b"banana", [(1, 1), (0, 2)])],
        "token 'banana' has postings out of doc ordinal order"),
    "ordinal_repeated": (
        [D1, D2], [APPLE, (b"banana", [(0, 2), (0, 2)])],
        "token 'banana' has postings out of doc ordinal order"),
    "tf_zero": (
        [D1, D2], [(b"apple", [(0, 0)]), BANANA],
        "token 'apple' has a posting with term frequency 0"),
    "df_zero": (
        [D1, D2], [(b"apple", []), BANANA],
        "token 'apple' has no postings"),
    "duplicate_doc_id": (
        [D1, (b"d1", 1, 1)], [APPLE, BANANA],
        "duplicate doc id 'd1'"),
    "duplicate_token": (
        [D1, D2], [APPLE, APPLE, BANANA],
        "token 'apple' is a duplicate"),
    "tokens_out_of_order": (
        [D1, D2], [BANANA, APPLE],
        "token 'apple' is out of order"),
    # a doc id the build rejects would split or vanish in a run file
    "doc_id_trailing_space": (
        [(b"d ", 3, 2), D2], [APPLE, BANANA],
        "doc id at byte 14 is empty or contains whitespace"),
    "doc_id_no_break_space": (
        [D1, ("\u00a0".encode(), 1, 1)], [APPLE, BANANA],
        "doc id at byte 28 is empty or contains whitespace"),
    "doc_id_empty": (
        [D1, (b"", 1, 1)], [APPLE, BANANA],
        "doc id at byte 28 is empty or contains whitespace"),
    "whitespace_doc_id_before_duplicate": (
        [(b"d\t1", 3, 2), D2, D2], [APPLE, BANANA],
        "doc id at byte 14 is empty or contains whitespace"),
    "whitespace_doc_id_after_duplicate": (
        [D1, D1, (b"d 2", 1, 1)], [APPLE, BANANA],
        "duplicate doc id 'd1'"),
    "doc_id_not_utf8": (
        [(b"d\xff", 3, 2), D2], [APPLE, BANANA],
        "doc id at byte 14 is not valid UTF-8"),
    "token_not_utf8": (
        [D1, D2], [(b"appl\xff", [(0, 1)]), BANANA],
        "token at byte 46 is not valid UTF-8"),
    # a string's own checks come before a later string's UTF-8 fault
    "duplicate_doc_id_before_non_utf8": (
        [D1, D1, (b"d\xff", 1, 1)], [APPLE, BANANA],
        "duplicate doc id 'd1'"),
    "tokens_out_of_order_before_non_utf8": (
        [D1, D2], [BANANA, APPLE, (b"\xff", [(0, 1)])],
        "token 'apple' is out of order"),
    "max_tf_mismatch": (
        [D1, (b"d2", 1, 2)], [APPLE, BANANA],
        "document 'd2' has max term frequency 2, inconsistent with its "
        "postings"),
    "token_count_mismatch": (
        [D1, (b"d2", 2, 1)], [APPLE, BANANA],
        "document 'd2' has token count 2, inconsistent with its postings"),
    "token_count_reported_before_max_tf": (
        [D1, (b"d2", 2, 2)], [APPLE, BANANA],
        "document 'd2' has token count 2, inconsistent with its postings"),
    "lowest_bad_document_reported": (
        [(b"d1", 3, 3), (b"d2", 2, 1)], [APPLE, BANANA],
        "document 'd1' has max term frequency 3, inconsistent with its "
        "postings"),
}


class TestIndex:
    def test_summary_line(self, capsys, tmp_path, data_dir):
        rc, out, _ = run_cli(capsys, [
            "index", "--corpus", str(data_dir / "corpus5.jsonl"),
            "--out", str(tmp_path / "c5.idx")])
        assert rc == 0
        assert out == "docs=5 terms=6 tokens=15\n"

    def test_rebuild_is_byte_identical(self, capsys, tmp_path, data_dir):
        a = tmp_path / "a.idx"
        b = tmp_path / "b.idx"
        corpus = str(data_dir / "corpus5.jsonl")
        assert main(["index", "--corpus", corpus, "--out", str(a)]) == 0
        assert main(["index", "--corpus", corpus, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_doc_id_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text('{"doc_id": "x", "text": "a b"}\n'
                          '{"doc_id": "x", "text": "c d"}\n')
        rc, _, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(tmp_path / "o.idx")])
        assert rc == 2
        assert err.startswith("frank: error:")

    def test_duplicate_doc_id_names_its_line(self, capsys, tmp_path):
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text('{"doc_id": "a", "text": "x"}\n\n'
                          '{"doc_id": "a", "text": "y"}\n')
        rc, out, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(tmp_path / "o.idx")])
        assert rc == 2
        assert out == ""
        assert err == "frank: error: line 3: duplicate doc_id 'a'\n"

    def test_invalid_utf8_line_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_bytes(b'{"doc_id": "x", "text": "ok"}\n'
                           b'{"doc_id": "y", "text": "\xff"}\n')
        rc, out, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(tmp_path / "o.idx")])
        assert rc == 2
        assert out == ""
        assert err == "frank: error: line 2: invalid UTF-8 at byte 25\n"

    def test_lone_surrogate_doc_id_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"doc_id": "\\ud800", "text": "apple"}\n')
        rc, out, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(tmp_path / "o.idx")])
        assert rc == 2
        assert out == ""
        assert err == ("frank: error: line 1: doc_id '\\ud800' is not "
                       "valid Unicode\n")

    @pytest.mark.parametrize("doc_id",
                             ["a b", "a\tb", " ", "", "a\u00a0b", "\x1f"])
    def test_doc_id_not_one_run_field_exits_2(self, capsys, tmp_path,
                                              doc_id):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(json.dumps({"doc_id": doc_id, "text": "ice"}) + "\n")
        rc, out, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(tmp_path / "o.idx")])
        assert rc == 2
        assert out == ""
        assert err == (f"frank: error: line 1: doc_id {doc_id!r} is empty "
                       "or contains whitespace\n")

    def test_lone_surrogate_in_text_splits_words(self, capsys, tmp_path):
        """JSON can escape a lone surrogate into a text, which UTF-8 cannot
        encode: it splits words as any non-ASCII character does."""
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "river \\ud800flood"}\n')
        path = tmp_path / "o.idx"
        rc, _, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(path)])
        assert (rc, err) == (0, "")
        assert InvertedIndex.load(path).terms == ["flood", "river"]

    def test_malformed_line_reports_number(self, capsys, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"doc_id": "x", "text": "ok"}\nnot json\n')
        rc, _, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(tmp_path / "o.idx")])
        assert rc == 2
        assert "line 2" in err


class TestSearch:
    def test_fis_batch_matches_golden(self, capsys, index_path, data_dir,
                                      golden_dir):
        rc, out, _ = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "fis",
            "--template", str(data_dir / "template_default.cfg"),
            "--queries", str(data_dir / "queries5.tsv"), "--tag", "rfis"])
        assert rc == 0
        assert out == (golden_dir / "run_fis.txt").read_text()

    def test_baseline_batch_matches_golden(self, capsys, index_path, data_dir,
                                           golden_dir):
        rc, out, _ = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--queries", str(data_dir / "queries5.tsv"), "--tag", "vector"])
        assert rc == 0
        assert out == (golden_dir / "run_baseline.txt").read_text()

    def test_repeated_search_is_byte_identical(self, capsys, index_path,
                                               data_dir):
        argv = ["search", "--index", str(index_path), "--ranker", "fis",
                "--template", str(data_dir / "template_default.cfg"),
                "--queries", str(data_dir / "queries5.tsv")]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("ranker", ["baseline", "fis"])
    @pytest.mark.parametrize("max_tf", [0, 1])
    def test_corrupt_max_term_frequency_exits_2(self, capsys, tmp_path,
                                                data_dir, ranker, max_tf):
        """d1 holds banana twice; an index that records its max term
        frequency as 0 or 1 is corrupt, and searching it fails cleanly."""
        path = tmp_path / "c5.idx"
        assert main(["index", "--corpus", str(data_dir / "corpus5.jsonl"),
                     "--out", str(path)]) == 0
        capsys.readouterr()
        data = bytearray(path.read_bytes())
        # FRIX1, version, doc count, then d1: id length, id, token count, max tf
        assert data[:16] == b"FRIX1\x01" + struct.pack("<II", 5, 2) + b"d1"
        assert struct.unpack_from("<II", data, 16) == (3, 2)
        struct.pack_into("<I", data, 20, max_tf)
        path.write_bytes(bytes(data))
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(path), "--ranker", ranker,
            "--template", str(data_dir / "template_default.cfg"),
            "--query", "banana"])
        assert rc == 2
        assert out == ""
        assert err == ("frank: error: corrupt index: document 'd1' has max "
                       f"term frequency {max_tf}, inconsistent with its "
                       "postings\n")

    def test_frix_helper_writes_what_build_index_writes(self):
        built = build_index([Document("d1", "apple banana banana"),
                             Document("d2", "banana")])
        assert frix([D1, D2], [APPLE, BANANA]) == built.to_bytes()

    @pytest.mark.parametrize("case", sorted(CORRUPT_INDEXES))
    def test_corrupt_index_exits_2(self, capsys, tmp_path, case):
        """Loading checks the index's meaning, not only its framing."""
        docs, terms, problem = CORRUPT_INDEXES[case]
        path = tmp_path / "corrupt.idx"
        path.write_bytes(frix(docs, terms))
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(path), "--ranker", "baseline",
            "--query", "apple banana"])
        assert rc == 2
        assert out == ""
        assert err == f"frank: error: corrupt index: {problem}\n"

    @pytest.mark.parametrize("ranker", ["baseline", "fis"])
    def test_query_without_hits_writes_nothing(self, capsys, index_path,
                                               data_dir, ranker):
        rc, out, _ = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", ranker,
            "--template", str(data_dir / "template_default.cfg"),
            "--query", "zzzz qqqq"])
        assert rc == 0
        assert out == ""

    def test_k_one_yields_one_line(self, capsys, index_path, data_dir):
        rc, out, _ = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--query", "river flood levee", "--topic", "103", "--k", "1"])
        assert rc == 0
        assert out.count("\n") == 1
        assert out.startswith("103 Q0 d11 1 ")

    @pytest.mark.parametrize("index_exists", [True, False])
    def test_k_below_one_exits_1_before_loading(self, capsys, index_path,
                                                index_exists):
        if not index_exists:
            index_path.unlink()
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--query", "river", "--k", "0"])
        assert (rc, out) == (1, "")
        assert err == "frank: error: --k must be >= 1, got 0\n"

    def test_fis_requires_template(self, capsys, index_path):
        rc, _, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "fis",
            "--query", "river"])
        assert rc == 1
        assert "--template" in err

    def test_fis_requires_template_before_loading(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(tmp_path / "missing.idx"),
            "--ranker", "fis", "--query", "ice"])
        assert (rc, out) == (1, "")
        assert err == ("frank: error: --template is required with --ranker "
                       "fis\n")

    def test_missing_template_named_before_the_index(self, capsys):
        rc, out, err = run_cli(capsys, [
            "search", "--index", "/nonexistent.idx", "--ranker", "fis",
            "--template", "/nonexistent.cfg", "--query", "ice"])
        assert (rc, out) == (2, "")
        assert "/nonexistent.cfg" in err
        assert "/nonexistent.idx" not in err

    def test_bad_template_reported_before_the_index(self, capsys, tmp_path,
                                                   data_dir):
        template = tmp_path / "template.cfg"
        template.write_text((data_dir / "template_default.cfg").read_text()
                            .replace("[output relevance]\nuniverse 0 1\n"
                                     "set high trimf 0 1 1\n"
                                     "set not_high trimf 0 0 1\n", ""))
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(tmp_path / "missing.idx"),
            "--ranker", "fis", "--template", str(template), "--query", "ice"])
        assert (rc, out) == (2, "")
        assert err == "frank: error: line 26: missing [output] section\n"

    def test_stopword_only_query_exits_1(self, capsys, index_path):
        rc, _, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--query", "the of and"])
        assert rc == 1
        assert "empty" in err

    def test_query_and_queries_conflict(self, capsys, index_path, data_dir):
        rc, _, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--query", "river", "--queries", str(data_dir / "queries5.tsv")])
        assert rc == 1

    def test_malformed_batch_line_exits_2(self, capsys, index_path, tmp_path):
        batch = tmp_path / "queries.tsv"
        batch.write_text("101 no tab here\n")
        rc, _, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--queries", str(batch)])
        assert rc == 2
        assert "line 1" in err

    @pytest.mark.parametrize("inside", ["\u2028", "\f"])
    def test_query_line_ends_only_at_a_newline(self, capsys, index_path,
                                               tmp_path, inside):
        runs = []
        for text in (f"river{inside}flood", "river flood"):
            batch = tmp_path / "queries.tsv"
            batch.write_text(f"1\t{text}\n", encoding="utf-8")
            rc, out, err = run_cli(capsys, [
                "search", "--index", str(index_path), "--ranker", "baseline",
                "--queries", str(batch)])
            assert (rc, err) == (0, "")
            runs.append(out)
        assert runs[0] == runs[1] != ""

    def test_blank_batch_lines_are_skipped(self, capsys, index_path,
                                           tmp_path, data_dir):
        lines = (data_dir / "queries5.tsv").read_text().splitlines()
        runs = []
        for separator in ("\n", "\n\n \t\n\n"):
            batch = tmp_path / "queries.tsv"
            batch.write_text(separator.join(lines) + "\n")
            rc, out, err = run_cli(capsys, [
                "search", "--index", str(index_path), "--ranker", "baseline",
                "--queries", str(batch)])
            assert (rc, err) == (0, "")
            runs.append(out)
        assert runs[0] == runs[1] != ""

    def test_topic_with_whitespace_exits_2(self, capsys, index_path, tmp_path):
        batch = tmp_path / "queries.tsv"
        batch.write_text("101\triver\n1 02\tflood\n")
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--queries", str(batch)])
        assert rc == 2
        assert out == ""
        assert err == "frank: error: line 2: whitespace in topic '1 02'\n"

    @pytest.mark.parametrize("index_name", ["index", "missing"])
    def test_duplicate_topic_names_its_line_before_loading(
            self, capsys, index_path, tmp_path, monkeypatch, index_name):
        # the batch is read before the index is loaded or a query ranked
        def rank(*args, **kwargs):
            raise AssertionError("a query was ranked")

        monkeypatch.setattr(cli, "score_baseline", rank)
        batch = tmp_path / "queries.tsv"
        batch.write_text("7\triver\n8\tflood\n7\tice core\n")
        index = index_path if index_name == "index" else tmp_path / "none"
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index), "--ranker", "baseline",
            "--queries", str(batch)])
        assert rc == 2
        assert out == ""
        assert err == "frank: error: line 3: duplicate topic 7\n"

    @pytest.mark.parametrize("index_name", ["index", "missing"])
    def test_empty_query_in_batch_names_its_line_before_loading(
            self, capsys, index_path, tmp_path, monkeypatch, index_name):
        def rank(*args, **kwargs):
            raise AssertionError("a query was ranked")

        monkeypatch.setattr(cli, "score_baseline", rank)
        batch = tmp_path / "queries.tsv"
        batch.write_text("1\tfuzzy ranking\n2\tthe of\n")
        index = index_path if index_name == "index" else tmp_path / "none"
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index), "--ranker", "baseline",
            "--queries", str(batch)])
        assert rc == 2
        assert out == ""
        assert err == ("frank: error: line 2: topic 2: query is empty after "
                       "tokenization\n")

    @pytest.mark.parametrize("flag, value", [
        ("--topic", "my topic"), ("--topic", ""),
        ("--tag", "my run"), ("--tag", ""), ("--tag", "run\u2028b"),
    ])
    def test_topic_or_tag_not_one_word_exits_1(self, capsys, index_path,
                                               flag, value):
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--query", "river", flag, value])
        assert rc == 1
        assert out == ""
        assert err == f"frank: error: {flag} must be one word, got {value!r}\n"

    @pytest.mark.parametrize("flag", ["--topic", "--tag"])
    def test_topic_or_tag_not_utf8_exits_1(self, capsys, index_path, flag):
        """An argument byte that does not decode reaches argv as a lone
        surrogate, which a run file cannot hold."""
        value = os.fsdecode(b"t\xff")
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--query", "river", flag, value])
        assert rc == 1
        assert out == ""
        assert err == (f"frank: error: {flag} must be UTF-8 text, "
                       f"got {value!r}\n")

    def test_resolution_override_changes_scores(self, capsys, index_path,
                                                data_dir, tmp_path):
        template = data_dir / "template_default.cfg"
        coarse = tmp_path / "coarse.cfg"
        coarse.write_text(template.read_text().replace(
            "resolution 1001", "resolution 51"))
        argv = ["search", "--index", str(index_path), "--ranker", "fis",
                "--query", "banana bread flour", "--topic", "102",
                "--template"]
        _, default_out, _ = run_cli(capsys, argv + [str(template)])
        _, coarse_out, _ = run_cli(capsys, argv + [str(coarse)])
        assert default_out != coarse_out
        # same candidates and ordering, different decimals
        assert [l.split()[2] for l in default_out.splitlines()] == \
            [l.split()[2] for l in coarse_out.splitlines()]

    def test_resolution_environment_variable_is_ignored(
            self, capsys, index_path, data_dir, monkeypatch):
        commands = (
            ["search", "--index", str(index_path), "--ranker", "fis",
             "--template", str(data_dir / "template_default.cfg"),
             "--query", "banana bread flour"],
            ["fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
             "--in", "tf=0.7", "--in", "idf=0.6"],
        )
        for argv in commands:
            monkeypatch.delenv("FRANK_RESOLUTION", raising=False)
            plain = run_cli(capsys, argv)
            assert plain[0] == 0
            for value in ("banana", str(MAX_RESOLUTION + 1)):
                monkeypatch.setenv("FRANK_RESOLUTION", value)
                assert run_cli(capsys, argv) == plain

    def test_template_error_exits_2_before_searching(self, capsys, index_path,
                                                      data_dir, tmp_path):
        template = tmp_path / "template.cfg"
        template.write_text(
            (data_dir / "template_default.cfg").read_text()
            + "if (tf is low) -> (relevance is high)\n")
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "fis",
            "--template", str(template), "--query", "river"])
        assert rc == 2
        assert out == ""
        assert err == (
            "frank: error: line 31: variable 'tf' has no set 'low'\n")

    def test_mixed_placeholder_rule_names_its_line(self, capsys, index_path,
                                                   data_dir, tmp_path):
        template = tmp_path / "template.cfg"
        template.write_text(
            (data_dir / "template_default.cfg").read_text()
            + "if (tf is high) and (overlap is high) -> (relevance is high)\n")
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "fis",
            "--template", str(template), "--query", "river"])
        assert (rc, out) == (2, "")
        assert err == (
            "frank: error: line 31: template rule mixes placeholders "
            "['overlap', 'tf']; a rule may use tf/idf or overlap, not both\n")

    def test_overweighted_overlap_template_exits_2(self, capsys, index_path,
                                                   data_dir, tmp_path):
        """Rejected at load, so a two-term query (overlap weight 2 / 2 = 1,
        which instantiates) does not run either."""
        template = tmp_path / "template.cfg"
        template.write_text(
            (data_dir / "template_default.cfg").read_text().replace(
                "overlap_weight_ratio 0.16666666666666666",
                "overlap_weight_ratio 2.0"))
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "fis",
            "--template", str(template), "--query", "ice core"])
        assert rc == 2
        assert out == ""
        assert err == ("frank: error: line 29: overlap rule weight 1.0 * "
                       "overlap_weight_ratio outside (0, 1]\n")


class TestEvalAndDiff:
    def test_eval_fis_matches_golden(self, capsys, data_dir, golden_dir):
        rc, out, _ = run_cli(capsys, [
            "eval", "--run", str(golden_dir / "run_fis.txt"),
            "--qrels", str(data_dir / "qrels20.txt")])
        assert rc == 0
        assert out == (golden_dir / "report_fis.txt").read_text()

    def test_eval_baseline_matches_golden(self, capsys, data_dir, golden_dir):
        rc, out, _ = run_cli(capsys, [
            "eval", "--run", str(golden_dir / "run_baseline.txt"),
            "--qrels", str(data_dir / "qrels20.txt")])
        assert rc == 0
        assert out == (golden_dir / "report_baseline.txt").read_text()

    def test_eval_jsonl_matches_golden(self, capsys, tmp_path, data_dir,
                                       golden_dir):
        jsonl = tmp_path / "report.jsonl"
        rc, _, _ = run_cli(capsys, [
            "eval", "--run", str(golden_dir / "run_fis.txt"),
            "--qrels", str(data_dir / "qrels20.txt"),
            "--jsonl", str(jsonl)])
        assert rc == 0
        assert jsonl.read_text() == (golden_dir / "report_fis.jsonl").read_text()

    def test_eval_jsonl_write_failure_prints_its_error_only(
            self, capsys, tmp_path, data_dir, golden_dir):
        rc, out, err = run_cli(capsys, [
            "eval", "--run", str(golden_dir / "run_fis.txt"),
            "--qrels", str(data_dir / "qrels20.txt"),
            "--jsonl", str(tmp_path / "missing" / "report.jsonl")])
        assert rc == 2
        assert out == ""
        assert err.startswith("frank: error: ") and err.count("\n") == 1

    def test_diff_matches_golden(self, capsys, data_dir, golden_dir):
        rc, out, _ = run_cli(capsys, [
            "diff", "--run-a", str(golden_dir / "run_baseline.txt"),
            "--run-b", str(golden_dir / "run_fis.txt"),
            "--qrels", str(data_dir / "qrels20.txt")])
        assert rc == 0
        assert out == (golden_dir / "report_diff.txt").read_text()

    def test_topic_without_relevant_documents_warns_on_one_line(
            self, capsys, tmp_path, data_dir, golden_dir):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text((data_dir / "qrels20.txt").read_text().replace(
            "102 0 d03 1", "102 0 d03 0"))
        run = golden_dir / "run_fis.txt"
        with pytest.warns(UserWarning):
            report = evaluate_run(load_run(run), load_qrels(qrels))
        rc, out, err = run_cli(capsys, [
            "eval", "--run", str(run), "--qrels", str(qrels)])
        assert rc == 0
        assert out == format_report(report, "rfis")
        assert err == ("frank: warning: topic(s) with no relevant documents "
                       "excluded from averages: 102\n")

    def test_diff_warns_once_for_both_runs(self, capsys, tmp_path, data_dir,
                                           golden_dir):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text((data_dir / "qrels20.txt").read_text().replace(
            "102 0 d03 1", "102 0 d03 0"))
        run = str(golden_dir / "run_fis.txt")
        rc, out, err = run_cli(capsys, [
            "diff", "--run-a", run, "--run-b", run, "--qrels", str(qrels)])
        assert rc == 0
        assert out.count("\n") == 3
        assert err == ("frank: warning: topic(s) with no relevant documents "
                       "excluded from averages: 102\n")

    def test_failed_command_prints_its_error_only(self, capsys, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text("101 Q0 d07 1 0.5 x\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("101 0 d07 0\n")
        rc, out, err = run_cli(capsys, [
            "eval", "--run", str(run), "--qrels", str(qrels)])
        assert rc == 2
        assert out == ""
        assert err == ("frank: error: no topics with relevant documents to "
                       "evaluate\n")

    def test_diff_with_itself_is_all_zero(self, capsys, data_dir, golden_dir):
        rc, out, _ = run_cli(capsys, [
            "diff", "--run-a", str(golden_dir / "run_fis.txt"),
            "--run-b", str(golden_dir / "run_fis.txt"),
            "--qrels", str(data_dir / "qrels20.txt")])
        assert rc == 0
        delta_row = out.splitlines()[2]
        assert "+0.0000" in delta_row
        assert "+0.00%" in delta_row

    def test_perfect_run_reports_unit_map(self, capsys, tmp_path, data_dir):
        run = tmp_path / "perfect.run"
        lines = []
        for topic, doc in (("101", "d07"), ("102", "d03")):
            lines.append(f"{topic} Q0 {doc} 1 1.000000 perfect")
        run.write_text("\n".join(lines) + "\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("101 0 d07 1\n102 0 d03 1\n")
        rc, out, _ = run_cli(capsys, [
            "eval", "--run", str(run), "--qrels", str(qrels)])
        assert rc == 0
        assert "1.0000" in out

    def test_topic_mismatch_exits_2(self, capsys, tmp_path, data_dir,
                                    golden_dir):
        qrels = tmp_path / "tiny.txt"
        qrels.write_text("101 0 d07 1\n")
        rc, _, err = run_cli(capsys, [
            "eval", "--run", str(golden_dir / "run_fis.txt"),
            "--qrels", str(qrels)])
        assert rc == 2
        assert "absent from qrels" in err


class TestFisEval:
    def test_crisp_output(self, capsys, data_dir):
        rc, out, _ = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf=0.7", "--in", "idf=0.6"])
        assert rc == 0
        assert out == "crisp 0.592778\n"

    def test_verbose_matches_golden(self, capsys, data_dir, golden_dir):
        rc, out, _ = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf=0.7", "--in", "idf=0.6", "--verbose"])
        assert rc == 0
        assert out == (golden_dir / "fis_eval_verbose.txt").read_text()
        assert "strength 0.420000" in out

    def test_unknown_variable_exits_1(self, capsys, data_dir):
        rc, _, err = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf=0.7", "--in", "nope=0.6"])
        assert rc == 1
        assert "nope" in err

    def test_missing_input_exits_1(self, capsys, data_dir):
        rc, _, err = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf=0.7"])
        assert rc == 1
        assert "idf" in err

    def test_malformed_assignment_exits_1(self, capsys, data_dir):
        rc, _, err = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf:0.7", "--in", "idf=0.6"])
        assert rc == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_exits_1(self, capsys, data_dir, value):
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", f"tf={value}", "--in", "idf=0.6"])
        assert rc == 1
        assert out == ""
        assert err == f"frank: error: --in tf: not a finite number: {value!r}\n"

    def test_non_numeric_input_exits_1(self, capsys, data_dir):
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf=abc", "--in", "idf=0.6"])
        assert (rc, out) == (1, "")
        assert err == "frank: error: --in tf: not a number: 'abc'\n"

    def test_repeated_input_exits_1(self, capsys, data_dir):
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf=0.1", "--in", "idf=0.5", "--in", "tf=0.9"])
        assert (rc, out) == (1, "")
        assert err == "frank: error: --in tf: given more than once\n"

    def test_resolution_override_applies(self, capsys, data_dir, tmp_path):
        config = tmp_path / "fine.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            "resolution 1001", "resolution 100001"))
        _, fine, _ = run_cli(capsys, [
            "fis-eval", "--config", str(config),
            "--in", "tf=0.7", "--in", "idf=0.6"])
        # converges toward the continuous centroid 0.592593
        assert fine == "crisp 0.592594\n"

    def test_all_zero_aggregate_warns_on_one_line(self, capsys, data_dir):
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
            "--in", "tf=1", "--in", "idf=0"])
        assert rc == 0
        assert out == "crisp 0.500000\n"
        assert err == ("frank: warning: all-zero aggregate set; "
                       "defuzzifying to the universe midpoint\n")

    @pytest.mark.parametrize("section, universe", [
        ("[output relevance]", "0 inf"),
        ("[output relevance]", "-1e308 1e308"),
        ("[variable tf]", "0 inf"),
    ])
    def test_non_finite_universe_exits_2(self, capsys, data_dir, tmp_path,
                                         section, universe):
        config = tmp_path / "system.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            f"{section}\nuniverse 0 1", f"{section}\nuniverse {universe}"))
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(config),
            "--in", "tf=0.5", "--in", "idf=0.5"])
        assert rc == 2
        assert out == ""
        assert err.startswith("frank: error: ")
        assert "finite hi - lo" in err
        assert err.count("\n") == 1


    @pytest.mark.parametrize("command", [
        ["fis-eval", "--in", "tf=0.5", "--in", "idf=0.5"],
        ["mf-data", "--var", "relevance", "--samples", "5"],
    ], ids=["fis-eval", "mf-data"])
    def test_underflowing_gaussian_exits_2(self, capsys, data_dir, tmp_path,
                                           command):
        config = tmp_path / "system.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            "[output relevance]\nuniverse 0 1\nset high trimf 0 1 1",
            "[output relevance]\nuniverse 0 1\nset high gaussmf 1e-320 0.5"))
        rc, out, err = run_cli(capsys, [*command, "--config", str(config)])
        assert rc == 2
        assert out == ""
        assert err == ("frank: error: line 12: gaussian requires sigma > 0 "
                       "and 2 sigma^2 > 0, got 1e-320\n")

    @pytest.mark.parametrize("command", [
        ["fis-eval", "--in", "tf=0.7", "--in", "idf=0.6"],
        ["mf-data", "--var", "tf", "--samples", "5"],
    ], ids=["fis-eval", "mf-data"])
    @pytest.mark.parametrize("curve, message", [
        ("gaussmf 1e200 1e300", "gaussian requires a finite 2 sigma^2, "
                                "got 1e+200"),
        ("trimf -1e308 1e308 1e308", "triangular requires finite edge "
                                     "spans, got (-1e+308, 1e+308, 1e+308)"),
    ], ids=["gaussian", "triangle"])
    def test_overflowing_curve_exits_2(self, capsys, data_dir, tmp_path,
                                       command, curve, message):
        config = tmp_path / "system.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            "[variable tf]\nuniverse 0 1\nset high trimf 0 1 1",
            f"[variable tf]\nuniverse 0 1\nset high {curve}"))
        rc, out, err = run_cli(capsys, [*command, "--config", str(config)])
        assert rc == 2
        assert out == ""
        assert err == f"frank: error: line 4: {message}\n"

    def test_resolution_below_two_names_its_line(self, capsys, data_dir,
                                                 tmp_path):
        config = tmp_path / "system.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            "resolution 1001", "resolution 1"))
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(config),
            "--in", "tf=0.7", "--in", "idf=0.6"])
        assert (rc, out) == (2, "")
        assert err == "frank: error: line 19: resolution must be >= 2, got 1\n"

    @pytest.mark.parametrize("implication", ["prod", "min"])
    def test_overflowing_centroid_universe_exits_2(self, capsys, data_dir,
                                                   tmp_path, implication):
        config = tmp_path / "system.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            "[output relevance]\nuniverse 0 1\nset high trimf 0 1 1\n"
            "set not_high trimf 0 0 1",
            "[output relevance]\nuniverse 0 1e308\n"
            "set high trimf 0 1e308 1e308\nset not_high trimf 0 0 1e308"
        ).replace("implication prod", f"implication {implication}"))
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(config),
            "--in", "tf=0.7", "--in", "idf=0.6"])
        assert rc == 2
        assert out == ""
        # a whole-file fault names the [rules] header
        assert err == ("frank: error: line 20: output universe (0.0, 1e+308) "
                       "is too wide for 2 rules at resolution 1001: the "
                       "centroid sums overflow\n")

    def test_universe_error_names_its_section_line(self, capsys, data_dir,
                                                   tmp_path):
        config = tmp_path / "system.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            "[variable tf]\nuniverse 0 1", "[variable tf]\nuniverse 0 inf"))
        rc, out, err = run_cli(capsys, [
            "fis-eval", "--config", str(config),
            "--in", "tf=0.5", "--in", "idf=0.5"])
        assert rc == 2
        assert out == ""
        assert err == ("frank: error: line 2: variable 'tf': universe "
                       "requires lo < hi and a finite hi - lo, got "
                       "(0.0, inf)\n")


class TestTextInputs:
    """Every text input is read by one reader: invalid UTF-8 exits 2 with
    one line naming where, and valid bytes read as ``Path.read_text``."""

    # the file, the line that gets the bad byte, and the command
    CASES = {
        "run": ("golden/run_fis.txt", 2, [
            "eval", "--run", "{bad}", "--qrels", "{tests}/data/qrels20.txt"]),
        "qrels": ("data/qrels20.txt", 2, [
            "eval", "--run", "{tests}/golden/run_fis.txt", "--qrels", "{bad}"]),
        "queries": ("data/queries5.tsv", 2, [
            "search", "--index", "{index}", "--ranker", "baseline",
            "--queries", "{bad}"]),
        "config": ("data/fis_basic.cfg", 1, [  # a comment line
            "fis-eval", "--config", "{bad}", "--in", "tf=0.5",
            "--in", "idf=0.5"]),
        "template": ("data/template_default.cfg", 3, [
            "search", "--index", "{index}", "--ranker", "fis",
            "--template", "{bad}", "--query", "river"]),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_invalid_utf8_exits_2_with_its_line(self, capsys, tmp_path,
                                                index_path, kind):
        name, line, argv = self.CASES[kind]
        tests = Path(__file__).parent
        lines = (tests / name).read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
        bad = tmp_path / "bad"
        bad.write_bytes(b"".join(lines))
        rc, out, err = run_cli(capsys, [
            arg.format(bad=bad, tests=tests, index=index_path)
            for arg in argv])
        assert rc == 2
        assert out == ""
        assert err == f"frank: error: line {line}: invalid UTF-8 at byte 3\n"

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_leading_byte_order_mark_is_dropped(self, capsys, tmp_path,
                                                index_path, kind):
        name, _, argv = self.CASES[kind]
        tests = Path(__file__).parent
        bom = tmp_path / "bom"
        bom.write_bytes(b"\xef\xbb\xbf" + (tests / name).read_bytes())
        results = [run_cli(capsys, [
            arg.format(bad=path, tests=tests, index=index_path)
            for arg in argv]) for path in (tests / name, bom)]
        assert results[0][0] == 0
        assert results[1] == results[0]

    @pytest.mark.parametrize("data, message", [
        # the byte counts the mark, as the file holds it
        (b"\xef\xbb\xbfab\xff", "line 1: invalid UTF-8 at byte 5"),
        # breaks that str.splitlines knows, but a line does not end at
        (b"a\xe2\x80\xa8b\x0b\n\x0cc\xc2\x85\x1c\xff",
         "line 2: invalid UTF-8 at byte 5"),
    ])
    def test_invalid_utf8_names_the_line_the_parsers_count(self, tmp_path,
                                                          data, message):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        with pytest.raises(RunFormatError) as excinfo:
            read_text(path, RunFormatError)
        assert str(excinfo.value) == message

    # every character str.splitlines breaks at, besides \n and \r
    BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"

    @pytest.mark.parametrize("parse, good, bad, line", [
        (parse_qrels, "1 0 a 1", "1 0 b x",
         "line 2: relevance must be an integer, got 'x'"),
        (parse_run, "1 Q0 a 1 0.5 t", "1 Q0 b 2 0.4 u",
         "line 2: conflicting run tags 't' and 'u'"),
        (parse_fis_config, "[rules]", "if (x is) -> (y is b)",
         "line 2, column 9: found ')', expected identifier"),
        (parse_fis_config, "[variable x]", "[bogus]",
         "line 2: unknown section '[bogus]'"),
        (parse_template, "[variable x]", "[bogus]",
         "line 2: unknown section '[bogus]'"),
    ], ids=["qrels", "run", "rules", "config", "template"])
    def test_parsers_end_lines_only_at_newlines(self, parse, good, bad, line):
        """Also with a leading byte order mark, which every parser drops as
        it splits the text, not only when it reads a file."""
        for bom in ("", "\ufeff"):
            for newline in ("\n", "\r\n", "\r"):
                with pytest.raises(FrankError) as excinfo:
                    parse(f"{bom}{good}{self.BREAKS}{newline}{bad}{newline}")
                assert str(excinfo.value) == line

    def test_text_passed_in_drops_a_leading_bom(self):
        """The byte order mark is not part of the first topic."""
        assert list(parse_run("\ufeff1 Q0 a 1 0.5 t\n").topics) == ["1"]
        assert parse_qrels("\ufeff1 0 a 1\n").judgments == {("1", "a"): 1}

    def test_line_counts_every_line_break(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_bytes(b"a\r\nb\rc\nd\xc3\xa9\xff")
        with pytest.raises(RunFormatError) as excinfo:
            read_text(path, RunFormatError)
        assert str(excinfo.value) == "line 4: invalid UTF-8 at byte 3"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.text(alphabet="ab\u00e9\r\n\t \u2028\x85", max_size=20))
    def test_valid_text_reads_as_path_read_text(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "input.txt"
            path.write_bytes(text.encode("utf-8"))
            assert read_text(path, RunFormatError) == path.read_text(
                encoding="utf-8")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, data_dir, golden_dir):
    """A valid file for every input slot of a subcommand."""
    directory = tmp_path_factory.mktemp("valid")
    index = directory / "c20.idx"
    build_index(read_corpus_jsonl(data_dir / "corpus20.jsonl")).save(index)
    return {"corpus": data_dir / "corpus20.jsonl", "index": index,
            "queries": data_dir / "queries5.tsv",
            "template": data_dir / "template_default.cfg",
            "run": golden_dir / "run_fis.txt",
            "qrels": data_dir / "qrels20.txt",
            "config": data_dir / "fis_basic.cfg"}


# each input slot, with every command that reads a file in it
SLOT_COMMANDS = {
    "corpus": [["index", "--corpus", "{bad}", "--out", "{out}"]],
    "index": [
        ["search", "--index", "{bad}", "--ranker", "baseline",
         "--queries", "{queries}"],
        ["search", "--index", "{bad}", "--ranker", "fis",
         "--template", "{template}", "--query", "river flood"]],
    "queries": [
        ["search", "--index", "{index}", "--ranker", "baseline",
         "--queries", "{bad}"],
        ["search", "--index", "{index}", "--ranker", "fis",
         "--template", "{template}", "--queries", "{bad}"]],
    "template": [
        ["search", "--index", "{index}", "--ranker", "fis",
         "--template", "{bad}", "--queries", "{queries}"]],
    "run": [
        ["eval", "--run", "{bad}", "--qrels", "{qrels}"],
        ["diff", "--run-a", "{run}", "--run-b", "{bad}",
         "--qrels", "{qrels}"]],
    "qrels": [
        ["eval", "--run", "{run}", "--qrels", "{bad}"],
        ["diff", "--run-a", "{run}", "--run-b", "{run}", "--qrels", "{bad}"]],
    "config": [
        ["fis-eval", "--config", "{bad}", "--in", "tf=0.7", "--in", "idf=0.6",
         "--verbose"],
        ["mf-data", "--config", "{bad}", "--var", "tf", "--samples", "5"]],
}


@st.composite
def file_inputs(draw):
    """A slot, one of its commands and the bytes of its file: arbitrary, or
    a valid file with one byte replaced (the valid file is read later)."""
    slot = draw(st.sampled_from(sorted(SLOT_COMMANDS)))
    command = draw(st.sampled_from(SLOT_COMMANDS[slot]))
    if draw(st.booleans()):
        return slot, command, draw(st.binary(max_size=80))
    return slot, command, (draw(st.floats(0.0, 1.0, exclude_max=True)),
                           draw(st.integers(0, 255)))


DATA = Path(__file__).parent / "data"
# topic 101 loses its one relevant document, so each evaluation warns
QRELS_101_UNJUDGED = (DATA / "qrels20.txt").read_bytes().replace(
    b"101 0 d07 1", b"101 0 d07 0")
# 2 sigma^2 overflows: numpy warned twice and the degrees were nan
CONFIG_WIDE_GAUSSIAN = (DATA / "fis_basic.cfg").read_bytes().replace(
    b"set high trimf 0 1 1", b"set high gaussmf 1e200 1e300", 1)
# json.loads raised RecursionError and ValueError on these corpus lines
CORPUS_DEEP_FIELD = (b'{"doc_id": "d", "text": "t", "extra": '
                     + b"[" * 100000 + b"]" * 100000 + b"}\n")
CORPUS_LONG_INTEGER = (b'{"doc_id": "d", "text": "t", "extra": '
                       + b"1" * 5000 + b"}\n")


class TestArbitraryInputFiles:
    """Whatever bytes an input file holds, every subcommand that reads it
    exits 0, 1 or 2 and writes nothing or one ``frank:`` line to stderr;
    one that fails writes nothing to stdout."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=file_inputs())
    @example(case=("qrels", SLOT_COMMANDS["qrels"][1], QRELS_101_UNJUDGED))
    @example(case=("config", SLOT_COMMANDS["config"][0], CONFIG_WIDE_GAUSSIAN))
    @example(case=("config", SLOT_COMMANDS["config"][1], CONFIG_WIDE_GAUSSIAN))
    @example(case=("corpus", SLOT_COMMANDS["corpus"][0], CORPUS_DEEP_FIELD))
    @example(case=("corpus", SLOT_COMMANDS["corpus"][0], CORPUS_LONG_INTEGER))
    def test_exit_code_and_one_stderr_line(self, valid_files, case):
        slot, command, data = case
        if isinstance(data, tuple):
            where, byte = data
            data = bytearray(valid_files[slot].read_bytes())
            data[int(where * len(data))] = byte
        with tempfile.TemporaryDirectory() as directory:
            bad = Path(directory) / "input"
            bad.write_bytes(data)
            argv = [arg.format(bad=bad, out=Path(directory) / "out.idx",
                               **valid_files) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
        assert rc in (0, 1, 2)
        assert rc == 0 or out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) <= 1, lines
        assert all(line.startswith("frank: ") and line.endswith("\n")
                   for line in lines), lines


class TestMfData:
    def test_three_samples(self, capsys, data_dir):
        rc, out, _ = run_cli(capsys, [
            "mf-data", "--config", str(data_dir / "fis_basic.cfg"),
            "--var", "tf", "--samples", "3"])
        assert rc == 0
        assert out == (
            "x,high,not_high\n"
            "0.000000,0.000000,1.000000\n"
            "0.500000,0.500000,0.500000\n"
            "1.000000,1.000000,0.000000\n"
        )

    def test_five_samples_match_golden(self, capsys, data_dir, golden_dir):
        rc, out, _ = run_cli(capsys, [
            "mf-data", "--config", str(data_dir / "fis_basic.cfg"),
            "--var", "tf", "--samples", "5"])
        assert rc == 0
        assert out == (golden_dir / "mf_data_tf5.txt").read_text()

    def test_negative_zero_corner_prints_no_signed_zero(self, capsys,
                                                        tmp_path, data_dir):
        # the falling edge ends at -0, so d - x is -0.0 at x = 0
        config = tmp_path / "neg_zero.cfg"
        config.write_text((data_dir / "fis_basic.cfg").read_text().replace(
            "[variable tf]\nuniverse 0 1\nset high trimf 0 1 1\n",
            "[variable tf]\nuniverse -1 0\nset high trimf -1 -0.5 -0\n"))
        rc, out, _ = run_cli(capsys, [
            "mf-data", "--config", str(config), "--var", "tf",
            "--samples", "9"])
        assert rc == 0
        assert out == "x,high,not_high\n" + "".join(
            f"{x:.6f},{high:.6f},{float(x == 0):.6f}\n" for x, high in zip(
                np.linspace(-1.0, 0.0, 9),
                (0, 0.25, 0.5, 0.75, 1, 0.75, 0.5, 0.25, 0)))
        assert "-0.000000" not in out

    def test_rising_ramp_value(self, capsys, data_dir):
        rc, out, _ = run_cli(capsys, [
            "mf-data", "--config", str(data_dir / "fis_basic.cfg"),
            "--var", "relevance", "--samples", "11"])
        assert rc == 0
        assert "0.700000,0.700000,0.300000" in out

    def test_unknown_variable_exits_1(self, capsys, data_dir):
        rc, _, err = run_cli(capsys, [
            "mf-data", "--config", str(data_dir / "fis_basic.cfg"),
            "--var", "nothere", "--samples", "3"])
        assert rc == 1
        assert "nothere" in err

    def test_samples_above_bound_exits_1(self, capsys, data_dir):
        rc, out, err = run_cli(capsys, [
            "mf-data", "--config", str(data_dir / "fis_basic.cfg"),
            "--var", "tf", "--samples", str(MAX_RESOLUTION + 1)])
        assert rc == 1
        assert out == ""
        assert err == (f"frank: error: --samples must lie between 2 and "
                       f"{MAX_RESOLUTION}, got {MAX_RESOLUTION + 1}\n")


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "--corpus", "x.jsonl"])
        assert excinfo.value.code == 1


class TestModuleEntry:
    """``python -m frank.cli`` exits with the code ``main`` returns."""

    def run(self, *argv):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, "-m", "frank.cli", *argv],
                              env=env, capture_output=True, timeout=120)

    def test_exit_codes_and_one_error_line(self, index_path, tmp_path):
        search = ["search", "--ranker", "baseline", "--query", "river"]
        result = self.run(*search, "--index", str(index_path))
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.startswith(b"1 Q0 ")
        for code, argv in [
                (1, [*search, "--index", str(index_path), "--k", "0"]),
                (1, ["frobnicate"]),
                (2, [*search, "--index", str(tmp_path / "missing.idx")])]:
            result = self.run(*argv)
            assert (result.returncode, result.stdout) == (code, b"")
            lines = result.stderr.decode().splitlines()
            assert len(lines) == 1 and lines[0].startswith("frank: error: ")

    def test_tag_bytes_that_do_not_decode_exit_1(self, index_path):
        result = self.run("search", "--ranker", "baseline", "--query",
                          "river", "--index", str(index_path),
                          b"--tag", b"t\xff")
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.startswith(b"frank: error: --tag must be UTF-8")
        assert result.stderr.count(b"\n") == 1
