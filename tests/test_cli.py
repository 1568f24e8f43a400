"""Command-line behavior: golden bytes, exit codes, determinism."""

import json
import struct

import pytest

from frank.cli import main
from frank.evaluation import evaluate_run, format_report, load_qrels, load_run
from frank.fis import MAX_RESOLUTION
from frank.index import Document, build_index


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


def frix(docs, terms):
    """FRIX1 bytes of (doc_id, token count, max tf) documents and
    (token, [(doc ordinal, tf), ...]) terms, written exactly as given."""
    out = b"FRIX1\x01" + struct.pack("<I", len(docs))
    for doc_id, token_count, max_tf in docs:
        out += struct.pack("<I", len(doc_id)) + doc_id
        out += struct.pack("<II", token_count, max_tf)
    out += struct.pack("<I", len(terms))
    for token, postings in terms:
        out += struct.pack("<I", len(token)) + token
        out += struct.pack("<I", len(postings))
        for pair in postings:
            out += struct.pack("<II", *pair)
    return out


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
    "doc_id_not_utf8": (
        [(b"d\xff", 3, 2), D2], [APPLE, BANANA],
        "doc id at byte 14 is not valid UTF-8"),
    "token_not_utf8": (
        [D1, D2], [(b"appl\xff", [(0, 1)]), BANANA],
        "token at byte 46 is not valid UTF-8"),
    "max_tf_mismatch": (
        [D1, (b"d2", 1, 2)], [APPLE, BANANA],
        "document 'd2' has max term frequency 2, inconsistent with its "
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
        assert err == ("frank: error: doc_id '\\ud800' is not valid "
                       "Unicode\n")

    @pytest.mark.parametrize("doc_id", ["a b", "a\tb", " ", ""])
    def test_doc_id_not_one_run_field_exits_2(self, capsys, tmp_path,
                                              doc_id):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(json.dumps({"doc_id": doc_id, "text": "ice"}) + "\n")
        rc, out, err = run_cli(capsys, [
            "index", "--corpus", str(corpus), "--out", str(tmp_path / "o.idx")])
        assert rc == 2
        assert out == ""
        assert err == (f"frank: error: doc_id {doc_id!r} is empty or "
                       "contains whitespace\n")

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

    def test_k_one_yields_one_line(self, capsys, index_path, data_dir):
        rc, out, _ = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--query", "river flood levee", "--topic", "103", "--k", "1"])
        assert rc == 0
        assert out.count("\n") == 1
        assert out.startswith("103 Q0 d11 1 ")

    def test_fis_requires_template(self, capsys, index_path):
        rc, _, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "fis",
            "--query", "river"])
        assert rc == 1
        assert "--template" in err

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

    def test_topic_with_whitespace_exits_2(self, capsys, index_path, tmp_path):
        batch = tmp_path / "queries.tsv"
        batch.write_text("101\triver\n1 02\tflood\n")
        rc, out, err = run_cli(capsys, [
            "search", "--index", str(index_path), "--ranker", "baseline",
            "--queries", str(batch)])
        assert rc == 2
        assert out == ""
        assert err == "frank: error: line 2: whitespace in topic '1 02'\n"

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
        assert err == "frank: error: variable 'tf' has no set 'low'\n"

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
        assert err == ("frank: error: overlap rule weight 1.0 * "
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
