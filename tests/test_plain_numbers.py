"""A number in a config, a template, a qrels file, a run file or a
command-line flag is plain ASCII.

Python's ``int`` and ``float`` also read ``_`` digit separators and
non-ASCII digits (``int("1_0") == 10``, ``int("١") == 1``).  Every reader
here refuses them instead, naming the line of a file; the spellings plain
ASCII allows, such as ``-1``, ``.5`` and ``1e-3``, still parse.
"""

import pytest

from frank.cli import main
from frank.errors import ConfigError, RunFormatError
from frank.evaluation import parse_qrels, parse_run
from frank.fisfile import parse_fis_config, parse_template

CONFIG = """\
[variable x]
universe 0 1
set high trimf 0 1 1
[output y]
universe 0 1
set high trimf 0 1 1
[system]
resolution 11
[rules]
if (x is high) -> (y is high)
"""

NOT_PLAIN = {
    "universe-separator": ("universe 0 1\nset", "universe 0 1_0\nset", 2),
    "universe-arabic-indic": ("universe 0 1\nset", "universe 0 ١\nset", 2),
    "set-fullwidth": ("trimf 0 1 1\n[output", "trimf ０ 1 1\n[output", 3),
    "set-separator": ("trimf 0 1 1\n[output", "trimf 0 0_1 1\n[output", 3),
    "resolution-arabic-indic": ("resolution 11", "resolution ١٠٠١", 8),
    "resolution-fullwidth": ("resolution 11", "resolution １１", 8),
}


@pytest.mark.parametrize("old, new, line", NOT_PLAIN.values(),
                         ids=NOT_PLAIN)
def test_config_number_not_plain_ascii_names_its_line(old, new, line):
    with pytest.raises(ConfigError) as excinfo:
        parse_fis_config(CONFIG.replace(old, new, 1))
    assert excinfo.value.line == line


def test_config_plain_spellings_still_parse():
    config = parse_fis_config(CONFIG.replace(
        "universe 0 1\nset high trimf 0 1 1\n[output",
        "universe -1 .5\nset high trimf -1 1e-3 .5\n[output").replace(
        "resolution 11", "resolution 0011"))
    assert config.inputs[0].universe == (-1.0, 0.5)
    assert config.inputs[0].sets["high"].params == (-1.0, 1e-3, 0.5)
    assert config.resolution == 11


@pytest.mark.parametrize("ratio", ["0_5", "٠.٥", "０.５"])
def test_template_ratio_not_plain_ascii_names_its_line(data_dir, ratio):
    text = (data_dir / "template_default.cfg").read_text()
    with pytest.raises(ConfigError) as excinfo:
        parse_template(text.replace("overlap_weight_ratio 0.16666666666666666",
                                    f"overlap_weight_ratio {ratio}"))
    assert excinfo.value.line == 25


@pytest.mark.parametrize("relevance", ["1_0", "١", "１"])
def test_qrels_relevance_not_plain_ascii_names_its_line(relevance):
    with pytest.raises(RunFormatError) as excinfo:
        parse_qrels(f"1 0 d1 1\n1 0 d2 {relevance}\n")
    assert str(excinfo.value) == (
        f"line 2: relevance must be an integer, got {relevance!r}")


def test_qrels_plain_spellings_still_parse():
    assert parse_qrels("1 0 d1 +1\n1 0 d2 0\n1 0 d3 007\n").judgments == {
        ("1", "d1"): 1, ("1", "d2"): 0, ("1", "d3"): 7}


# ranks 1 to 10 with scores 1.00 down to 0.10: rank 7 scores 0.40
RUN = "".join(f"t1 Q0 d{rank} {rank} {(11 - rank) / 10:.2f} tag\n"
              for rank in range(1, 11))
RUN_NOT_PLAIN = {
    "rank-separator": (" 10 0.10 ", " 1_0 0.10 ", 10),
    "score-separator": (" 7 0.40 ", " 7 0.4_0 ", 7),
    "rank-fullwidth": (" 1 1.00 ", " １ 1.00 ", 1),
    "rank-arabic-indic": (" 2 0.90 ", " ٢ 0.90 ", 2),
}


@pytest.mark.parametrize("old, new, line", RUN_NOT_PLAIN.values(),
                         ids=RUN_NOT_PLAIN)
def test_run_number_not_plain_ascii_names_its_line(old, new, line):
    text = RUN.replace(old, new)
    assert text != RUN
    with pytest.raises(RunFormatError) as excinfo:
        parse_run(text)
    assert excinfo.value.line == line
    assert str(excinfo.value) == (f"line {line}: bad rank or score in "
                                  f"{text.splitlines()[line - 1]!r}")


def test_run_plain_spellings_still_parse():
    """Plain numbers parse whether or not other fields hold ``_`` or
    non-ASCII text, which sends the parse down the per-field check."""
    plain = "t1 Q0 d1 +1 .5 tag\nt1 Q0 d2 002 1e-3 tag\n"
    for text in (plain, plain.replace("d2", "d_2"),
                 plain.replace("d2", "dé")):
        entries = parse_run(text).topics["t1"]
        assert list(entries.scores) == [0.5, 1e-3]
        assert entries.doc_ids[0] == "d1"


def test_eval_with_a_separator_in_the_qrels_exits_2(capsys, tmp_path,
                                                     golden_dir):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("101 0 d07 1_0\n", encoding="utf-8")
    rc = main(["eval", "--run", str(golden_dir / "run_fis.txt"),
               "--qrels", str(qrels)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("frank: error: line 1: relevance must be an "
                            "integer, got '1_0'\n")


def test_fis_eval_with_a_separator_in_the_config_exits_2(capsys, tmp_path):
    config = tmp_path / "sep.cfg"
    config.write_text(CONFIG.replace("universe 0 1\nset",
                                     "universe 0 1_0\nset", 1),
                      encoding="utf-8")
    rc = main(["fis-eval", "--config", str(config), "--in", "x=0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("frank: error: line 2: '1_0' is not a plain "
                            "ASCII number\n")


@pytest.mark.parametrize("value", ["0_5", "٠.5", "０.5"])
def test_fis_eval_input_not_plain_ascii_exits_1(capsys, data_dir, value):
    rc = main(["fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
               "--in", f"tf={value}", "--in", "idf=0.5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"frank: error: --in tf: not a number: {value!r}\n"


def test_fis_eval_plain_spellings_still_parse(capsys, data_dir):
    rc = main(["fis-eval", "--config", str(data_dir / "fis_basic.cfg"),
               "--in", "tf=.7", "--in", "idf=6e-1"])
    assert rc == 0
    assert capsys.readouterr().out == "crisp 0.592778\n"


@pytest.mark.parametrize("argv", [
    ["search", "--index", "i.idx", "--ranker", "baseline", "--query", "ice",
     "--k", "1_0"],
    ["search", "--index", "i.idx", "--ranker", "baseline", "--query", "ice",
     "--k", "３"],
    ["mf-data", "--config", "c.cfg", "--var", "x", "--samples", "1_1"],
    ["mf-data", "--config", "c.cfg", "--var", "x", "--samples", "١١"],
], ids=["k-separator", "k-fullwidth", "samples-separator",
        "samples-arabic-indic"])
def test_integer_flag_not_plain_ascii_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 1
    assert captured.out == ""
    assert captured.err == (f"frank: error: argument {argv[-2]}: invalid "
                            f"integer value: {argv[-1]!r}\n")


def test_integer_flag_plain_spelling_still_parses(capsys, data_dir):
    rc = main(["mf-data", "--config", str(data_dir / "fis_basic.cfg"),
               "--var", "tf", "--samples", "+3"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "0.000000,0.000000,1.000000", "0.500000,0.500000,0.500000",
        "1.000000,1.000000,0.000000"]
