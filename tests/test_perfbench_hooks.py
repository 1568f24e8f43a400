"""The names perfbench's traced run patches (``perfbench/spans.py``) exist
in frank, score through their wrappers, and are put back on exit.

Entering ``spans.instrument`` looks each name up in its owner's
``__dict__``, so removing or renaming one raises ``KeyError`` here.
"""

import importlib
from pathlib import Path

from frank import evaluation, fis, fisfile, index, ranker
from frank.index import InvertedIndex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (index, ranker, evaluation, fisfile, InvertedIndex)


def namespace():
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in vars(owner).items()}


def test_instrumented_scorers_run_and_every_name_is_restored(
        monkeypatch, index20, template):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    expected = (ranker.score_fis(index20, template, "river flood"),
                ranker.score_baseline(index20, "river flood"))
    before = namespace()
    tracer = spans.Tracer("t")
    with spans.instrument(tracer):
        patched = {key for key, value in namespace().items()
                   if value is not before[key]}
        assert ranker.evaluate is not fis.evaluate
        ranked = (ranker.score_fis(index20, template, "river flood"),
                  ranker.score_baseline(index20, "river flood"))
    # kept in frank only because the traced run patches them
    assert {("frank.ranker", "evaluate"), ("frank.ranker", "_candidates"),
            ("frank.ranker", "instantiate_fis"),
            ("InvertedIndex", "term_frequency")} <= patched
    assert ranked == expected
    calls, _, _ = tracer.totals()
    assert calls["ranker.score"] == calls["index.extract_features"] == 2
    assert tracer.counters["ranker.returned"] == sum(
        len(ranked_list.entries) for ranked_list in expected) > 0
    after = namespace()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items()
            if value is not before[key]] == []
