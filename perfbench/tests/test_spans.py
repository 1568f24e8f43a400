"""Self time and patching of the traced run."""

import gen
import spans
import workload
from spec import WORKLOADS
from frank import evaluation, fis, index, ranker


def test_self_time_subtracts_the_time_children_cover():
    tracer = spans.Tracer("w")
    for name, start, end, parent in (("outer", 0.0, 10.0, -1),
                                     ("inner", 1.0, 3.0, 0),
                                     ("inner", 4.0, 6.0, 0),
                                     ("leaf", 4.5, 5.0, 2)):
        tracer._begin(name)
        tracer.start[-1], tracer.end[-1], tracer.parent[-1] = start, end, parent
    tracer._open = [-1]
    calls, total, own = tracer.totals()
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert total["inner"] == 4.0
    assert own == {"outer": 6.0, "inner": 3.5, "leaf": 0.5}


def test_instrument_restores_every_patched_name():
    before = (ranker.evaluate, index.tokenize, evaluation.parse_run,
              index.InvertedIndex.__dict__["from_bytes"])
    with spans.instrument(spans.Tracer("w")):
        assert ranker.evaluate is not fis.evaluate
    assert (ranker.evaluate, index.tokenize, evaluation.parse_run,
            index.InvertedIndex.__dict__["from_bytes"]) == before


def test_self_times_under_score_add_up_to_score(tmp_path):
    gen.generate(gen.Shape(docs=200, vocab=300, topics=10), 7, tmp_path)
    phases = workload.Phases(WORKLOADS["search_fis"], tmp_path,
                             workload.Gate(None))
    phases.build()
    phases.setup()
    tracer = spans.Tracer("search_fis")
    with spans.instrument(tracer):
        phases.search()
    calls, total, own = tracer.totals()
    assert calls["fis.evaluate"] == calls["index.extract_features"] > 0
    assert tracer.counters["ranker.candidates"] == calls["fis.evaluate"]
    parts = ("ranker.score", "ranker.instantiate_fis", "fis.evaluate",
             "index.extract_features", "index.term_frequency")
    assert set(calls) == {*parts, "evaluation.format_run"}
    assert abs(sum(own[name] for name in parts)
               - total["ranker.score"]) < 1e-9
