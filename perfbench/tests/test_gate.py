"""The correctness gate counts every wrong output as a failed operation."""

import dataclasses

import pytest

import gen
import workload
from spec import WORKLOADS
from frank import ranker
from frank.ranker import RankedEntry

TINY = gen.Shape(docs=200, vocab=300, topics=10)


@pytest.fixture(scope="module")
def collection(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny")
    gen.generate(TINY, 5, data)
    return data


def search_once(data, name, pins):
    gate = workload.Gate(pins)
    phases = workload.Phases(WORKLOADS[name], data, gate)
    phases.build()
    phases.setup()
    phases.check_round_trip()
    phases.search()
    phases.eval()
    return gate


@pytest.fixture(scope="module")
def pins(collection):
    return search_once(collection, "search_baseline", None).digests


def perturbed(score, topic, change):
    def wrapper(*args, **kwargs):
        ranked = score(*args, **kwargs)
        if ranked.query_id != topic:
            return ranked
        return dataclasses.replace(ranked, entries=change(ranked.entries))
    return wrapper


def test_clean_run_matches_its_pins(collection, pins):
    gate = search_once(collection, "search_baseline", pins)
    assert gate.attempted > TINY.topics
    assert gate.failures == []


def test_perturbed_run_raises_failed_frac(collection, pins, monkeypatch):
    def drop_last(entries):
        return entries[:-1]
    monkeypatch.setattr(ranker, "score_baseline",
                        perturbed(ranker.score_baseline, "303", drop_last))
    gate = search_once(collection, "search_baseline", pins)
    assert "topic 303 digest" in gate.failures
    assert "topic 301 digest" not in gate.failures
    assert len(gate.failures) / gate.attempted > 0


def test_unpinned_seed_checks_invariants(collection, monkeypatch):
    def swap_first_two(entries):
        first, second, *rest = entries
        return (RankedEntry(second.doc_id, second.score, 1),
                RankedEntry(first.doc_id, first.score, 2), *rest)
    monkeypatch.setattr(ranker, "score_baseline",
                        perturbed(ranker.score_baseline, "302",
                                  swap_first_two))
    gate = search_once(collection, "search_baseline", None)
    assert gate.failures[0] == "topic 302 well formed"
    assert gate.failures[1].startswith("eval: line")
    assert len(gate.failures) == 2


def test_wrong_index_bytes_fail(collection, pins):
    gate = search_once(collection, "search_baseline",
                       dict(pins, index="0" * 64))
    assert gate.failures == ["index digest"]


def test_cli_output_must_match_the_benchmark_run(collection):
    gate = workload.Gate(None)
    phases = workload.Phases(WORKLOADS["search_fis"], collection, gate)
    phases.build()
    phases.setup()
    phases.search()
    phases.check_cli()
    assert gate.failures == []
    phases.run_path.write_text(
        phases.run_path.read_text().replace(" 1 ", " 1  ", 1))
    phases.check_cli()
    assert gate.failures == ["topic 301 CLI output"]
