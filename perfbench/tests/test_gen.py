"""The collection generator is a pure function of shape and seed."""

import json

import gen

FILES = ("corpus.jsonl", "topics.tsv", "qrels.txt")
SMALL = gen.Shape(docs=300, vocab=400, topics=15)


def read(directory):
    return {name: (directory / name).read_bytes() for name in FILES}


def test_same_seed_gives_identical_bytes(tmp_path):
    gen.generate(gen.SHAPES["search"], 11, tmp_path / "a")
    gen.generate(gen.SHAPES["search"], 11, tmp_path / "b")
    assert read(tmp_path / "a") == read(tmp_path / "b")


def test_different_seeds_differ_in_every_file(tmp_path):
    gen.generate(SMALL, 1, tmp_path / "a")
    gen.generate(SMALL, 2, tmp_path / "b")
    a, b = read(tmp_path / "a"), read(tmp_path / "b")
    assert all(a[name] != b[name] for name in FILES)


def test_relevant_documents_hold_a_planted_topic_term(tmp_path):
    gen.generate(SMALL, 3, tmp_path)
    topics = {}
    for line in (tmp_path / "topics.tsv").read_text().splitlines():
        topic, text = line.split("\t")
        topics[topic] = {w.strip(",.;:!()-").lower()
                         for w in text.replace("-", " ").split()}
    texts = {}
    for line in (tmp_path / "corpus.jsonl").read_text().splitlines():
        doc = json.loads(line)
        texts[doc["doc_id"]] = doc["text"].lower()
    relevant = {}
    for line in (tmp_path / "qrels.txt").read_text().splitlines():
        topic, _, doc_id, judgment = line.split()
        if int(judgment) >= 1:
            relevant.setdefault(topic, []).append(doc_id)
            assert any(word in texts[doc_id] for word in topics[topic])
    assert set(relevant) == set(topics)
    assert all(len(docs) >= 8 for docs in relevant.values())
