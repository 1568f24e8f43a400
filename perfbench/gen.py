"""Seeded synthetic TREC collection: corpus JSONL, topics TSV and qrels.

    python3 perfbench/gen.py --shape search --seed 1 --out DIR

writes ``DIR/corpus.jsonl``, ``DIR/topics.tsv`` and ``DIR/qrels.txt``.  The
same shape and seed always give the same bytes (only ``random.Random`` is
used, whose streams are stable across Python versions).

Documents hold words with exact Zipf(1) counts over a vocabulary of
made-up words, shuffled into documents by the seed and rendered in mixed
case with punctuation, hyphens and stopwords, so that tokenization does
real work.  Topic term ranks are drawn log-uniformly
over ``[min_rank, vocab]`` with stratified sampling (see ``_topic_terms``),
so timings vary little from seed to seed while the words, documents and
judgments all differ.

Relevance is planted: each topic's terms are inserted into a known set of
documents, which are judged relevant (2 if every term was planted, else 1).
Documents that contain a topic term naturally form a judged non-relevant
pool, so qrels have TREC shape: graded positives plus judged negatives.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiouy"
# Tokens the index drops: stopwords and one-character words.
_NOISE = ("the", "of", "and", "to", "in", "is", "with", "a", "x", "I", "e")
_NOISE_SHARE = 0.2
# Document length in words, and planted relevant documents per topic.
_MIN_LEN, _MAX_LEN = 20, 50
_MIN_RELEVANT, _MAX_RELEVANT = 8, 24
# (separator, weight) between consecutive words; "-" splits into two tokens.
_SEPARATORS = ((" ", 80), (", ", 8), (". ", 5), ("; ", 2), ("-", 2),
               (" (", 1), (") ", 1), ("! ", 1))


@dataclass(frozen=True)
class Shape:
    """Size of a generated collection."""

    docs: int
    vocab: int
    topics: int
    #: topic terms are drawn from vocabulary ranks min_rank..vocab; the
    #: few most frequent words act as stopwords and stay out of topics
    min_rank: int = 10


SHAPES = {
    "search": Shape(docs=4000, vocab=8000, topics=100),
    "ingest": Shape(docs=20000, vocab=20000, topics=100, min_rank=1000),
}


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                   for _ in range(syllables))


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    """Distinct lowercase words of 6 to 10 letters, so none is a stopword."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = _word(rng, rng.randint(3, 5))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _token_pool(total: int, vocab: int) -> list[int]:
    """``total`` token ids, each exactly as often as its weight says.

    Word ``r`` (0-based) has Zipf(1) weight; the noise tokens after the
    vocabulary share ``_NOISE_SHARE``.  Counts are apportioned, not drawn,
    so a word's frequency, and with it the cost of a query on it, is the
    same for every seed; the seed only places the tokens.
    """
    harmonic = sum(1.0 / rank for rank in range(1, vocab + 1))
    weights = ([(1.0 - _NOISE_SHARE) / (rank * harmonic)
                for rank in range(1, vocab + 1)]
               + [_NOISE_SHARE / len(_NOISE)] * len(_NOISE))
    shares = [total * weight for weight in weights]
    counts = [int(share) for share in shares]
    largest_remainders = sorted(range(len(shares)),
                                key=lambda i: counts[i] - shares[i])
    for i in largest_remainders[:total - sum(counts)]:
        counts[i] += 1
    return [token for token, count in enumerate(counts)
            for _ in range(count)]


def _render(rng: random.Random, words: list[str]) -> str:
    seps = rng.choices([s for s, _ in _SEPARATORS],
                       cum_weights=list(accumulate(w for _, w in _SEPARATORS)),
                       k=len(words))
    cases = rng.choices((0, 1, 2), cum_weights=(70, 95, 100), k=len(words))
    parts = []
    for word, case, sep in zip(words, cases, seps):
        parts.append(word if case == 0 else
                     word.capitalize() if case == 1 else word.upper())
        parts.append(sep)
    parts[-1] = "."
    return "".join(parts)


def _topic_terms(rng: random.Random, shape: Shape) -> list[list[int]]:
    """Distinct vocabulary ranks (0-based) per topic, 1 to 5 terms each.

    Ranks are log-uniform over ``[min_rank, vocab]``, one per stratum of
    equal log width.  Which strata a topic gets, and how many terms it has,
    is a fixed layout shared by every seed: each seed then has the same mix
    of cheap tail-term and costly head-term topics, and the seed moves a
    rank only within its stratum.
    """
    layout = random.Random(0)
    counts = [1 + i % 5 for i in range(shape.topics)]
    layout.shuffle(counts)
    slots = sum(counts)
    strata = list(range(slots))
    layout.shuffle(strata)
    span = math.log(shape.vocab / shape.min_rank)
    ranks = [
        min(shape.vocab, int(shape.min_rank
                             * math.exp(span * (j + rng.random()) / slots)))
        for j in strata
    ]
    topics = []
    position = 0
    for count in counts:
        terms: list[int] = []
        for rank in ranks[position:position + count]:
            while rank - 1 in terms:
                rank = rank % shape.vocab + 1
            terms.append(rank - 1)
        topics.append(terms)
        position += count
    return topics


def generate(shape: Shape, seed: int, out: str | Path) -> None:
    """Write corpus.jsonl, topics.tsv and qrels.txt for ``shape`` into out."""
    rng = random.Random(seed)
    vocab = _vocabulary(rng, shape.vocab)
    lengths = [rng.randint(_MIN_LEN, _MAX_LEN) for _ in range(shape.docs)]
    tokens = _token_pool(sum(lengths), shape.vocab)
    rng.shuffle(tokens)
    ends = list(accumulate(lengths))
    docs = [tokens[end - length:end] for end, length in zip(ends, lengths)]

    topics = _topic_terms(rng, shape)
    wanted = {term for terms in topics for term in terms}
    holders: dict[int, set[int]] = {term: set() for term in wanted}
    for ordinal, doc in enumerate(docs):
        for term in wanted.intersection(doc):
            holders[term].add(ordinal)

    # How many documents a topic gets planted in is part of the fixed
    # layout too: for a tail-term topic they are most of its candidates.
    sizes = [_MIN_RELEVANT + i % (_MAX_RELEVANT - _MIN_RELEVANT + 1)
             for i in range(shape.topics)]
    random.Random(1).shuffle(sizes)
    judgments: list[dict[int, int]] = []
    for terms, size in zip(topics, sizes):
        natural = sorted(set().union(*(holders[t] for t in terms)))
        relevant = rng.sample(range(shape.docs), size)
        judged: dict[int, int] = {}
        for ordinal in relevant:
            planted = [t for t in terms if rng.random() < 0.75] or [terms[0]]
            doc = docs[ordinal]
            for term in planted:
                for _ in range(rng.randint(1, 3)):
                    doc.insert(rng.randint(0, len(doc)), term)
            judged[ordinal] = 2 if len(planted) == len(terms) else 1
        pool = [d for d in natural if d not in judged]
        for ordinal in rng.sample(pool, min(len(pool), 2 * len(relevant))):
            judged[ordinal] = 0
        judgments.append(judged)

    def spell(token: int) -> str:
        return vocab[token] if token < shape.vocab else \
            _NOISE[token - shape.vocab]

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    doc_ids = [f"D{ordinal:06d}" for ordinal in range(shape.docs)]
    with open(out / "corpus.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for doc_id, doc in zip(doc_ids, docs):
            text = _render(rng, [spell(token) for token in doc])
            f.write(json.dumps({"doc_id": doc_id, "text": text}) + "\n")

    topic_ids = [str(301 + i) for i in range(shape.topics)]
    lines = []
    for i, terms in enumerate(topics):
        words = [vocab[t] for t in terms]
        extra = rng.random()
        if extra < 0.05:
            words.append(rng.choice(words))  # a repeated term
        elif extra < 0.10:
            words.append(_word(rng, 3) + str(rng.randint(0, 9)))  # absent
        rng.shuffle(words)
        lines.append(f"{topic_ids[i]}\t{_render(rng, words)[:-1]}\n")
    (out / "topics.tsv").write_text("".join(lines), encoding="utf-8")

    lines = []
    for topic_id, judged in sorted(zip(topic_ids, judgments)):
        for ordinal in sorted(judged):
            lines.append(f"{topic_id} 0 {doc_ids[ordinal]} {judged[ordinal]}\n")
    (out / "qrels.txt").write_text("".join(lines), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(SHAPES[args.shape], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
