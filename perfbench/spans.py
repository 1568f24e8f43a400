"""Spans around calls into frank's public functions, for the traced run.

:func:`instrument` patches each traced name in the module that looks it
up (``frank.ranker.evaluate``, not ``frank.fis.evaluate``), so the program
itself is untouched and the untraced run pays nothing.  A span records its
name, start, end and parent; all spans of one process share the workload
id.  Spans stay in flat arrays in memory and are written out once, at the
end, by :meth:`Tracer.write`.

Only the ``tokenize`` that ``frank.index`` looks up is wrapped, so
``index.tokenize_s`` is the build's tokenization; query tokenization,
looked up through ``frank.ranker``, stays in ``ranker.self_s`` with
candidate union and sort.  Candidate generation gets no span of its own,
only a counter of the candidates it returns.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    """Flat, append-only span store for one workload process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.counters: Counter[str] = Counter()

    def _begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(span)
        self.start.append(time.perf_counter())
        return span

    def _finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable,
             count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(result, *args)`` adds counters."""
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if count is not None:
                count(result, *args)
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, counter: str, fn: Callable,
                amount: Callable) -> Callable:
        """``fn`` adding ``amount(result)`` to a counter, without a span, so
        that the caller's self time keeps the work ``fn`` does."""
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[counter] += amount(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is one span."""
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = self._begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._finish(span)
                yield item
        traced.__wrapped__ = fn
        return traced

    # -- analysis ---------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total duration and self time.

        Self time is a span's duration minus the part of it that its
        direct child spans cover.
        """
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        covered = array("d", [0.0]) * len(self.start)
        covered_until = array("d", [float("-inf")]) * len(self.start)
        for span in range(len(self.start)):
            start, end = self.start[span], self.end[span]
            name = self.names[self.name[span]]
            calls[name] += 1
            total[name] += end - start
            parent = self.parent[span]
            if parent >= 0:
                lo = max(start, covered_until[parent])
                if end > lo:
                    covered[parent] += end - lo
                    covered_until[parent] = end
        own: Counter[str] = Counter()
        for span in range(len(self.start)):
            own[self.names[self.name[span]]] += (
                self.end[span] - self.start[span] - covered[span])
        return calls, total, own

    def write(self, path: str | Path) -> None:
        """Tab-separated spans: id, name, start, end, parent, workload."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tworkload\n")
            for span in range(len(self.start)):
                out.write(
                    f"{span}\t{self.names[self.name[span]]}\t"
                    f"{self.start[span] - origin:.7f}\t"
                    f"{self.end[span] - origin:.7f}\t"
                    f"{self.parent[span]}\t{self.workload}\n")


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch frank's traced names for the duration of the block."""
    from frank import evaluation, fisfile, index, ranker
    from frank.index import InvertedIndex

    with ExitStack() as undo:
        def patch(owner, attr, replacement):
            original = owner.__dict__[attr]
            setattr(owner, attr, replacement)
            undo.callback(setattr, owner, attr, original)

        def traced(owner, attr, name, count=None):
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

        def add(counter, amount):
            tracer.counters[counter] += amount

        traced(index, "tokenize", "index.tokenize")
        patch(index, "read_corpus_jsonl",
              tracer.wrap_iter("index.read_corpus", index.read_corpus_jsonl))
        traced(index, "build_index", "index.build_index")
        traced(InvertedIndex, "to_bytes", "index.to_bytes",
               lambda data, _: add("index.bytes", len(data)))
        patch(InvertedIndex, "from_bytes", classmethod(tracer.wrap(
            "index.from_bytes", InvertedIndex.__dict__["from_bytes"].__func__)))
        traced(InvertedIndex, "term_frequency", "index.term_frequency")
        traced(ranker, "extract_features", "index.extract_features")
        traced(ranker, "instantiate_fis", "ranker.instantiate_fis",
               lambda config, *_: add("ranker.rules_instantiated",
                                      len(config.rules)))
        traced(ranker, "evaluate", "fis.evaluate",
               lambda _, config, __: add("fis.grid_points",
                                         len(config.rules) * config.resolution))
        patch(ranker, "_candidates",
              tracer.counted("ranker.candidates", ranker._candidates, len))
        for scorer in ("score_fis", "score_baseline"):
            traced(ranker, scorer, "ranker.score",
                   lambda ranked, *_: add("ranker.returned",
                                          len(ranked.entries)))
        traced(fisfile, "load_template", "fisfile.load_template")
        traced(evaluation, "format_run", "evaluation.format_run")
        traced(evaluation, "parse_run", "evaluation.parse_run",
               lambda run, _: add("evaluation.run_lines", sum(
                   len(entries) for entries in run.topics.values())))
        traced(evaluation, "parse_qrels", "evaluation.parse_qrels",
               lambda qrels, _: add("evaluation.judgments",
                                    len(qrels.judgments)))
        traced(evaluation, "evaluate_run", "evaluation.evaluate_run")
        yield tracer
