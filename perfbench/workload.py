"""One workload in its own process; run.py starts it.

    python3 perfbench/workload.py --workload search_fis --data DIR \\
        --seed 1 --seconds 35 --trace 0 --spans FILE [--pins FILE]

It reads only the generated files in DIR and drives the public functions
behind ``frank index``, ``frank search`` and ``frank eval`` as one client in
a closed loop.  It prints one JSON object: the metrics, the operations it
checked, the failures among them and the digests of its outputs.

With ``--trace 0`` it runs rounds of build, set-up, topics and evals while
another round fits in ``--seconds``; each timing is a median over the samples
of all rounds.  With ``--trace 1`` it runs one of each untraced, traced and
untraced again, and the metrics are the per-layer numbers of the traced run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from spec import K, WORKLOADS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from frank import evaluation, fisfile, index, ranker  # noqa: E402
from frank.errors import FrankError  # noqa: E402
from frank.index import InvertedIndex  # noqa: E402

MIN_ROUNDS = 3
#: Time of :func:`reference` on the machine the timings are scaled to.
REFERENCE_S = 60e-6
#: seconds between two runs of :func:`reference` while units are timed
INTERVAL_S = 0.01
#: a unit is scaled by the reference loops run this close to it (seconds)
WINDOW_S = 0.05
#: every CLI_STRIDE-th topic is also ranked through the ``frank search`` CLI
CLI_STRIDE = 10


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def read_topics(path: Path) -> list[tuple[str, str]]:
    topics = []
    for line in path.read_text(encoding="utf-8").splitlines():
        topic, _, text = line.partition("\t")
        topics.append((topic.strip(), text.strip()))
    return topics


def split_run(run_text: str) -> dict[str, str]:
    """Run-file lines grouped by topic, in file order."""
    per_topic: dict[str, list[str]] = {}
    for line in run_text.splitlines(keepends=True):
        per_topic.setdefault(line.split(" ", 1)[0], []).append(line)
    return {topic: "".join(lines) for topic, lines in per_topic.items()}


def well_formed(ranked) -> bool:
    """Ranks 1..n, n <= K, distinct docs, descending score, ties by doc id."""
    entries = ranked.entries
    keys = [(-entry.score, entry.doc_id) for entry in entries]
    return (len(entries) <= K
            and [entry.rank for entry in entries] == list(
                range(1, len(entries) + 1))
            and len({entry.doc_id for entry in entries}) == len(entries)
            and keys == sorted(keys))


#: numbers that :func:`reference` parses
_NUMBERS = ("1.25", "0.5", "17", "3.75") * 10


def reference() -> float:
    """Time a fixed pure-Python loop: arithmetic, then parsing numbers.

    It slows when the host slows this process, and it does not depend on
    frank, so the ratio of a timing to it is steady on a shared host.  It
    allocates nothing the garbage collector tracks, so it never starts a
    collection that frank's own allocations would have paid for.
    """
    start = time.perf_counter()
    total = 0
    for i in range(400):
        total += i * i % 7
    for text in _NUMBERS:
        total += float(text) > 1.0
    return time.perf_counter() - start


class Clock:
    """Times units of work, and samples the host's speed while they run.

    The shared host changes speed within a second, by up to 1.75x, and a
    change slows frank and the reference loop alike.  So, while
    :meth:`sampling`, a timer signal runs :func:`reference` every
    ``INTERVAL_S``, and each unit's time, less those loops, is scaled by
    the mean of ``REFERENCE_S`` over the loops run within ``WINDOW_S`` of
    it.  A unit then reads as on a host where the loop takes
    ``REFERENCE_S``.
    """

    def __init__(self):
        #: when each reference loop started, and how long it took
        self.marks: list[float] = []
        self.references: list[float] = []
        #: time spent in reference loops so far
        self.spent = 0.0
        #: (start, end, time spent in reference loops) of each unit, by kind
        self.units: dict[str, list[tuple[float, float, float]]] = {}

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.references.append(reference())
        self.marks.append(start)
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, kind: str, unit):
        """Run ``unit()``, timed as one ``kind``, and return its result."""
        spent = self.spent
        start = time.perf_counter()
        result = unit()
        end = time.perf_counter()
        self.units.setdefault(kind, []).append((start, end,
                                                self.spent - spent))
        return result

    def raw(self, kind: str) -> list[float]:
        return [end - start - spent
                for start, end, spent in self.units[kind]]

    def scaled(self, kind: str) -> list[float]:
        scaled = []
        for start, end, spent in self.units[kind]:
            first = bisect.bisect_left(self.marks, start - WINDOW_S)
            last = bisect.bisect_right(self.marks, end + WINDOW_S)
            speed = statistics.fmean(REFERENCE_S / elapsed for elapsed
                                     in self.references[first:last])
            scaled.append((end - start - spent) * speed)
        return scaled

    def scaled_total(self) -> float:
        return sum(sum(self.scaled(kind)) for kind in self.units)


class Gate:
    """Counts checked operations and the ones whose output was wrong.

    On a shipped seed each output must match its digest in ``pins``.  On
    any other seed it must match the first output of its kind in this
    process.  Either way the invariant checks apply too.
    """

    def __init__(self, pins: dict[str, str] | None):
        self.pins = pins
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same(self, key: str, data: str | bytes) -> None:
        digest = sha256(data)
        first = self.digests.setdefault(key, digest)
        expected = self.pins.get(key) if self.pins is not None else first
        self.check(f"{key} digest", digest == expected)


class Phases:
    """The timed units of a workload, each run as often as asked."""

    def __init__(self, workload: Workload, data: Path, gate: Gate):
        self.workload = workload
        self.data = data
        self.gate = gate
        self.index_path = data / "index.frix"
        self.run_path = data / "run.txt"
        self.topics = read_topics(data / "topics.tsv")
        self.tag = workload.ranker
        self.docs = self.tokens = 0
        self.loaded: InvertedIndex | None = None
        self.template = None
        self.report = None
        self.clock = Clock()
        (data / "template.cfg").write_text(
            fisfile.format_template(ranker.default_template()),
            encoding="utf-8")

    def build(self) -> None:
        """``frank index``: read the JSONL corpus, build, save."""
        self.loaded = None

        def build_and_save() -> InvertedIndex:
            built = index.build_index(
                index.read_corpus_jsonl(self.data / "corpus.jsonl"))
            built.save(self.index_path)
            return built
        built = self.clock.time("build", build_and_save)
        self.docs, self.tokens = built.total_docs, built.total_tokens
        self.gate.same("index", self.index_path.read_bytes())

    def setup(self) -> None:
        """Ready for the first query: load the index (and the template)."""
        self.loaded = None

        def load():
            loaded = InvertedIndex.load(self.index_path)
            template = (fisfile.load_template(self.data / "template.cfg")
                        if self.workload.ranker == "fis" else None)
            return loaded, template
        self.loaded, self.template = self.clock.time("setup", load)

    def check_round_trip(self) -> None:
        """``from_bytes(to_bytes(i)) == i`` for a fresh build ``i``: the
        loaded index came from the saved bytes of an equal build."""
        built = index.build_index(
            index.read_corpus_jsonl(self.data / "corpus.jsonl"))
        self.gate.check("index round trip", self.loaded == built)

    def rank(self, topics: list[tuple[str, str]]) -> list:
        """``frank search``'s ranking of each topic, each timed alone."""
        if self.workload.ranker == "fis":
            score = functools.partial(ranker.score_fis, self.loaded,
                                      self.template)
        else:
            score = functools.partial(ranker.score_baseline, self.loaded)
        ranked = []
        for topic, text in topics:
            result = self.clock.time(
                f"topic {topic}",
                functools.partial(score, text, k=K, query_id=topic))
            self.gate.check(f"topic {topic} well formed", well_formed(result))
            ranked.append(result)
        return ranked

    def write_run(self, ranked: list) -> None:
        """Format a pass over every topic as a run file, as ``frank search
        --queries`` writes it."""
        run_text = self.clock.time("format", lambda: evaluation.format_run(
            evaluation.run_from_ranked(ranked, self.tag)))
        self.gate.same("run", run_text)
        per_topic = split_run(run_text)
        for topic, _ in self.topics:
            self.gate.same(f"topic {topic}", per_topic.get(topic, ""))
        self.run_path.write_text(run_text, encoding="utf-8")

    def search(self) -> None:
        """``frank search --queries``: rank every topic, write the run."""
        self.write_run(self.rank(self.topics))

    def eval(self) -> None:
        """``frank eval``: load run and qrels, evaluate, format the report."""
        def evaluate():
            run = evaluation.load_run(self.run_path)
            qrels = evaluation.load_qrels(self.data / "qrels.txt")
            report = evaluation.evaluate_run(run, qrels)
            return report, evaluation.format_report(report, run.tag), run.tag
        try:
            report, text, tag = self.clock.time("eval", evaluate)
        except FrankError as exc:
            self.gate.check(f"eval: {exc}", False)
            return
        self.gate.same("report", text + evaluation.report_jsonl(report, tag))
        self.report = report

    def check_cli(self) -> None:
        """``frank search`` on every CLI_STRIDE-th topic, byte for byte."""
        subset = self.topics[::CLI_STRIDE]
        queries = self.data / "cli_topics.tsv"
        queries.write_text("".join(f"{t}\t{q}\n" for t, q in subset),
                           encoding="utf-8")
        command = [sys.executable, "-m", "frank.cli", "search",
                   "--index", str(self.index_path), "--ranker", self.tag,
                   "--queries", str(queries), "--k", str(K), "--tag", self.tag]
        if self.workload.ranker == "fis":
            command += ["--template", str(self.data / "template.cfg")]
        env = {k: v for k, v in os.environ.items() if k != "FRANK_RESOLUTION"}
        env["PYTHONPATH"] = str(SRC)
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=120)
        cli = split_run(done.stdout) if done.returncode == 0 else {}
        ours = split_run(self.run_path.read_text(encoding="utf-8"))
        for topic, _ in subset:
            self.gate.check(f"topic {topic} CLI output",
                            cli.get(topic) == ours.get(topic))


def percentile(samples: list[float], percent: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-percent * len(ordered) // 100) - 1)]


def timings(phases: Phases, times) -> dict:
    """The end-to-end timings from ``times(kind)``, the samples of a kind
    of unit."""
    typical = [statistics.median(times(f"topic {topic}"))
               for topic, _ in phases.topics]

    def median(kind: str) -> float:
        return statistics.median(times(kind))
    return {
        "setup_s": median("setup"),
        "index_docs_per_s": phases.docs / median("build"),
        "search_qps": len(typical) / (sum(typical) + median("format")),
        "query_p50_ms": 1000 * percentile(typical, 50),
        "query_p90_ms": 1000 * percentile(typical, 90),
        "eval_s": median("eval"),
    }


def end_to_end(phases: Phases, seconds: float) -> dict:
    """Rounds of build, set-up, topics and evals, while another round fits
    in ``seconds``.

    A round ranks the next ``topics_per_round`` topics, going round the
    topic list and writing the run whenever a pass is complete; the first
    round completes a pass, so that every eval has a run.  Each timing is
    the median of its samples over the run, each scaled as :class:`Clock`
    says.  ``search_qps`` is the topics over the sum of their median
    latencies and the median time to format the run.
    """
    workload = phases.workload
    topics = phases.topics
    clock = phases.clock
    ranked: list = []
    ranked_total = rounds = 0
    start = time.perf_counter()
    round_s = 0.0
    with clock.sampling():
        while (rounds < MIN_ROUNDS
               or time.perf_counter() - start + round_s <= seconds):
            began = time.perf_counter()
            rounds += 1
            phases.build()
            phases.setup()
            last = ranked_total + workload.topics_per_round
            if rounds == 1:
                last = max(last, len(topics))
            while ranked_total < last:
                ranked += phases.rank([topics[ranked_total % len(topics)]])
                ranked_total += 1
                if ranked_total % len(topics) == 0:
                    phases.write_run(ranked)
                    ranked = []
            for _ in range(workload.evals):
                phases.eval()
            round_s = time.perf_counter() - began
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phases.check_round_trip()
    phases.check_cli()
    report = phases.report
    return {
        "metrics": {
            **timings(phases, clock.scaled),
            "index_bytes_per_token":
                phases.index_path.stat().st_size / phases.tokens,
            "map": report.mean_ap if report else 0.0,
            "p10": report.mean_p10 if report else 0.0,
            "peak_rss_mb": peak_kib / 1024,
        },
        "raw": timings(phases, clock.raw),
        "samples": {"rounds": rounds, "builds": len(clock.units["build"]),
                    "passes": len(clock.units["format"]),
                    "topics": ranked_total,
                    "evals": len(clock.units.get("eval", ())),
                    "reference": len(clock.references),
                    "slowdown": round(statistics.median(clock.references)
                                      / REFERENCE_S, 4)},
    }


def per_layer(phases: Phases, workload_name: str, spans_out: Path) -> dict:
    """One build, setup, search pass and eval with spans on.

    The same units run untraced before and after the traced ones; their
    mean is the base of ``trace.overhead_frac``.  Each unit is scaled as
    :class:`Clock` says.
    """
    def one_of_each() -> float:
        """Their total time, scaled."""
        phases.clock = Clock()
        with phases.clock.sampling():
            phases.build()
            phases.setup()
            phases.search()
            phases.eval()
        return phases.clock.scaled_total()
    before = one_of_each()
    tracer = spans.Tracer(workload_name)
    with spans.instrument(tracer):
        traced = one_of_each()
    after = one_of_each()
    phases.check_round_trip()
    phases.check_cli()
    tracer.write(spans_out)

    calls, total, own = tracer.totals()
    count = tracer.counters
    scored = count["ranker.candidates"]
    return {"metrics": {
        "index.read_corpus_s": total["index.read_corpus"],
        "index.tokenize_s": total["index.tokenize"],
        "index.build_index_s": own["index.build_index"],
        "index.to_bytes_s": total["index.to_bytes"],
        "index.bytes": count["index.bytes"],
        "index.from_bytes_s": total["index.from_bytes"],
        "index.term_frequency_calls": calls["index.term_frequency"],
        "index.term_frequency_s": total["index.term_frequency"],
        "index.extract_features_calls": calls["index.extract_features"],
        "index.extract_features_self_s": own["index.extract_features"],
        "fis.evaluate_calls": calls["fis.evaluate"],
        "fis.evaluate_s": total["fis.evaluate"],
        "fis.grid_points": count["fis.grid_points"],
        "ranker.instantiate_fis_s": total["ranker.instantiate_fis"],
        "ranker.rules_instantiated": count["ranker.rules_instantiated"],
        "ranker.score_s": total["ranker.score"],
        "ranker.self_s": own["ranker.score"],
        "ranker.candidates": scored,
        "ranker.returned": count["ranker.returned"],
        "ranker.returned_per_candidate":
            count["ranker.returned"] / scored if scored else 0.0,
        "fisfile.load_template_s": total["fisfile.load_template"],
        "evaluation.format_run_s": total["evaluation.format_run"],
        "evaluation.parse_run_s": total["evaluation.parse_run"],
        "evaluation.parse_qrels_s": total["evaluation.parse_qrels"],
        "evaluation.evaluate_run_s": total["evaluation.evaluate_run"],
        "evaluation.run_lines": count["evaluation.run_lines"],
        "evaluation.judgments": count["evaluation.judgments"],
        "trace.overhead_frac": 2 * traced / (before + after) - 1.0,
    }, "samples": {"spans": len(tracer.start)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pins", type=Path,
                        help="pinned digests; without it, outputs are only "
                             "checked against each other")
    parser.add_argument("--spans", type=Path, required=True,
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    pins = None
    if args.pins is not None:
        shipped = json.loads(args.pins.read_text(encoding="utf-8"))
        pins = shipped.get(args.workload, {}).get(str(args.seed))
    gate = Gate(pins)
    phases = Phases(WORKLOADS[args.workload], args.data, gate)
    if args.trace:
        result = per_layer(phases, args.workload, args.spans)
    else:
        result = end_to_end(phases, args.seconds)
    result.update(attempted=gate.attempted, failed=len(gate.failures),
                  failures=gate.failures[:20], digests=gate.digests,
                  pinned=pins is not None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
