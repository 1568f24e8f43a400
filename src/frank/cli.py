"""Command-line front door: index, search, eval, diff, fis-eval, mf-data.

Every subcommand is deterministic: the same files and flags produce
byte-identical output.  Errors print one greppable ``frank: error:`` line
to stderr; usage errors exit 1, data/format errors exit 2.  A warning prints
one ``frank: warning:`` line to stderr when the command ends, however often
it was raised, and leaves stdout and the exit code alone; a command that
fails prints its error line only.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import (FrankError, RunFormatError, UsageError, read_text,
                     split_lines)
from .evaluation import (evaluate_run, format_diff, format_report, format_run,
                         load_qrels, load_run, report_jsonl, run_from_ranked)
from .fis import MAX_RESOLUTION, evaluate, fire_rule, fuzzify
from .fisfile import load_fis_config, load_template
from .index import (InvertedIndex, build_index, one_word, read_corpus_jsonl,
                    tokenize)
from .ranker import DEFAULT_CUTOFF, score_baseline, score_fis
from .rules import print_rule


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (argparse defaults to 2)."""

    def error(self, message):
        print(f"frank: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def cmd_index(args) -> int:
    index = build_index(read_corpus_jsonl(args.corpus))
    index.save(args.out)
    print(f"docs={index.total_docs} terms={len(index.terms)} "
          f"tokens={index.total_tokens}")
    return 0


def _read_queries_tsv(path: str) -> list[tuple[str, str]]:
    queries: dict[str, str] = {}
    for number, raw in enumerate(
            split_lines(read_text(path, RunFormatError)), start=1):
        if not raw.strip():
            continue
        topic, sep, text = raw.partition("\t")
        topic = topic.strip()
        if not sep or not topic or not text.strip():
            raise RunFormatError(
                "expected 'topic<TAB>query text'", line=number
            )
        if not one_word(topic):
            raise RunFormatError(f"whitespace in topic {topic!r}", line=number)
        if topic in queries:  # a run holds one ranked list per topic
            raise RunFormatError(f"duplicate topic {topic}", line=number)
        if not tokenize(text):  # the scorers reject it, after earlier topics
            raise RunFormatError(f"topic {topic}: query is empty after "
                                 "tokenization", line=number)
        queries[topic] = text.strip()
    if not queries:
        raise RunFormatError("no queries in batch file")
    return list(queries.items())


def cmd_search(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    if (args.query is None) == (args.queries is None):
        raise UsageError("exactly one of --query or --queries is required")
    for flag, value in (("--topic", args.topic), ("--tag", args.tag)):
        if not one_word(value):
            raise UsageError(f"{flag} must be one word, got {value!r}")
    if args.ranker == "fis" and args.template is None:
        raise UsageError("--template is required with --ranker fis")
    if args.query is not None:
        queries = [(args.topic, args.query)]
    else:
        queries = _read_queries_tsv(args.queries)
    index = InvertedIndex.load(args.index)
    if args.ranker == "fis":
        template = load_template(args.template)

        def rank(topic, text):
            return score_fis(index, template, text, k=args.k, query_id=topic)
    else:
        def rank(topic, text):
            return score_baseline(index, text, k=args.k, query_id=topic)

    run = run_from_ranked(
        [rank(topic, text) for topic, text in queries], args.tag
    )
    sys.stdout.write(format_run(run))
    return 0


def cmd_eval(args) -> int:
    run = load_run(args.run)
    report = evaluate_run(run, load_qrels(args.qrels))
    sys.stdout.write(format_report(report, run.tag))
    if args.jsonl:
        Path(args.jsonl).write_text(
            report_jsonl(report, run.tag), encoding="utf-8"
        )
    return 0


def cmd_diff(args) -> int:
    run_a = load_run(args.run_a)
    run_b = load_run(args.run_b)
    qrels = load_qrels(args.qrels)
    sys.stdout.write(format_diff(evaluate_run(run_a, qrels),
                                 evaluate_run(run_b, qrels),
                                 run_a.tag, run_b.tag))
    return 0


def _parse_assignments(pairs: list[str]) -> dict[str, float]:
    values: dict[str, float] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--in takes name=value, got {pair!r}")
        try:
            value = float(raw)
        except ValueError:
            raise UsageError(f"--in {name}: not a number: {raw!r}")
        if not math.isfinite(value):
            raise UsageError(f"--in {name}: not a finite number: {raw!r}")
        if name in values:
            raise UsageError(f"--in {name}: given more than once")
        values[name] = value
    return values


def cmd_fis_eval(args) -> int:
    config = load_fis_config(args.config)
    inputs = _parse_assignments(args.inputs or [])
    names = {variable.name for variable in config.inputs}
    unknown = sorted(inputs.keys() - names)
    if unknown:
        raise UsageError(f"unknown variable name(s): {', '.join(unknown)}")
    missing = sorted(names - inputs.keys())
    if missing:
        raise UsageError(f"missing input value(s): {', '.join(missing)}")
    if args.verbose:
        degrees = fuzzify(config, inputs)
        for number, rule in enumerate(config.rules, start=1):
            strength = fire_rule(rule, degrees, config.and_method)
            print(f"rule {number} strength {strength:.6f}  {print_rule(rule)}")
    print(f"crisp {evaluate(config, inputs):.6f}")
    return 0


def cmd_mf_data(args) -> int:
    if not 2 <= args.samples <= MAX_RESOLUTION:
        raise UsageError(f"--samples must lie between 2 and {MAX_RESOLUTION}, "
                         f"got {args.samples}")
    config = load_fis_config(args.config)
    variables = {v.name: v for v in config.inputs}
    variables[config.output.name] = config.output
    variable = variables.get(args.var)
    if variable is None:
        raise UsageError(
            f"unknown variable {args.var!r}; have "
            f"{', '.join(sorted(variables))}"
        )
    lo, hi = variable.universe
    grid = np.linspace(lo, hi, args.samples)
    labels = list(variable.sets)
    print("x," + ",".join(labels))
    columns = [variable.sets[label].sample(grid) for label in labels]
    for i, x in enumerate(grid):
        row = ",".join(f"{column[i]:.6f}" for column in columns)
        print(f"{x:.6f},{row}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frank",
                     description="Fuzzy-rule document ranking toolkit.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    p = commands.add_parser("index", help="build an index from a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = commands.add_parser("search", help="rank documents for queries")
    p.add_argument("--index", required=True)
    p.add_argument("--ranker", required=True, choices=("fis", "baseline"))
    p.add_argument("--template", help="template config (required for fis)")
    p.add_argument("--query", help="single query text")
    p.add_argument("--queries", help="batch TSV: topic<TAB>query text")
    p.add_argument("--topic", default="1", help="topic id for --query")
    p.add_argument("--k", type=int, default=DEFAULT_CUTOFF)
    p.add_argument("--tag", default="frank")
    p.set_defaults(func=cmd_search)

    p = commands.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--jsonl", help="also write a JSON-lines report here")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("diff", help="compare two runs against qrels")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.set_defaults(func=cmd_diff)

    p = commands.add_parser("fis-eval",
                            help="evaluate a config on crisp inputs")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="inputs", action="append", metavar="NAME=VALUE")
    p.add_argument("--verbose", action="store_true",
                   help="also print per-rule firing strengths")
    p.set_defaults(func=cmd_fis_eval)

    p = commands.add_parser("mf-data",
                            help="emit membership curves as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=cmd_mf_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    warned: dict[str, None] = {}
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: warned.setdefault(
            str(message))
        try:
            code = args.func(args)
        except (FrankError, OSError) as exc:
            print(f"frank: error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, UsageError) else 2
    for message in warned:
        print(f"frank: warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
