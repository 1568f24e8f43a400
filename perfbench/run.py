"""The benchmark command: seeded collection, workloads, correctness gate.

    python3 perfbench/run.py                          # every workload, seed 1
    python3 perfbench/run.py --workload search_fis --seed 7
    python3 perfbench/run.py --trace 1                # per-layer metrics
    python3 perfbench/run.py --seed 1 2 3 4 5 --repeat 2   # medians, quartiles
    python3 perfbench/run.py --write-pins             # re-pin seeds 1 and 2

For every (workload, seed) it generates the collection in this process,
then runs the workload in a child process (workload.py), so that
``peak_rss_mb`` excludes the generator.  It prints every metric by name
with its unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With several runs
the metrics are medians, with their quartiles, keyed ``workload/metric``.

Metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen
from spec import DEFAULT_SEED, SHIPPED_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
#: a run must end within 180 s; the child gets what is left of this
RUN_LIMIT_S = 170.0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(workload: str, seed: int, data: Path, seconds: float,
              trace: int, pinned: bool, deadline: float | None) -> dict:
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", workload, "--data", str(data),
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace),
               "--spans", str(HERE / "out" / f"spans-{workload}.tsv")]
    if pinned:
        command += ["--pins", str(PINS)]
    # A session of its own, so that a timeout also stops the CLI process
    # the workload may have started.
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=None if deadline is None
                                         else deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise SystemExit(f"perfbench: {workload} seed {seed} timed out")
    if child.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: {workload} seed {seed} failed "
                         f"(exit {child.returncode})")
    return json.loads(out.splitlines()[-1])


def show(workload: str, seed: int, result: dict, units: dict) -> None:
    raw = result.get("raw", {})
    for name, unit in units.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{workload:<16} seed={seed:<4} {name:<32} "
              f"{result['metrics'][name]:>14.6g} {unit}{unscaled}")
    failed_frac = result["failed"] / result["attempted"]
    samples = " ".join(f"{k}={v}" for k, v in result["samples"].items())
    print(f"{workload:<16} seed={seed:<4} {'failed_frac':<32} "
          f"{failed_frac:>14.6g} ({result['failed']}/{result['attempted']}"
          f"{', pinned' if result['pinned'] else ''})  samples: {samples}")
    for failure in result["failures"]:
        print(f"{workload:<16} seed={seed:<4} FAILED {failure}")


def summarize(runs: list[tuple[str, int, dict]], units: dict,
              show: bool) -> dict:
    """Median and quartiles of each metric per workload."""
    metrics = {}
    for workload in dict.fromkeys(w for w, _, _ in runs):
        for name, unit in units.items():
            values = [r["metrics"][name] for w, _, r in runs if w == workload]
            q1, median, q3 = (statistics.quantiles(values, n=4)
                              if len(values) > 1 else values * 3)
            spread = (q3 - q1) / median if median else 0.0
            if show:
                print(f"{workload:<16} {name:<32} median {median:>12.6g} "
                      f"q1 {q1:>12.6g} q3 {q3:>12.6g} "
                      f"iqr/median {spread:>7.4f} {unit} (n={len(values)})")
            metrics[f"{workload}/{name}"] = {
                "value": median, "unit": unit, "q1": q1, "q3": q3,
                "runs": len(values)}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="+", default=[DEFAULT_SEED])
    parser.add_argument("--seconds", type=int,
                        help="measuring time per run; accepted only as "
                             "run_seconds in BENCHMARK.json, which fixes it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run every (workload, seed) this many times")
    parser.add_argument("--write-pins", action="store_true",
                        help="record the output digests of the shipped "
                             "seeds in pins.json")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "frank" / "__init__.py").is_file():
        print(f"perfbench: no frank sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_pins:
        args.seed, args.trace, args.repeat = list(SHIPPED_SEEDS), 0, 1
    spec = benchmark_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"perfbench: --seconds must be {seconds}, the run_seconds of "
              "BENCHMARK.json, so that every run measures equally long",
              file=sys.stderr)
        return 2
    work = HERE / "work" / str(os.getpid())
    single = len(args.seed) * len(args.workload) * args.repeat == 1
    deadline = started + RUN_LIMIT_S if single else None
    runs: list[tuple[str, int, dict]] = []
    try:
        for seed in args.seed:
            for workload in args.workload:
                data = work / f"{WORKLOADS[workload].shape}-{seed}"
                if not data.is_dir():
                    gen.generate(gen.SHAPES[WORKLOADS[workload].shape], seed,
                                 data)
                for _ in range(args.repeat):
                    result = run_child(
                        workload, seed, data, seconds, args.trace,
                        pinned=(seed in SHIPPED_SEEDS and PINS.is_file()
                                and not args.write_pins),
                        deadline=deadline)
                    show(workload, seed, result, units)
                    runs.append((workload, seed, result))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for _, _, r in runs)
    failed = sum(r["failed"] for _, _, r in runs)
    if args.write_pins and failed:
        print("perfbench: outputs failed their checks; pins not written",
              file=sys.stderr)
        return 1
    if args.write_pins:
        pins = {}
        for workload, seed, result in runs:
            pins.setdefault(workload, {})[str(seed)] = result["digests"]
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {PINS}")

    if single:
        metrics = {name: {"value": runs[0][2]["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = summarize(runs, units,
                            show=len(args.seed) * args.repeat > 1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
