"""Steadiness of the benchmark: repeat one workload and compare spreads to bounds.

    python3 perfbench/steady.py --workload toy_train --seeds 0 1 --runs 5
    python3 perfbench/steady.py --workload druglike_eval --seeds 0 1 2 3 4 5 6 7 8 9 --runs 1

Each run is a fresh ``run.py`` process.  For every end-to-end metric the
table gives, per seed and pooled over all runs, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
two or more seeds it also gives each seed's median against the first seed's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on seed {seed}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict[int, list[dict]] = {s: [] for s in args.seeds}
    for r in range(args.runs):
        for seed in args.seeds:
            results[seed].append(one_run(args.workload, seed, bench["run_seconds"]))

    print(f"{args.workload}: {args.runs} run(s) per seed, seeds {args.seeds}, "
          f"{bench['run_seconds']} s per run")
    print(f"{'metric':<12} {'group':<7} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'shift':>7}")
    ok = True
    for name in bounds:
        groups = [(f"seed {s}", [r["metrics"][name]["value"] for r in results[s]])
                  for s in args.seeds]
        pooled = [v for _, vals in groups for v in vals]
        first_median = statistics.median(groups[0][1])
        for label, values in groups + [("all", pooled)]:
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            shift = med / first_median - 1.0
            if label == "all" and spread > bounds[name]:
                ok = False
            print(f"{name:<12} {label:<7} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.2%} {bounds[name]:>6.0%} {shift:>+7.2%}")
    ordered = [r for s in args.seeds for r in results[s]]
    for name in bounds:
        print(f"{name} by run, seeds in order: "
              + " ".join(f"{r['metrics'][name]['value']:.5g}" for r in ordered))
    shares = {r["failed"] / r["attempted"] for rs in results.values() for r in rs}
    correct = all(r["correct"] for rs in results.values() for r in rs)
    print(f"correct in every run: {correct}; failed shares seen: {sorted(shares)}")
    return 0 if ok and correct and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
