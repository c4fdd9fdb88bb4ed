"""The moltrip benchmark: one workload, inputs made from a seed, one result.

    python3 perfbench/run.py --workload druglike_eval --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout; it imports moltrip from ``src/`` there
and writes only under ``.perfbench/``.  Every probe and every round runs in
a fresh interpreter (see child.py).  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

A run does a fixed number of rounds, set by ``--seconds`` and the nominal
length of one batch of rounds below, never by a deadline.  Rounds run two
at a time, one per CPU, and every round does the same work.  Both timings
count process CPU time and are scaled by the speed of the machine, which
every process measures right after the part it times with the fixed
reference work of reference.py (see ``speed``).  ``items_per_s`` averages
only the middle half of the rounds (see ``steady_rate``), so a burst of
outside load in a few rounds does not move it, and is scaled by the
median speed over the run.  ``setup_s`` is the median over the rounds and,
where there are fewer than 16 rounds, set-up probes run in pairs between
the batches, of each one's CPU time to the first item scaled by its own
speed; ``peak_rss_mb`` is the median over rounds.  A round whose output
check finds a problem counts all its items as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

# Nominal wall seconds of one batch of STREAMS rounds on a 2-CPU machine; a
# run does max(1, round(seconds / nominal)) batches.  A toy_train round is a
# whole train-toy run, so it always does one batch.
NOMINAL_BATCH_S = {"toy_train": 60.0, "druglike_eval": 2.2, "druglike_dedupe": 2.0}
REFERENCE_REPS = 8     # of reference.py's work, about 0.04 s each, per process
SETUP_SAMPLES = 16     # set-up times per run, at least; probes make up the rest
STREAMS = 2            # rounds run side by side, one per CPU
RUN_LIMIT_S = 175.0    # a run gives up rather than outlive this

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB"}


class RunFailed(RuntimeError):
    """A workload process crashed, timed out or reported no timings."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)       # moltrip comes from the checkout only
    env["PYTHONHASHSEED"] = "0"       # same set and dict orders in every process
    return env


def start(spec: dict, workdir: str) -> tuple:
    """Start one workload process; ``finish`` waits for it."""
    tag = f"{spec['mode']}-{time.monotonic_ns()}"
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    spec = dict(spec, root=ROOT, result=os.path.join(workdir, f"{tag}.result.json"))
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return spec, proc


def finish_all(pending: list, deadline: float) -> list[dict]:
    """Wait for every started process; kill the rest if one fails."""
    try:
        return [finish(p, deadline) for p in pending]
    finally:
        for _, proc in pending:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def finish(pending: tuple, deadline: float) -> dict:
    """Wait for a started process and return its report."""
    spec, proc = pending
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{spec['mode']} process passed the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise RunFailed(f"{spec['mode']} process exited {proc.returncode}: "
                        f"{err.decode(errors='replace')[-2000:]}")
    with open(spec["result"], encoding="utf-8") as handle:
        report = json.load(handle)
    if "first" not in report["marks"]:
        raise RunFailed(f"{spec['mode']} process never reached its first item")
    # Process CPU time counts from the start of the interpreter.
    report["setup_s"] = report["marks"]["first"]["cpu"]
    report["argv"] = spec["argv"]
    return report


def spawn(spec: dict, workdir: str, deadline: float) -> dict:
    return finish(start(spec, workdir), deadline)


def observe(report: dict) -> dict:
    """What the output checks look at: printed text plus files written."""
    observed = dict(report)
    argv = report["argv"]
    for flag, key in (("--out", "kept"), ("--sidecar", "sidecar")):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            with open(path, encoding="utf-8") as handle:
                observed[key] = handle.read()
            os.remove(path)
    return observed


def retarget(argv: list[str], prefix: str) -> list[str]:
    """The same command with its output files renamed by a prefix."""
    out = list(argv)
    for flag in ("--out", "--sidecar"):
        if flag in out:
            k = out.index(flag) + 1
            out[k] = os.path.join(os.path.dirname(out[k]), prefix + os.path.basename(out[k]))
    return out


def round_cpu(report: dict) -> float:
    """Process CPU seconds of one round's timed region."""
    marks = report["marks"]
    return marks["end"]["cpu"] - marks["first"]["cpu"]


def speed(report: dict) -> float:
    """The machine's speed in one process, 1 at the reference's nominal time.

    CPU time on a shared machine moves with load outside it; the reference
    work the process ran right after its timed part moves with it, so a
    CPU time multiplied by this factor moves less.
    """
    return reference.NOMINAL_REP_S / report["reference_s"]


def steady_rate(reports: list[dict], speeds: list[float], items: int) -> float:
    """Items per second of the rounds' CPU times, scaled by the run's speed.

    Every round of a run does the same work.  The rounds' CPU times are
    averaged over the middle half, leaving out the fastest and the slowest
    quarter, so outside load that slows a few rounds does not move the
    figure; with fewer than four rounds this is the plain mean.  The
    average is scaled by the median speed of every process of the run, not
    round by round: one process's reference work lasts a fraction of a
    second and reads the speed of that moment, while a toy_train round
    lasts a minute.
    """
    times = sorted(round_cpu(r) for r in reports)
    cut = len(times) // 4
    return items / (statistics.mean(times[cut:len(times) - cut]) * statistics.median(speeds))


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(OUT, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        argv, items, expected = workloads.make_inputs(workload, seed, workdir)
        base = {"workload": workload, "reference_reps": 0}
        spawn(dict(base, argv=argv, mode="probe"), workdir, deadline)  # warm bytecode
        problems: list[str] = []
        failed = 0

        def batch(*modes: str, **extra) -> list[dict]:
            """One round per mode, side by side, each writing its own files."""
            nonlocal failed
            pending = [start(dict(base, **extra, mode=mode,
                                  argv=retarget(argv, f"{k}-")), workdir)
                       for k, mode in enumerate(modes)]
            reports = finish_all(pending, deadline)
            for report in reports:
                found = workloads.check(workload, expected, observe(report))
                problems.extend(found)
                failed += items if found else 0
            return reports

        if traced:
            trace_dir = os.path.join(OUT, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            plain, traced_report = batch("round", "trace", trace_path=os.path.join(
                trace_dir, f"{workload}-seed{seed}.jsonl"))
            layers = traced_report["layers"]
            layers["trace.overhead_ratio"] = round_cpu(traced_report) / round_cpu(plain)
            metrics = {name: {"value": float(layers[name]), "unit": unit}
                       for name, unit in PER_LAYER}
            attempted = 2 * items
        else:
            # Where the rounds give fewer than SETUP_SAMPLES set-up times,
            # probes make up the rest, in pairs like the rounds, spread over
            # the run: before each batch of rounds and after the last one.
            batches = max(1, round(seconds / NOMINAL_BATCH_S[workload]))
            missing = max(0, SETUP_SAMPLES - STREAMS * batches)
            pairs_per_gap = math.ceil(missing / STREAMS / (batches + 1))
            probe = dict(base, argv=argv, mode="probe", reference_reps=REFERENCE_REPS)

            def probes() -> list[dict]:
                found = []
                for _ in range(pairs_per_gap):
                    found += finish_all([start(probe, workdir) for _ in range(STREAMS)],
                                        deadline)
                return found

            set_ups, reports = probes(), []
            for _ in range(batches):
                reports += batch(*["round"] * STREAMS, reference_reps=REFERENCE_REPS)
                set_ups += probes()
            speeds = [speed(r) for r in set_ups + reports]
            values = {
                "setup_s": statistics.median(r["setup_s"] * f
                                             for r, f in zip(set_ups + reports, speeds)),
                "items_per_s": steady_rate(reports, speeds, items),
                "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024 for r in reports),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
            attempted = len(reports) * items
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "moltrip", "cli.py")):
        print(f"no moltrip sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
