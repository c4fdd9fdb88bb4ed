"""One workload process: import moltrip, run one CLI command, report timings.

run.py starts this script in a fresh interpreter for every probe and every
round, as a user starts the ``moltrip`` command, so no round is served from
work an earlier round did.  Usage: ``python3 perfbench/child.py SPEC.json``.

The spec names the mode: ``probe`` stops at the first item and only times
set-up; ``round`` runs the command to its end; ``trace`` runs it with the
tracer installed.  After the part it times, and after reading its peak
memory, the process runs ``reference_reps`` repetitions of the fixed
reference work of reference.py, which run.py scales its timings by.
Nothing inside moltrip changes: the first item is marked by a one-shot
wrapper around the public function that starts the per-item work, which
puts the original back on its first call.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

# Per workload: the (module, function) whose first call marks the first
# item.  These are the names the command reaches the per-item work through;
# if a change to moltrip renames one, every probe fails with that name.
FIRST_ITEM = {
    "toy_train": ("moltrip.toy", "run_training"),
    "druglike_eval": ("moltrip.cli", "reconstruction_score"),
    "druglike_dedupe": ("moltrip.cli", "dedupe_overlap"),
}


def _mark():
    return {"wall": time.monotonic(), "cpu": time.process_time()}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import moltrip.cli as cli
    import_ms = (time.perf_counter() - start) * 1e3
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"moltrip imported from {cli.__file__}, not {src}")

    marks: dict = {}
    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    module = sys.modules[FIRST_ITEM[spec["workload"]][0]]
    name = FIRST_ITEM[spec["workload"]][1]
    original = getattr(module, name)

    def first_item(*args, **kwargs):
        marks["first"] = _mark()
        setattr(module, name, original)
        if spec["mode"] == "probe":
            raise SystemExit(0)
        return original(*args, **kwargs)

    setattr(module, name, first_item)

    samples = []
    if spec["workload"] == "toy_train":
        harness = sys.modules["moltrip.harness"]
        evaluate = harness.evaluate_round_trip

        def keep_samples(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            samples.extend((s.original, s.reconstruction) for s in result[2])
            return result

        harness.evaluate_round_trip = keep_samples

    entry = tracer.timed("cli.main", cli.main) if tracer else cli.main
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = entry(spec["argv"])
        except SystemExit as exc:
            if spec["mode"] != "probe" or "first" not in marks:
                raise
    marks["end"] = _mark()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "marks": marks,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "samples": samples,
        "peak_rss_kib": peak_rss_kib,
    }
    if spec["reference_reps"]:
        import reference
        result["reference_s"] = reference.per_rep_seconds(spec["reference_reps"])
    if tracer is not None:
        original_canonical = sys.modules["moltrip.chem.canon"].canonical_smiles
        canonical = getattr(original_canonical, "__wrapped__", original_canonical)
        result["layers"] = tracer.layer_metrics(canonical, import_ms)
        tracer.dump(spec["trace_path"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
