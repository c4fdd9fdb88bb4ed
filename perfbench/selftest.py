"""Self-test of the input generator and of the output checks.

    python3 perfbench/selftest.py [--seeds 3]

Part one reads every generated string back with the benchmark's own reader:
re-spellings must be the same molecule, edits and unrelated molecules valid
and different, invalid strings rejected by the reader or the valence check.
Part two feeds each output check the output the construction predicts,
which it must accept, and deliberately corrupted variants, each of which it
must reject.  Neither part imports moltrip.
"""

from __future__ import annotations

import argparse
import json
import sys

import molgen
import workloads


def _reads_back_invalid(text: str) -> bool:
    try:
        return not molgen.is_valid(molgen.read_smiles(text))
    except ValueError:
        return True


def check_generator(seed: int) -> list[str]:
    palette = molgen.Palette()
    problems = []
    for i, (ref, caption, kind) in enumerate(workloads.eval_pairs(seed)):
        g = molgen.read_smiles(ref)
        if not molgen.is_valid(g):
            problems.append(f"eval {seed}/{i}: reference {ref} invalid")
            continue
        if len(g) != workloads.slot_atoms(i, workloads.EVAL_PAIRS):
            problems.append(f"eval {seed}/{i}: {len(g)} heavy atoms")
        if kind == "invalid":
            if not _reads_back_invalid(caption):
                problems.append(f"eval {seed}/{i}: {caption} reads back valid")
            continue
        h = molgen.read_smiles(caption)
        same = molgen.same_molecule(g, h, palette)
        if kind == "respelled" and (not same or caption == ref):
            problems.append(f"eval {seed}/{i}: {caption} is no re-spelling of {ref}")
        if kind != "respelled" and (same or not molgen.is_valid(h)):
            problems.append(f"eval {seed}/{i}: {kind} {caption} is not valid and different")
    refs, lines, verdict = workloads.dedupe_sets(seed)
    ref_graphs = [molgen.read_smiles(r) for r in refs]
    for rid, (kind, text) in verdict.items():
        if kind == "M":
            if not _reads_back_invalid(text):
                problems.append(f"dedupe {seed}/{rid}: {text} reads back valid")
            continue
        g = molgen.read_smiles(text)
        hit = any(molgen.same_molecule(g, r, palette) for r in ref_graphs
                  if len(r) == len(g))
        if hit != (kind == "D"):
            problems.append(f"dedupe {seed}/{rid}: {kind} record {text} in reference: {hit}")
    broken = [line for line in lines if not _parses_as_record(line)]
    if len(broken) != len(lines) - len(verdict):
        problems.append(f"dedupe {seed}: {len(broken)} broken lines")
    return problems


def _parses_as_record(line: str) -> bool:
    try:
        return isinstance(json.loads(line), dict)
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# part two: the checks accept the prediction and reject corruptions

def _lines(**values) -> str:
    return "".join(f"{k} {v}\n" for k, v in values.items())


def check_checks() -> list[str]:
    problems = []

    def expect(workload, expected, observed, accept, label):
        found = workloads.check(workload, expected, observed)
        if accept and found:
            problems.append(f"{workload}: rejected the prediction ({label}): {found}")
        if not accept and not found:
            problems.append(f"{workload}: accepted a corruption ({label})")

    # druglike_eval
    n = workloads.EVAL_PAIRS
    exact, valid = n // 4, n - n // 4
    expected = {"samples": n, "exact": exact, "valid": valid}

    def eval_out(**change):
        values = dict(samples=n, exact_pct=100.0 * exact / n,
                      validity_pct=100.0 * valid / n, sim_keys=0.61,
                      sim_path=0.52, sim_morgan=0.55, round_trip=exact / n)
        values.update(change)
        return {"rc": 0, "stdout": _lines(**values), "stderr": ""}

    expect("druglike_eval", expected, eval_out(), True, "predicted")
    for label, change in (("exact", {"exact_pct": 100.0 * (exact + 1) / n}),
                          ("validity", {"validity_pct": 100.0 * (valid - 1) / n}),
                          ("round trip", {"round_trip": (exact + 1) / n}),
                          ("samples", {"samples": n - 1}),
                          ("similarity below floor", {"sim_path": 0.3}),
                          ("similarity above 1", {"sim_keys": 1.01})):
        expect("druglike_eval", expected, eval_out(**change), False, label)
    expect("druglike_eval", expected, dict(eval_out(), rc=1), False, "exit code")

    # druglike_dedupe
    expected = {"kept": ["t-1", "t-3"], "removed": ["t-0", "t-2", "t-4"],
                "duplicates": 2, "loaded": 5, "broken_lines": 1,
                "bad_smiles": ["c1ccc"]}

    def dedupe_out(kept=("t-1", "t-3"), removed=3, fraction=2 / 5,
                   warning=1, sidecar=("c1ccc",)):
        return {
            "rc": 0,
            "stdout": _lines(kept=len(kept), removed=removed, overlap_fraction=fraction),
            "stderr": f"warning: {warning} malformed lines set aside\n",
            "kept": "".join(json.dumps({"smiles": "C", "caption": "", "id": k}) + "\n"
                            for k in kept),
            "sidecar": "".join(f"4\t{s}\ttarget: bad\n" for s in sidecar),
        }

    expect("druglike_dedupe", expected, dedupe_out(), True, "predicted")
    for label, change in (("kept a duplicate", {"kept": ("t-0", "t-1", "t-3"), "removed": 2}),
                          ("dropped a distinct", {"kept": ("t-1",), "removed": 4}),
                          ("overlap", {"fraction": 3 / 5}),
                          ("no warning", {"warning": 0}),
                          ("sidecar", {"sidecar": ()})):
        expect("druglike_dedupe", expected, dedupe_out(**change), False, label)

    # toy_train
    spec = workloads.TOY_MOLECULES
    respelled = ["CCCC", "OCCC", "NCCC", "COCC", "CNCC", "OCCO", "O=CC", "N#CC"]

    def toy_out(rate=1.0, steps=200, recon=respelled, originals=spec):
        return {"rc": 0, "stdout": _lines(steps=steps, round_trip=rate),
                "samples": [list(p) for p in zip(originals, recon)]}

    for seed in (0, 2):
        expect("toy_train", {"seed": seed}, toy_out(), True, f"seed {seed}")
    wrong = respelled[:6] + ["CC=C", "C#CC"]
    expect("toy_train", {"seed": 2}, toy_out(rate=0.75, recon=wrong), True, "0.75 on seed 2")
    expect("toy_train", {"seed": 0}, toy_out(rate=0.75, recon=wrong), False, "0.75 on seed 0")
    expect("toy_train", {"seed": 2}, toy_out(recon=wrong), False, "rate above own count")
    expect("toy_train", {"seed": 2}, toy_out(steps=199), False, "199 steps")
    expect("toy_train", {"seed": 2}, toy_out(recon=respelled[:6] + ["CC=O", "C1CC"]),
           False, "unclosed ring counted")
    expect("toy_train", {"seed": 2}, toy_out(originals=respelled[1:] + ["CCCC"]),
           False, "originals out of order")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()
    problems = check_checks()
    for seed in range(args.seeds):
        problems += check_generator(seed)
    for problem in problems:
        print(problem)
    print(f"selftest: {len(problems)} problems over {args.seeds} seeds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
