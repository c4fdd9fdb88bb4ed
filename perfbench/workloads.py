"""Inputs of each workload, made from a seed, and the checks of its outputs.

The seed picks fragments, attachment sites and spellings; it never changes
how many items a round holds, their heavy-atom counts or the share of each
kind.  Every expected figure comes from the construction in ``molgen``,
never from a stored copy of the program's output.
"""

from __future__ import annotations

import json
import os
import random

import molgen

WORKLOADS = ("toy_train", "druglike_eval", "druglike_dedupe")

# The toy task as its specification lists it: eight molecules, 200 steps.
TOY_MOLECULES = ("CCCC", "CCCO", "CCCN", "CCOC", "CCNC", "OCCO", "CC=O", "CC#N")
TOY_STEPS = 200
TOY_SEED0_FLOOR = 0.9  # acceptance criterion 7: seed 0 round-trips >= 0.9

EVAL_PAIRS = 24
EVAL_KINDS = ("respelled", "edited", "unrelated", "invalid")
REFERENCE_SIZE = 240
TARGET_PATTERN = "DXDXMDXJDX"  # D duplicate, X distinct, M bad SMILES, J broken JSON
TARGET_REPEATS = 32


def slot_atoms(slot: int, slots: int) -> int:
    """Heavy atoms of a slot: spread evenly over 15..45."""
    return 15 + (30 * slot) // (slots - 1)


def slot_plan(tag: str, slot: int, slots: int) -> dict:
    return molgen.blueprint(slot_atoms(slot, slots), random.Random(f"{tag}-{slot}"))


def build_other(plan: dict, rng: random.Random, taken) -> "molgen.Graph":
    """A molecule from ``plan`` for which ``taken(graph)`` is false."""
    for _ in range(100):
        g = molgen.build(plan, rng)
        if not taken(g):
            return g
    raise RuntimeError(f"no new molecule for {plan} in 100 draws")


def _write_jsonl(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _record(smiles: str, caption: str, rid: str) -> str:
    return json.dumps({"smiles": smiles, "caption": caption, "id": rid})


# ---------------------------------------------------------------------------
# input makers: each returns (argv, items per round, expected)

def make_inputs(workload: str, seed: int, workdir: str):
    if workload == "toy_train":
        return ["train-toy", "--seed", str(seed)], TOY_STEPS, {"seed": seed}
    if workload == "druglike_eval":
        return _make_eval(seed, workdir)
    if workload == "druglike_dedupe":
        return _make_dedupe(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def eval_pairs(seed: int) -> list[tuple[str, str, str]]:
    """(reference, caption, kind) per slot; kind = slot mod 4."""
    palette = molgen.Palette()
    pairs = []
    for i in range(EVAL_PAIRS):
        rng = random.Random(f"eval-{seed}-{i}")
        g = molgen.build(slot_plan("eval", i, EVAL_PAIRS), rng)
        ref = molgen.write_smiles(g, rng)
        kind = EVAL_KINDS[i % 4]
        if kind == "respelled":
            caption = molgen.respell(g, rng, ref)
        elif kind == "edited":
            caption = molgen.write_smiles(molgen.edit_one_atom(g, rng), rng)
        elif kind == "unrelated":
            other_plan = slot_plan("eval", (i + EVAL_PAIRS // 2) % EVAL_PAIRS, EVAL_PAIRS)
            other = build_other(other_plan, rng,
                                lambda h: molgen.same_molecule(h, g, palette))
            caption = molgen.write_smiles(other, rng)
        elif (i // 4) % 2 == 0:
            caption = molgen.malformed(molgen.respell(g, rng, ref), rng)
        else:
            caption = molgen.write_smiles(molgen.over_valent(g, rng), rng)
        pairs.append((ref, caption, kind))
    return pairs


def _make_eval(seed: int, workdir: str):
    pairs = eval_pairs(seed)
    path = os.path.join(workdir, "pairs.jsonl")
    _write_jsonl(path, [_record(r, c, f"pair-{i}") for i, (r, c, _) in enumerate(pairs)])
    counts = {k: sum(1 for *_, kind in pairs if kind == k) for k in EVAL_KINDS}
    expected = {
        "samples": len(pairs),
        "exact": counts["respelled"],
        "valid": len(pairs) - counts["invalid"],
    }
    return ["eval", "--pairs", path], len(pairs), expected


def dedupe_sets(seed: int):
    """Reference records, target lines, and the construction's verdicts."""
    palette = molgen.Palette()
    refs, ref_graphs = [], []
    buckets: dict[tuple, list] = {}
    for k in range(REFERENCE_SIZE):
        rng = random.Random(f"ref-{seed}-{k}")
        g = molgen.build(slot_plan("ref", k, REFERENCE_SIZE), rng)
        refs.append(molgen.write_smiles(g, rng))
        ref_graphs.append(g)
        buckets.setdefault(molgen.invariant(g, palette), []).append(g)

    def in_reference(g) -> bool:
        return any(molgen.same_molecule(g, h, palette)
                   for h in buckets.get(molgen.invariant(g, palette), ()))

    lines, verdict = [], {}
    slots = TARGET_REPEATS * len(TARGET_PATTERN)
    for t in range(slots):
        kind = TARGET_PATTERN[t % len(TARGET_PATTERN)]
        rng = random.Random(f"target-{seed}-{t}")
        rid = f"t-{t}"
        if kind == "D":
            k = (t * 37) % REFERENCE_SIZE
            text = molgen.respell(ref_graphs[k], rng, refs[k])
        else:
            plan = slot_plan("target", t, slots)
            g = build_other(plan, rng, in_reference)
            text = molgen.write_smiles(g, rng)
            if kind == "M":
                text = molgen.malformed(text, rng)
        record = _record(text, f"target record {t}", rid)
        if kind == "J":
            lines.append(record[: len(record) // 2])  # cut mid-record
        else:
            lines.append(record)
            verdict[rid] = (kind, text)
    return refs, lines, verdict


def _make_dedupe(seed: int, workdir: str):
    refs, lines, verdict = dedupe_sets(seed)
    ref_path = os.path.join(workdir, "reference.jsonl")
    target_path = os.path.join(workdir, "target.jsonl")
    _write_jsonl(ref_path, [_record(s, f"reference {k}", f"r-{k}") for k, s in enumerate(refs)])
    _write_jsonl(target_path, lines)
    argv = ["dedupe", "--target", target_path, "--reference", ref_path,
            "--out", os.path.join(workdir, "kept.jsonl"),
            "--sidecar", os.path.join(workdir, "sidecar.tsv")]
    expected = {
        "kept": sorted(r for r, (k, _) in verdict.items() if k == "X"),
        "removed": sorted(r for r, (k, _) in verdict.items() if k in "DM"),
        "duplicates": sum(1 for k, _ in verdict.values() if k == "D"),
        "loaded": len(verdict),
        "broken_lines": len(lines) - len(verdict),
        "bad_smiles": sorted(t for k, t in verdict.values() if k == "M"),
    }
    return argv, len(verdict), expected


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when correct

def _printed(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check(workload: str, expected: dict, observed: dict) -> list[str]:
    if observed.get("rc") != 0:
        return [f"exit code {observed.get('rc')}"]
    try:
        return {
            "toy_train": _check_toy,
            "druglike_eval": _check_eval,
            "druglike_dedupe": _check_dedupe,
        }[workload](expected, observed)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_toy(expected: dict, observed: dict) -> list[str]:
    printed = _printed(observed["stdout"])
    problems = []
    if printed["steps"] != str(TOY_STEPS):
        problems.append(f"steps {printed['steps']} != {TOY_STEPS}")
    samples = observed["samples"]
    if len(samples) != len(TOY_MOLECULES):
        return problems + [f"{len(samples)} round-trip samples, not {len(TOY_MOLECULES)}"]
    palette = molgen.Palette()
    same = 0
    for spec, (original, reconstruction) in zip(TOY_MOLECULES, samples):
        target = molgen.read_smiles(spec)
        if not molgen.same_molecule(molgen.read_smiles(original), target, palette):
            problems.append(f"sample original {original!r} is not {spec!r}")
        try:
            rebuilt = molgen.read_smiles(reconstruction)
        except ValueError:
            continue
        same += molgen.same_molecule(rebuilt, target, palette)
    rate = float(printed["round_trip"])
    if not _close(rate, same / len(TOY_MOLECULES)):
        problems.append(f"round_trip {rate} != own count {same}/{len(TOY_MOLECULES)}")
    if expected["seed"] == 0 and rate < TOY_SEED0_FLOOR:
        problems.append(f"seed 0 round_trip {rate} < {TOY_SEED0_FLOOR}")
    return problems


def _check_eval(expected: dict, observed: dict) -> list[str]:
    printed = _printed(observed["stdout"])
    n, exact, valid = expected["samples"], expected["exact"], expected["valid"]
    problems = []
    if int(printed["samples"]) != n:
        problems.append(f"samples {printed['samples']} != {n}")
    for name, want in (("exact_pct", 100.0 * exact / n),
                       ("validity_pct", 100.0 * valid / n),
                       ("round_trip", exact / n)):
        if not _close(float(printed[name]), want):
            problems.append(f"{name} {printed[name]} != {want}")
    floor = exact / valid
    for name in ("sim_keys", "sim_path", "sim_morgan"):
        value = float(printed[name])
        if not floor - 1e-12 <= value <= 1.0 + 1e-12:
            problems.append(f"{name} {value} outside [{floor}, 1]")
    return problems


def _check_dedupe(expected: dict, observed: dict) -> list[str]:
    printed = _printed(observed["stdout"])
    problems = []
    kept = sorted(json.loads(line)["id"] for line in observed["kept"].splitlines())
    loaded = set(expected["kept"]) | set(expected["removed"])
    removed = sorted(loaded - set(kept))
    if kept != expected["kept"]:
        problems.append(f"kept ids differ: {sorted(set(kept) ^ set(expected['kept']))[:5]}")
    if removed != expected["removed"] or int(printed["removed"]) != len(expected["removed"]):
        problems.append(f"removed {printed['removed']} != {len(expected['removed'])}")
    if int(printed["kept"]) != len(expected["kept"]):
        problems.append(f"kept {printed['kept']} != {len(expected['kept'])}")
    want = expected["duplicates"] / expected["loaded"]
    if not _close(float(printed["overlap_fraction"]), want):
        problems.append(f"overlap_fraction {printed['overlap_fraction']} != {want}")
    warning = f"warning: {expected['broken_lines']} malformed lines set aside"
    if observed["stderr"].splitlines()[:1] != [warning]:
        problems.append(f"stderr {observed['stderr'][:80]!r} lacks {warning!r}")
    aside = sorted(line.split("\t")[1] for line in observed["sidecar"].splitlines())
    if aside != expected["bad_smiles"]:
        problems.append(f"sidecar holds {len(aside)} strings, not the "
                        f"{len(expected['bad_smiles'])} malformed SMILES")
    return problems
