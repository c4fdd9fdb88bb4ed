"""A fixed piece of the benchmark's own work that measures the machine's speed.

The machine the benchmark runs on is shared: its speed drifts by tens of
percent over seconds to minutes with load it cannot see.  So child.py runs
``per_rep_seconds`` in every workload process, right after the part it
times, and run.py scales the timings by ``NOMINAL_REP_S`` over the result:
a drift that slows the workload slows this reference work too, and cancels
out.

The work is molgen's: build, write, read back and colour-refine forty
drug-like molecules of 15 to 45 heavy atoms.  It never imports moltrip, so
no change to moltrip can change its speed.  The cyclic garbage collector is
off while it runs, so the heap the workload left behind does not change its
speed either.
"""

from __future__ import annotations

import gc
import random
import time

import molgen

# CPU seconds of one repetition on the machine the README's figures come
# from; it sets only the scale of the reported figures.
NOMINAL_REP_S = 0.038

_MOLECULES = 40


def _plans() -> list[tuple[dict, str]]:
    plans = []
    for k in range(_MOLECULES):
        tag = f"reference-{k}"
        atoms = 15 + (30 * k) // (_MOLECULES - 1)
        plans.append((molgen.blueprint(atoms, random.Random(tag)), tag))
    return plans


def _work(plans: list[tuple[dict, str]]) -> None:
    palette = molgen.Palette()
    for plan, tag in plans:
        rng = random.Random(tag)
        text = molgen.write_smiles(molgen.build(plan, rng), rng)
        molgen.invariant(molgen.read_smiles(text), palette)


def per_rep_seconds(reps: int) -> float:
    """Process CPU seconds per repetition, over ``reps`` timed repetitions."""
    plans = _plans()
    _work(plans)  # untimed: the first repetition compiles and allocates
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(reps):
            _work(plans)
        return (time.process_time() - start) / reps
    finally:
        gc.enable()
