"""The benchmark's hooks still name real moltrip callables.

``perfbench/tracing.py`` wraps functions and methods by name, so a rename
in moltrip would silently drop a layer from ``perfbench/run.py --trace 1``;
``perfbench/child.py`` marks each workload's first item by rebinding a
named function, so a rename there fails every benchmark probe.  Both
modules are imported read-only here; ``Tracer.install`` rebinds moltrip's
globals for the rest of the process, so it runs only in a child process.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
child = _load("child")


TARGETS = tracing.TIMED + tracing.COUNTED


@pytest.mark.parametrize(
    "module, attr, name", TARGETS, ids=[f"{m}:{a}" for m, a, _ in TARGETS],
)
def test_traced_target_resolves(module, attr, name):
    owner = importlib.import_module(module)
    cls_name, _, meth = attr.rpartition(".")
    if cls_name:  # looked up the way Tracer.install does: vars(cls)[meth]
        target = vars(getattr(owner, cls_name)).get(meth)
    else:
        target = getattr(owner, attr, None)
    assert callable(target), f"{module}.{attr} ({name}) no longer resolves"


@pytest.mark.parametrize(
    "workload, module, name",
    [(w, m, n) for w, (m, n) in child.FIRST_ITEM.items()],
    ids=list(child.FIRST_ITEM),
)
def test_first_item_target_resolves(workload, module, name):
    target = getattr(importlib.import_module(module), name, None)
    assert callable(target), f"{module}.{name} ({workload}) no longer resolves"


_TRACED_TOY = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
import moltrip.cli
from moltrip.harness import run_training
from moltrip.toy import build_toy_config, build_toy_task
from tracing import Tracer

tracer = Tracer()
tracer.install()
task = build_toy_task()
cfg = build_toy_config(max_steps=4)._replace(
    steps_per_phase=1, rollout_n=8, group_size_g=4, recon_samples_m=2)
run_training(task.captioner, task.generator, list(task.pairs), cfg)
print(json.dumps({"spans": tracer.spans, "pairs": len(task.pairs),
                  "batch": cfg.batch_size, "g": cfg.group_size_g}))
"""


def test_traced_toy_steps_count_each_policy_call_once():
    """Each sample, grpo_step and gradient call is one span: none of them
    reaches another traced method of the same name.  Run in a child process
    because Tracer.install rebinds moltrip's globals."""
    src = Path(__file__).parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_TOY, str(src), str(_PERFBENCH)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    run = json.loads(out.stdout)
    spans = run["spans"]
    names = ("adapters.sample", "adapters.grpo_step", "adapters.gradient")
    for name in names:
        assert any(span[0] == name for span in spans), name
    for name, _, _, parent in spans:
        if name not in names:
            continue
        while parent >= 0:
            assert spans[parent][0] != name, f"{name} nested in itself"
            parent = spans[parent][3]
    # two generator steps draw once per pair; two captioner steps draw G
    # captions and then m reconstructions of each, one call per caption;
    # the greedy evaluation draws a caption and a reconstruction per pair
    batch, g = run["batch"], run["g"]
    calls = 2 * batch + 2 * batch * (1 + g) + 2 * run["pairs"]
    assert sum(span[0] == "adapters.sample" for span in spans) == calls
