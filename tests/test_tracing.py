"""The benchmark's hooks still name real moltrip callables.

``perfbench/tracing.py`` wraps functions and methods by name, so a rename
in moltrip would silently drop a layer from ``perfbench/run.py --trace 1``;
``perfbench/child.py`` marks each workload's first item by rebinding a
named function, so a rename there fails every benchmark probe.  Both
modules are imported read-only; ``Tracer.install`` is never called, because
it rebinds moltrip's globals for the rest of the process.
"""

from __future__ import annotations

import importlib
import importlib.util
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
