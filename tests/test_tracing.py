"""The benchmark tracer's targets still name real moltrip callables.

``perfbench/tracing.py`` wraps functions and methods by name, so a rename
in moltrip would silently drop a layer from ``perfbench/run.py --trace 1``.
The module is imported read-only; ``Tracer.install`` is never called,
because it rebinds moltrip's globals for the rest of the process.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


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
