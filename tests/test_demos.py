"""Each narrative demo runs to completion.

The toy-training demo (06) is left out: acceptance criterion 7 runs the
same training, and it takes far longer than the rest together.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = (
    "01_smiles_round_trip.py",
    "02_fingerprints.py",
    "03_reconstruction_scoring.py",
    "04_grpo_math.py",
    "05_theory_bounds.py",
    "07_dataset_ops.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
