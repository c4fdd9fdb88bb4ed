"""Seeded runs give the same bytes in every process, whatever its hash seed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# equal-length valid tokens: a set would order them by the salted string hash
SCRIPT = """
import sys
from moltrip.adapters import extract_smiles
from moltrip.cli import main
print(extract_smiles("Either CCO or OCC or CCN works"))
sys.exit(main(["train-toy", "--max-steps", "2", "--out", sys.argv[1]]))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    runs = []
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(SRC), env.get("PYTHONPATH"),
        ]))
        out = tmp_path / f"log-{hash_seed}.json"
        done = subprocess.run(
            [sys.executable, "-c", SCRIPT, str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        runs.append((done.stdout, out.read_bytes()))
    assert runs[0][0].splitlines()[0] == "CCO"
    assert all(run == runs[0] for run in runs[1:])
