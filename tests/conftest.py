from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

CORPUS_PATH = (
    Path(__file__).parent.parent / "src" / "moltrip" / "data" / "corpus_200.smi"
)


@pytest.fixture(scope="session")
def corpus() -> list[str]:
    lines = [l.strip() for l in CORPUS_PATH.read_text().splitlines() if l.strip()]
    assert len(lines) == 200
    return lines


@pytest.fixture(scope="session")
def dense_k10() -> str:
    """10 [Xe] atoms, each bonded to every other: a chain plus every
    non-adjacent pair closed as a ring bond (256 characters).  It passes the
    validity gate and has about 1.3 million paths of up to 7 bonds."""
    label: dict[tuple[int, int], int] = {}
    for i in range(10):
        for j in range(i + 2, 10):
            label[i, j] = len(label) + 10
    return "".join(
        "[Xe]" + "".join(f"%{label[pair]}" for pair in sorted(label) if k in pair)
        for k in range(10)
    )
