from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

CORPUS_PATH = (
    Path(__file__).parent.parent / "src" / "moltrip" / "data" / "corpus_200.smi"
)
PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="session")
def corpus() -> list[str]:
    lines = [l.strip() for l in CORPUS_PATH.read_text().splitlines() if l.strip()]
    assert len(lines) == 200
    return lines


def _best_cpu_times(calls, rounds: int) -> list[float]:
    best = [float("inf")] * len(calls)
    gc.disable()  # a full collection of a long session's heap is not the cost
    try:
        for _ in range(rounds):  # interleaved, so a slow spell hits every call
            for k, call in enumerate(calls):
                start = time.process_time()
                call()
                best[k] = min(best[k], time.process_time() - start)
    finally:
        gc.enable()
    return best


@pytest.fixture(scope="session")
def best_cpu_times():
    """``best_cpu_times(calls, rounds)``: per call, the least process CPU
    time it took over ``rounds`` interleaved rounds, with the garbage
    collector off."""
    return _best_cpu_times


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py, which builds the benchmark's inputs."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


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


@pytest.fixture(scope="session")
def snake_ladder() -> str:
    """A 2 x 200 carbon ladder (400 atoms, 798 characters), spelled as a
    snake that crosses a rung, then runs one rail bond, then crosses back,
    so at most 2 ring digits are open at once.  It is valid, but a canonical
    walk along one rail keeps every rung open and needs 199 ring digits."""
    order = [
        (rail, i) for i in range(200)
        for rail in (("t", "b") if i % 2 == 0 else ("b", "t"))
    ]
    pos = {atom: p for p, atom in enumerate(order)}
    closures: dict[int, list[int]] = {}
    for i in range(199):
        for rail in "tb":
            a, b = pos[rail, i], pos[rail, i + 1]
            if b - a > 1:  # not a snake bond: close it with a ring digit
                closures.setdefault(a, []).append(b)
                closures.setdefault(b, []).append(a)
    out: list[str] = []
    open_digits: dict[tuple[int, int], int] = {}
    for p in range(len(order)):
        out.append("C")
        for q in closures.get(p, []):
            pair = (min(p, q), max(p, q))
            if pair in open_digits:
                out.append(str(open_digits.pop(pair)))
            else:
                digit = min(set(range(1, 10)) - set(open_digits.values()))
                open_digits[pair] = digit
                out.append(str(digit))
    return "".join(out)
