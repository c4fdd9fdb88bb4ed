from __future__ import annotations

import gc
import random
import sys
import time
from pathlib import Path

import pytest

from moltrip.chem import (
    Atom,
    Bond,
    BondOrder,
    Molecule,
    connected_components,
    render_random,
    sssr,
)
from moltrip.chem.model import neighbor_view

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


# ---------------------------------------------------------------------------
# benzenoid sheets of bare aromatic carbons

def _honeycomb(width: int, height: int, first: int = 0) -> list[tuple[int, int]]:
    """The bonds of a brick-wall honeycomb sheet of ``width x height`` atoms
    numbered row by row from ``first``: atom (x, y) bonds to (x + 1, y), and
    to (x, y + 1) when x + y is even."""
    pairs = []
    for y in range(height):
        for x in range(width):
            here = first + y * width + x
            if x + 1 < width:
                pairs.append((here, here + 1))
            if (x + y) % 2 == 0 and y + 1 < height:
                pairs.append((here, here + width))
    return pairs


def _aromatic_carbons(n: int, pairs: list[tuple[int, int]]) -> Molecule:
    """``n`` bare aromatic carbons bonded by ``pairs``, each filled to three
    bonds with hydrogens, with its fragments and rings worked out."""
    degree = [0] * n
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    atoms = tuple(
        Atom("C", is_aromatic=True, hydrogens=3 - degree[i]) for i in range(n)
    )
    bonds = tuple(Bond(a, b, BondOrder.AROMATIC) for a, b in pairs)
    fragments = connected_components(n, bonds)
    rings = sssr(bonds, neighbor_view(n, bonds), fragments)
    return Molecule(atoms, bonds, rings=rings, fragments=fragments)


def _brick_walls(sheets: list[tuple[int, int]], joined: bool = False) -> str:
    n, pairs, anchors = 0, [], []
    for width, height in sheets:
        pairs += _honeycomb(width, height, n)
        anchors.append(n + 1)
        n += width * height
    if joined:
        pairs += [(n, anchor) for anchor in anchors]
        n += 1
    return render_random(_aromatic_carbons(n, pairs), random.Random(0))


def _benzenoid_flake(width: int, height: int) -> Molecule:
    keep = set(range(width * height))
    pairs = _honeycomb(width, height)
    while True:
        degree = dict.fromkeys(keep, 0)
        for a, b in pairs:
            degree[a] += 1
            degree[b] += 1
        low = {a for a, d in degree.items() if d < 2}
        if not low:
            break
        keep -= low
        pairs = [(a, b) for a, b in pairs if a in keep and b in keep]
    index = {a: i for i, a in enumerate(sorted(keep))}
    return _aromatic_carbons(len(index), [(index[a], index[b]) for a, b in pairs])


@pytest.fixture(scope="session")
def honeycomb():
    """``honeycomb(width, height)``: the bonds of a brick-wall honeycomb
    sheet as atom-index pairs (see ``_honeycomb``)."""
    return _honeycomb


@pytest.fixture(scope="session")
def brick_walls():
    """``brick_walls(sheets, joined=False)``: honeycomb sheets of bare
    aromatic carbons, one per ``(width, height)`` (see ``_honeycomb``),
    spelled by ``render_random`` with ``Random(0)``.  ``joined`` adds one
    aromatic carbon bonded to atom (1, 0) of each sheet."""
    return _brick_walls


@pytest.fixture(scope="session")
def benzenoid_flake():
    """``benzenoid_flake(width, height)``: the ``width x height`` honeycomb
    sheet with atoms of fewer than two bonds stripped until none is left,
    renumbered in order, as a ``Molecule``."""
    return _benzenoid_flake
