"""Independent reference implementations used to cross-check derived values.

Everything here is deliberately written from scratch against the plain
definitions (brute-force graph isomorphism, exhaustive environment and path
enumeration, direct n-gram counting, joint-table information sums) rather
than sharing code with the package under test.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from moltrip.chem import BondOrder, Molecule


# ---------------------------------------------------------------------------
# graph isomorphism (molecules up to ~12 atoms)

def _atom_label(mol: Molecule, i: int):
    a = mol.atoms[i]
    return (a.element, a.is_aromatic, a.formal_charge, a.hydrogens, a.isotope)


def _bond_map(mol: Molecule) -> dict[tuple[int, int], str]:
    return {b.key: b.order.value for b in mol.bonds}


def molecules_isomorphic(m1: Molecule, m2: Molecule) -> bool:
    """Exhaustive label-preserving graph-isomorphism test."""
    n = len(m1.atoms)
    if n != len(m2.atoms) or len(m1.bonds) != len(m2.bonds):
        return False
    labels1 = [_atom_label(m1, i) for i in range(n)]
    labels2 = [_atom_label(m2, i) for i in range(n)]
    if sorted(labels1) != sorted(labels2):
        return False
    bonds1 = _bond_map(m1)
    bonds2 = _bond_map(m2)
    for perm in itertools.permutations(range(n)):
        if any(labels1[i] != labels2[perm[i]] for i in range(n)):
            continue
        ok = True
        for (a, b), order in bonds1.items():
            pa, pb = perm[a], perm[b]
            key = (pa, pb) if pa < pb else (pb, pa)
            if bonds2.get(key) != order:
                ok = False
                break
        if ok and len(bonds1) == len(bonds2):
            return True
    return False


# ---------------------------------------------------------------------------
# ring membership from the definition of a bridge

def non_bridge_atoms(mol: Molecule) -> frozenset[int]:
    """Atoms on a bond that is not a bridge: a bond whose endpoints stay
    connected once the bond itself is removed."""
    atoms: set[int] = set()
    for bond in mol.bonds:
        reached = {bond.a}
        frontier = [bond.a]
        while frontier:
            x = frontier.pop()
            for other in mol.bonds:
                if other is bond or x not in (other.a, other.b):
                    continue
                y = other.b if x == other.a else other.a
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if bond.b in reached:
            atoms.update((bond.a, bond.b))
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# brute-force Morgan environment counting

def count_morgan_environments(mol: Molecule, radius: int) -> int:
    """Distinct (radius, canonical ball) environments, enumerated directly.

    For each atom and each r in 0..radius, the induced ball of bonds within
    r steps is canonicalized by exhaustive relabeling; distinct canonical
    forms per radius are counted.  Agrees with hashed Morgan identifiers on
    molecules whose distinct balls never hash-collide (any small molecule).
    """
    distinct: set[tuple[int, str]] = set()
    for r in range(radius + 1):
        for i in range(len(mol.atoms)):
            distinct.add((r, _canonical_ball(mol, i, r)))
    return len(distinct)


def _canonical_ball(mol: Molecule, center: int, radius: int) -> str:
    dist = {center: 0}
    frontier = [center]
    for d in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for y in mol.neighbors(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    ball = sorted(dist)
    edges = [
        b for b in mol.bonds
        if b.a in dist and b.b in dist
        and not (dist[b.a] == radius and dist[b.b] == radius)
    ]
    labels = {
        i: (_atom_label(mol, i), dist[i] == 0)
        for i in ball
    }
    best: str | None = None
    for perm in itertools.permutations(ball):
        pos = {atom: k for k, atom in enumerate(perm)}
        atom_part = tuple(labels[atom] for atom in perm)
        edge_part = tuple(sorted(
            (min(pos[b.a], pos[b.b]), max(pos[b.a], pos[b.b]), b.order.value)
            for b in edges
        ))
        cand = repr((atom_part, edge_part))
        if best is None or cand < best:
            best = cand
    return best or ""


# ---------------------------------------------------------------------------
# brute-force path enumeration

def count_distinct_paths(mol: Molecule, max_len: int) -> int:
    """Distinct canonical (element, bond-order) path readings of 1..max_len bonds."""
    return len(path_readings(mol, max_len))


def path_readings(mol: Molecule, max_len: int) -> set[tuple]:
    """Canonical readings of every simple path of 1..max_len bonds."""
    seen: set[tuple] = set()

    def walk(path: list[int]) -> None:
        if len(path) > 1:
            seen.add(_path_reading(mol, path))
        if len(path) == max_len + 1:
            return
        for nbr in mol.neighbors(path[-1]):
            if nbr not in path:
                walk(path + [nbr])

    for start in range(len(mol.atoms)):
        walk([start])
    return seen


def _path_reading(mol: Molecule, path: list[int]) -> tuple:
    def reading(seq: list[int]) -> tuple:
        out: list = [mol.atoms[seq[0]].element]
        for a, b in zip(seq, seq[1:]):
            out.append(mol.bond_between(a, b).order.value)
            out.append(mol.atoms[b].element)
        return tuple(out)

    fwd = reading(path)
    rev = reading(path[::-1])
    return min(fwd, rev)


# ---------------------------------------------------------------------------
# independent SMILES token scan (element counts / bond count / fragments)

def scan_structure(smiles: str) -> tuple[Counter, int, int]:
    """(element counter, atom count, bond count) read straight off the text.

    Counts atoms by lexical scan and derives the bond count as
    atoms - fragments + ring-closure pairs, entirely independent of the
    parser's graph construction.
    """
    elements: Counter = Counter()
    ring_events = 0
    fragments = 1
    i = 0
    while i < len(smiles):
        ch = smiles[i]
        if ch == "[":
            j = smiles.index("]", i)
            body = smiles[i + 1 : j]
            k = 0
            while k < len(body) and body[k].isdigit():
                k += 1
            rest = body[k:]
            if rest[:2] in ("as", "se", "te") or (
                len(rest) >= 2 and rest[0].isupper() and rest[1].islower()
            ):
                elements[rest[:2].capitalize()] += 1
            else:
                elements[rest[0].upper()] += 1
            i = j + 1
            continue
        if smiles[i : i + 2] in ("Cl", "Br"):
            elements[smiles[i : i + 2]] += 1
            i += 2
            continue
        if ch in "BCNOPSFI":
            elements[ch] += 1
            i += 1
            continue
        if ch in "bcnops":
            elements[ch.upper()] += 1
            i += 1
            continue
        if ch == ".":
            fragments += 1
        elif ch.isdigit():
            ring_events += 1
        elif ch == "%":
            ring_events += 1
            i += 3
            continue
        i += 1
    atoms = sum(elements.values())
    bonds = atoms - fragments + ring_events // 2
    return elements, atoms, bonds


# ---------------------------------------------------------------------------
# corpus-BLEU recomputed directly from n-gram tables

def bleu_reference(candidates: list[str], references: list[str]) -> float:
    eps = 1e-9

    def toks(text: str) -> list[str]:
        import re
        return re.findall(r"[a-z0-9]+", text.lower())

    cand_tokens = [toks(c) for c in candidates]
    ref_tokens = [toks(r) for r in references]
    log_sum = 0.0
    for n in range(1, 5):
        matched = 0
        total = 0
        for cand, ref in zip(cand_tokens, ref_tokens):
            c_counts = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            r_counts = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            matched += sum(min(c_counts[g], r_counts[g]) for g in c_counts)
            total += max(0, len(cand) - n + 1)
        log_sum += 0.25 * math.log((matched + eps) / (total + eps))
    c_len = sum(len(t) for t in cand_tokens)
    r_len = sum(len(t) for t in ref_tokens)
    if c_len == 0:
        return 0.0
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_sum)


# ---------------------------------------------------------------------------
# discrete mutual information from the explicit joint table

def mi_reference(px: list[float], p_theta: list[list[float]]) -> float:
    nx = len(px)
    ny = len(p_theta[0])
    joint = [[px[x] * p_theta[x][y] for y in range(ny)] for x in range(nx)]
    py = [sum(joint[x][y] for x in range(nx)) for y in range(ny)]
    total = 0.0
    for x in range(nx):
        for y in range(ny):
            j = joint[x][y]
            if j > 0:
                total += j * math.log(j / (px[x] * py[y]))
    return total


def ba_reference(px: list[float], p_theta: list[list[float]], q_phi: list[list[float]]) -> float:
    nx = len(px)
    ny = len(p_theta[0])
    h_x = -sum(p * math.log(p) for p in px if p > 0)
    expect = 0.0
    for x in range(nx):
        for y in range(ny):
            j = px[x] * p_theta[x][y]
            if j > 0:
                expect += j * math.log(q_phi[y][x])
    return h_x + expect
