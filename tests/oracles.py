"""Independent reference implementations used to cross-check derived values.

Everything here is deliberately written from scratch against the plain
definitions (brute-force graph isomorphism, exhaustive environment and path
enumeration, FNV-1a over framed tokens, direct n-gram counting, joint-table
information sums) rather than sharing code with the package under test.
The structural key reference is the catalog as one predicate per key over
the molecule, which the package replaced with predicates over a one-pass
summary.  The ring set and canonical ranking references are frozen copies
of the package's earlier, slower code, which the faster code must match
byte for byte, and the eager molecule is the package's earlier parse, which
found the ring set and ran aromatic normalization for every molecule: the
parse that perceives rings on demand must build the same molecule.  The
charged valence table is written out by hand from the periodic table.  The round-trip rate reference is the package's earlier
recomputation of the rate from the raw strings, which the rate read off
the exact flags must equal.  The perfect matching reference is the
package's earlier backtracking kekulization search, without its step
budget, which the augmenting-path search must agree with.  The overlap
removal reference is the package's earlier dedupe, which canonicalises
every string; the one that canonicalises only within a formula key
collision must return the same result.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from typing import Iterator

from moltrip.chem import (
    Atom,
    Bond,
    BondOrder,
    Molecule,
    SmilesError,
    canonical_smiles,
    canonicalize,
    connected_components,
    parse_smiles,
    scan_smiles,
)
from moltrip.chem.model import NeighborView, neighbor_view
from moltrip.chem.valence import analyze, aromatize
from moltrip.dataset import DedupeResult, PairRecord, SidecarEntry
from moltrip.errors import EmptyCollection
from moltrip.metrics import RoundTripSample


# ---------------------------------------------------------------------------
# graph isomorphism (molecules up to ~12 atoms)

def _atom_label(mol: Molecule, i: int):
    a = mol.atoms[i]
    return (a.element, a.is_aromatic, a.formal_charge, a.hydrogens, a.isotope)


def _bond_map(mol: Molecule) -> dict[tuple[int, int], str]:
    return {(min(b.a, b.b), max(b.a, b.b)): b.order.value for b in mol.bonds}


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
    adjacent: dict[int, list[tuple[int, Bond]]] = {}
    for bond in mol.bonds:
        adjacent.setdefault(bond.a, []).append((bond.b, bond))
        adjacent.setdefault(bond.b, []).append((bond.a, bond))
    atoms: set[int] = set()
    for bond in mol.bonds:
        reached = {bond.a}
        frontier = [bond.a]
        while frontier and bond.b not in reached:
            x = frontier.pop()
            for y, other in adjacent[x]:
                if other is not bond and y not in reached:
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
# FNV-1a over type-framed tokens, from the definition

def fnv_reference(*parts) -> int:
    """FNV-1a 64 over each part framed as b"b1;", b"i<digits>;" or b"s<utf-8>;"."""
    data = b""
    for part in parts:
        if isinstance(part, bool):
            data += b"b1;" if part else b"b0;"
        elif isinstance(part, int):
            data += b"i%d;" % part
        else:
            data += b"s" + part.encode() + b";"
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def path_ids(mol: Molecule, max_len: int) -> set[int]:
    """Path identifiers: every canonical reading hashed longhand."""
    return {fnv_reference("path", *reading) for reading in path_readings(mol, max_len)}


def morgan_ids(mol: Molecule, radius: int) -> set[int]:
    """Morgan identifiers, each environment's tokens hashed longhand.

    Degrees and bond orders are read off the bond list, and ring membership
    from the bridge definition (non_bridge_atoms).
    """
    in_ring = non_bridge_atoms(mol)
    neighbours: list[list[tuple[str, int]]] = [[] for _ in mol.atoms]
    for bond in mol.bonds:
        neighbours[bond.a].append((bond.order.value, bond.b))
        neighbours[bond.b].append((bond.order.value, bond.a))
    ids = [
        fnv_reference(
            "atom", atom.element, len(neighbours[i]), atom.hydrogens,
            atom.formal_charge, i in in_ring,
        )
        for i, atom in enumerate(mol.atoms)
    ]
    found = set(ids)
    for _ in range(radius):
        ids = [
            fnv_reference("env", ids[i], *[
                token
                for order, nid in sorted((order, ids[j]) for order, j in neighbours[i])
                for token in (order, nid)
            ])
            for i in range(len(mol.atoms))
        ]
        found.update(ids)
    return found


# ---------------------------------------------------------------------------
# the structural key catalog, one predicate per key over the molecule

def reference_structural_keys(mol: Molecule) -> set[int]:
    """Catalog indices whose predicate fires, each predicate reading the
    molecule directly (the catalog as it stood before the one-pass summary)."""
    return {
        index
        for index, (_, predicate) in enumerate(REFERENCE_KEY_CATALOG)
        if predicate(mol)
    }


def _element_present(symbol: str):
    return lambda mol: any(a.element == symbol for a in mol.atoms)


_HALOGENS = ("F", "Cl", "Br", "I")
_ORGANIC_AND_H = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "H"}


def _ring_of_size(size: int):
    return lambda mol: any(len(ring) == size for ring in mol.rings)


def _aromatic_rings(mol: Molecule) -> int:
    count = 0
    for ring in mol.rings:
        k = len(ring)
        bonds = (
            mol.bond_between(ring[i], ring[(i + 1) % k]) for i in range(k)
        )
        if all(b is not None and b.order is BondOrder.AROMATIC for b in bonds):
            count += 1
    return count


def _fused_rings(mol: Molecule) -> bool:
    edges = []
    for ring in mol.rings:
        k = len(ring)
        keys = set()
        for i in range(k):
            a, b = ring[i], ring[(i + 1) % k]
            keys.add((a, b) if a < b else (b, a))
        edges.append(keys)
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if edges[i] & edges[j]:
                return True
    return False


def _carbon_bond_orders(mol: Molecule, idx: int) -> list[BondOrder]:
    return [bond.order for bond in mol.bonds_of(idx)]


def _sp3_carbon(mol: Molecule) -> bool:
    for i, atom in enumerate(mol.atoms):
        if atom.element != "C" or atom.is_aromatic:
            continue
        if all(o is BondOrder.SINGLE for o in _carbon_bond_orders(mol, i)):
            return True
    return False


def _sp2_carbon(mol: Molecule) -> bool:
    for i, atom in enumerate(mol.atoms):
        if atom.element != "C" or atom.is_aromatic:
            continue
        orders = _carbon_bond_orders(mol, i)
        if orders.count(BondOrder.DOUBLE) == 1 and BondOrder.TRIPLE not in orders:
            return True
    return False


def _sp_carbon(mol: Molecule) -> bool:
    for i, atom in enumerate(mol.atoms):
        if atom.element != "C":
            continue
        orders = _carbon_bond_orders(mol, i)
        if BondOrder.TRIPLE in orders or orders.count(BondOrder.DOUBLE) >= 2:
            return True
    return False


def _carbon_heavy_degree(degree: int):
    def predicate(mol: Molecule) -> bool:
        return any(
            a.element == "C" and mol.degree(i) == degree
            for i, a in enumerate(mol.atoms)
        )

    return predicate


def _methyl(mol: Molecule) -> bool:
    return any(
        a.element == "C" and mol.degree(i) == 1 and a.hydrogens == 3
        for i, a in enumerate(mol.atoms)
    )


def _has_bond(elem_a: str, order: BondOrder | None, elem_b: str):
    """A bond of the given order (any order when None) joins the two elements."""
    want = {elem_a, elem_b}

    def predicate(mol: Molecule) -> bool:
        for bond in mol.bonds:
            if order is not None and bond.order is not order:
                continue
            if {mol.atoms[bond.a].element, mol.atoms[bond.b].element} == want:
                return True
        return False

    return predicate


def _element_with_h(symbol: str):
    return lambda mol: any(
        a.element == symbol and a.hydrogens >= 1 for a in mol.atoms
    )


def _hetero_pair_within(elem_a: str, elem_b: str, limit: int = 4):
    def predicate(mol: Molecule) -> bool:
        sources = [
            i for i, a in enumerate(mol.atoms) if a.element == elem_a
        ]
        for src in sources:
            dist = {src: 0}
            frontier = [src]
            for d in range(1, limit + 1):
                nxt = []
                for x in frontier:
                    for y, _ in mol.neighbor_view[x]:
                        if y not in dist:
                            dist[y] = d
                            nxt.append(y)
                frontier = nxt
            for j, atom in enumerate(mol.atoms):
                if j != src and atom.element == elem_b and j in dist:
                    return True
        return False

    return predicate


REFERENCE_KEY_CATALOG: tuple[tuple[str, object], ...] = (
    ("carbon present", _element_present("C")),
    ("nitrogen present", _element_present("N")),
    ("oxygen present", _element_present("O")),
    ("sulfur present", _element_present("S")),
    ("phosphorus present", _element_present("P")),
    ("fluorine present", _element_present("F")),
    ("chlorine present", _element_present("Cl")),
    ("bromine present", _element_present("Br")),
    ("iodine present", _element_present("I")),
    ("boron present", _element_present("B")),
    ("any halogen", lambda mol: any(a.element in _HALOGENS for a in mol.atoms)),
    ("any heteroatom", lambda mol: any(a.element not in ("C", "H") for a in mol.atoms)),
    ("exotic element", lambda mol: any(a.element not in _ORGANIC_AND_H for a in mol.atoms)),
    ("isotope label", lambda mol: any(a.isotope is not None for a in mol.atoms)),
    ("any ring", lambda mol: len(mol.rings) > 0),
    ("3-ring", _ring_of_size(3)),
    ("4-ring", _ring_of_size(4)),
    ("5-ring", _ring_of_size(5)),
    ("6-ring", _ring_of_size(6)),
    ("7-ring", _ring_of_size(7)),
    ("8-ring", _ring_of_size(8)),
    ("two or more rings", lambda mol: len(mol.rings) >= 2),
    ("fused rings", _fused_rings),
    ("heterocycle", lambda mol: any(
        any(mol.atoms[i].element != "C" for i in ring) for ring in mol.rings
    )),
    ("aromatic atom", lambda mol: any(a.is_aromatic for a in mol.atoms)),
    ("aromatic ring", lambda mol: _aromatic_rings(mol) >= 1),
    ("aromatic nitrogen", lambda mol: any(
        a.is_aromatic and a.element == "N" for a in mol.atoms
    )),
    ("aromatic oxygen", lambda mol: any(
        a.is_aromatic and a.element == "O" for a in mol.atoms
    )),
    ("aromatic sulfur", lambda mol: any(
        a.is_aromatic and a.element == "S" for a in mol.atoms
    )),
    ("two or more aromatic rings", lambda mol: _aromatic_rings(mol) >= 2),
    ("positive charge", lambda mol: any(a.formal_charge > 0 for a in mol.atoms)),
    ("negative charge", lambda mol: any(a.formal_charge < 0 for a in mol.atoms)),
    ("both charges", lambda mol: any(a.formal_charge > 0 for a in mol.atoms)
        and any(a.formal_charge < 0 for a in mol.atoms)),
    ("nonzero net charge", lambda mol: sum(a.formal_charge for a in mol.atoms) != 0),
    ("sp3 carbon", _sp3_carbon),
    ("sp2 carbon", _sp2_carbon),
    ("sp carbon", _sp_carbon),
    ("quaternary carbon", _carbon_heavy_degree(4)),
    ("three-connected carbon", _carbon_heavy_degree(3)),
    ("methyl group", _methyl),
    ("branching atom", lambda mol: any(mol.degree(i) >= 3 for i in range(len(mol.atoms)))),
    ("four-connected atom", lambda mol: any(mol.degree(i) >= 4 for i in range(len(mol.atoms)))),
    ("terminal heteroatom", lambda mol: any(
        a.element != "C" and mol.degree(i) == 1 for i, a in enumerate(mol.atoms)
    )),
    ("multiple fragments", lambda mol: len(mol.fragments) >= 2),
    ("carbonyl C=O", _has_bond("C", BondOrder.DOUBLE, "O")),
    ("alkene C=C", _has_bond("C", BondOrder.DOUBLE, "C")),
    ("alkyne C#C", _has_bond("C", BondOrder.TRIPLE, "C")),
    ("nitrile C#N", _has_bond("C", BondOrder.TRIPLE, "N")),
    ("imine C=N", _has_bond("C", BondOrder.DOUBLE, "N")),
    ("N bonded to O", _has_bond("N", None, "O")),
    ("S=O", _has_bond("S", BondOrder.DOUBLE, "O")),
    ("P=O", _has_bond("P", BondOrder.DOUBLE, "O")),
    ("hydroxyl O-H", _element_with_h("O")),
    ("N-H", _element_with_h("N")),
    ("S-H", _element_with_h("S")),
    ("two-connected oxygen", lambda mol: any(
        a.element == "O" and mol.degree(i) == 2 for i, a in enumerate(mol.atoms)
    )),
    ("multi-connected nitrogen", lambda mol: any(
        a.element == "N" and mol.degree(i) >= 2 for i, a in enumerate(mol.atoms)
    )),
    ("halogen on carbon", lambda mol: any(
        bond
        for bond in mol.bonds
        if {mol.atoms[bond.a].element, mol.atoms[bond.b].element} & set(_HALOGENS)
        and "C" in {mol.atoms[bond.a].element, mol.atoms[bond.b].element}
    )),
    ("N..N within 4 bonds", _hetero_pair_within("N", "N")),
    ("N..O within 4 bonds", _hetero_pair_within("N", "O")),
    ("N..S within 4 bonds", _hetero_pair_within("N", "S")),
    ("O..O within 4 bonds", _hetero_pair_within("O", "O")),
    ("O..S within 4 bonds", _hetero_pair_within("O", "S")),
    ("S..S within 4 bonds", _hetero_pair_within("S", "S")),
)


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


# ---------------------------------------------------------------------------
# frozen ring perception and canonical ranking
#
# Copies of ``rings.sssr`` and ``canon.canonical_ranks`` as they were before
# their speed-ups: every ring set and canonical form the package writes
# rests on them, so the faster versions must give exactly what these give.

def reference_sssr(
    bonds: tuple[Bond, ...], view: NeighborView, fragments: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """``sssr`` with one shortest-cycle search per non-bridge bond.

    ``view`` is ``neighbor_view`` of the bonds and ``fragments`` their
    ``components``.  Returns exactly the cyclomatic number of rings, sorted
    by (length, atoms).
    """
    mu = len(bonds) - len(view) + len(fragments)
    if mu == 0:
        return ()

    adj = [sorted(pairs) for pairs in view]  # by neighbour index
    bridges = _ref_find_bridges(view)
    candidates: dict[tuple[int, ...], None] = {}
    for k, bond in enumerate(bonds):
        if k not in bridges:
            cycle = _ref_shortest_cycle_through(adj, bond.a, bond.b, k)
            candidates.setdefault(_ref_normalize_cycle(cycle))
    for cycle in _ref_fundamental_cycles(adj):
        candidates.setdefault(_ref_normalize_cycle(cycle))

    basis: dict[int, int] = {}  # highest set bit -> reduced mask
    chosen: list[tuple[int, ...]] = []
    for cycle in sorted(candidates, key=lambda c: (len(c), c)):
        mask = _ref_cycle_mask(cycle, view)
        while mask:
            high = mask.bit_length() - 1
            if high not in basis:
                basis[high] = mask
                chosen.append(cycle)
                break
            mask ^= basis[high]
        if len(chosen) == mu:
            break
    return tuple(sorted(chosen, key=lambda c: (len(c), c)))


def eager_molecule(text: str) -> Molecule:
    """``parse_smiles`` as it was before rings were perceived on demand:
    every molecule gets its SSSR (here from ``reference_sssr``) and a pass
    of ``aromatize``, with no gate deciding whether either could matter."""
    drafts, bonds, notes = scan_smiles(text)
    bond_tuple = tuple(bonds)
    view = neighbor_view(len(drafts), bond_tuple)
    fragments = connected_components(len(drafts), bond_tuple)
    rings = reference_sssr(bond_tuple, view, fragments)
    bond_tuple = aromatize(drafts, bond_tuple, rings, view)
    analysis = analyze(drafts, bond_tuple, view)
    atoms = tuple(
        Atom(a.element, a.is_aromatic, a.formal_charge, a.isotope, h)
        for a, h in zip(drafts, analysis.hydrogens)
    )
    return Molecule(
        atoms, bond_tuple, rings=rings, fragments=fragments,
        parse_notes=tuple(notes), failures=analysis.failures,
    )


def _ref_find_bridges(view: NeighborView) -> set[int]:
    """Indices of the bridge bonds, via iterative Tarjan lowlink traversal."""
    n = len(view)
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int, int]] = [(root, -1, -1, 0)]
        while stack:
            node, parent, in_edge, ptr = stack.pop()
            if ptr == 0:
                disc[node] = low[node] = timer
                timer += 1
            if ptr < len(view[node]):
                stack.append((node, parent, in_edge, ptr + 1))
                nbr, edge_idx = view[node][ptr]
                if edge_idx == in_edge:
                    continue
                if disc[nbr] == -1:
                    stack.append((nbr, node, edge_idx, 0))
                else:
                    low[node] = min(low[node], disc[nbr])
            elif parent != -1:
                low[parent] = min(low[parent], low[node])
                if low[node] > disc[parent]:
                    bridges.add(in_edge)
    return bridges


def _ref_shortest_cycle_through(
    adj: list[list[tuple[int, int]]], u: int, v: int, edge: int
) -> list[int]:
    """Shortest path u..v avoiding their bond ``edge``, a non-bridge bond."""
    prev: dict[int, int | None] = {u: None}
    queue = deque([u])
    while True:
        x = queue.popleft()
        for y, k in adj[x]:
            if k == edge or y in prev:
                continue
            prev[y] = x
            if y == v:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path  # v back to u; normalising ignores direction
            queue.append(y)


def _ref_fundamental_cycles(adj: list[list[tuple[int, int]]]) -> list[list[int]]:
    n_atoms = len(adj)
    parent = [-1] * n_atoms
    depth = [-1] * n_atoms
    cycles: list[list[int]] = []
    used: set[int] = set()  # tree bonds, then back bonds already closed
    for root in range(n_atoms):
        if depth[root] != -1:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, k in adj[x]:
                if depth[y] == -1:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    used.add(k)
                    queue.append(y)
    for x in range(n_atoms):
        for y, k in adj[x]:
            if k in used:
                continue
            used.add(k)
            cycles.append(_ref_tree_cycle(parent, depth, x, y))
    return cycles


def _ref_tree_cycle(parent: list[int], depth: list[int], u: int, v: int) -> list[int]:
    left, right = [u], [v]
    while depth[left[-1]] > depth[right[-1]]:
        left.append(parent[left[-1]])
    while depth[right[-1]] > depth[left[-1]]:
        right.append(parent[right[-1]])
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return left + right[-2::-1]


def _ref_normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    """The least rotation or reflection: the one from the lowest atom
    towards its lower ring neighbour."""
    i = cycle.index(min(cycle))
    forward = tuple(cycle[i:] + cycle[:i])
    backward = forward[:1] + forward[:0:-1]
    return min(forward, backward)


def _ref_cycle_mask(cycle: tuple[int, ...], view: NeighborView) -> int:
    mask = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        for j, k in view[a]:
            if j == b:
                mask |= 1 << k
    return mask


_REF_ORDER_KEY = {
    BondOrder.SINGLE: 0,
    BondOrder.DOUBLE: 1,
    BondOrder.TRIPLE: 2,
    BondOrder.AROMATIC: 3,
}


def reference_canonical_ranks(mol: Molecule) -> tuple[int, ...]:
    """``canonical_ranks`` re-sorting every atom's neighbours each round."""
    n = len(mol)
    seeds = [_ref_seed_invariant(mol, i) for i in range(n)]
    # per atom, (bond order key, neighbour) for every neighbour
    bonded = [
        [(_REF_ORDER_KEY[mol.bonds[k].order], j) for j, k in pairs]
        for pairs in mol.neighbor_view
    ]
    ranks = _ref_dense_ranks(seeds)
    ranks = _ref_refine(bonded, ranks)
    while len(set(ranks)) < n:
        counts = Counter(ranks)
        target = min(rank for rank, count in counts.items() if count > 1)
        chosen = min(i for i in range(n) if ranks[i] == target)
        ranks = _ref_dense_ranks(
            [(ranks[i], 0 if i == chosen else 1) for i in range(n)]
        )
        ranks = _ref_refine(bonded, ranks)
    return tuple(ranks)


def _ref_seed_invariant(mol: Molecule, idx: int):
    atom = mol.atoms[idx]
    return (
        atom.element,
        atom.is_aromatic,
        mol.degree(idx),
        atom.hydrogens,
        atom.formal_charge,
        atom.isotope or 0,
        idx in mol.ring_atoms,
    )


def _ref_dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _ref_refine(bonded: list[list[tuple[int, int]]], ranks: list[int]) -> list[int]:
    while True:
        keys = [
            (ranks[i], tuple(sorted((order, ranks[j]) for order, j in pairs)))
            for i, pairs in enumerate(bonded)
        ]
        refined = _ref_dense_ranks(keys)
        if len(set(refined)) == len(set(ranks)):
            return refined
        ranks = refined


# ---------------------------------------------------------------------------
# frozen round-trip rate
#
# ``metrics.round_trip_rate`` as it was before it read the rate off the
# exact flags: it parses and canonicalises both sides of every sample
# again, so it checks the flags against the raw strings.

def reference_round_trip_rate(samples: list[RoundTripSample]) -> float:
    """Fraction of samples reconstructed to the same canonical form.

    Recomputed from the raw strings rather than read off the stored scores,
    so it cross-checks the exact flags independently.
    """
    if not samples:
        raise EmptyCollection("round_trip_rate over zero samples")
    hits = 0
    for sample in samples:
        try:
            if canonical_smiles(parse_smiles(sample.reconstruction)) == \
                    canonical_smiles(parse_smiles(sample.original)):
                hits += 1
        except SmilesError:
            continue
    return hits / len(samples)


# ---------------------------------------------------------------------------
# perfect matching by backtracking (pi systems of up to ~40 atoms)

def reference_perfect_matching(adj: list[list[int]]) -> bool:
    """Whether the graph with neighbour lists ``adj`` has a perfect matching.

    Each connected component is searched on its own, an odd one failing
    without a search, by the backtracking the package ran before it matched
    along augmenting paths, with no limit on the choices it tries.
    """
    seen = [False] * len(adj)
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        system = [root]
        for atom in system:
            for nbr in adj[atom]:
                if not seen[nbr]:
                    seen[nbr] = True
                    system.append(nbr)
        if len(system) % 2 or not _ref_match_all(sorted(system)[::-1], adj):
            return False
    return True


def _ref_match_all(order: list[int], adj: list[list[int]]) -> bool:
    """Backtracking search matching every atom of ``order``, last first."""
    matched: dict[int, int] = {}
    # (position in order of an atom being matched, its untried neighbours)
    stack: list[tuple[int, Iterator[int]]] = []
    rest = len(order)  # order[:rest] may hold unmatched atoms
    while True:
        while rest and order[rest - 1] in matched:
            rest -= 1
        if not rest:
            return True
        rest -= 1
        stack.append((rest, iter(adj[order[rest]])))
        while stack:
            rest, nbrs = stack[-1]
            atom = order[rest]
            if atom in matched:  # the search under this choice failed
                del matched[matched.pop(atom)]
            nbr = next((j for j in nbrs if j not in matched), None)
            if nbr is not None:
                matched[atom] = nbr
                matched[nbr] = atom
                break
            stack.pop()
        else:
            return False


# ---------------------------------------------------------------------------
# overlap removal: every reference and target canonicalised

def reference_dedupe_overlap(
    target: list[PairRecord],
    reference: list[PairRecord],
    on_parse_error: str = "drop",
) -> DedupeResult:
    """Drop target records whose canonical SMILES occurs in the reference.

    Sidecar entries carry each record's file line, or its 1-based position
    in its list when it was built in memory.
    """
    if on_parse_error not in ("drop", "keep"):
        raise ValueError("on_parse_error must be 'drop' or 'keep'")
    reference_keys: set[str] = set()
    sidecar: list[SidecarEntry] = []
    for i, record in enumerate(reference):
        try:
            reference_keys.add(canonicalize(record.smiles))
        except SmilesError as exc:
            sidecar.append(SidecarEntry(
                record.line_no or i + 1, record.smiles, f"reference: {exc}"
            ))
    kept: list[PairRecord] = []
    removed: list[PairRecord] = []
    overlap = 0
    for i, record in enumerate(target):
        try:
            key = canonicalize(record.smiles)
        except SmilesError as exc:
            sidecar.append(SidecarEntry(
                record.line_no or i + 1, record.smiles, f"target: {exc}"
            ))
            if on_parse_error == "keep":
                kept.append(record)
            else:
                removed.append(record)
            continue
        if key in reference_keys:
            overlap += 1
            removed.append(record)
        else:
            kept.append(record)
    fraction = overlap / len(target) if target else 0.0
    return DedupeResult(
        kept=tuple(kept),
        removed=tuple(removed),
        overlap_fraction=fraction,
        sidecar=tuple(sidecar),
    )


# ---------------------------------------------------------------------------
# permitted valences of charged atoms, written out from the periodic table

# (element, charge) -> the permitted total bond orders.  A charged atom is
# isoelectronic with the neutral element Z - charge and takes its valences
# when the valence table (H, B, C, N, O, F, P, S, Cl, Br, I) holds that
# element, or when it is Be (2), Si (4) or a noble gas (0); a bare proton
# takes 0, and an atom below H (Z - charge < 0) takes none.  Where the
# neighbour is outside both (Li, Na, Al, K, As, Se, Rb, Sb, Te, Cs), the
# atom's own neutral valences move by the charge, those below 0 dropped.
CHARGED_VALENCES: dict[tuple[str, int], tuple[int, ...]] = {
    ("H", -2): (),            # Li: 1 - 2 < 0
    ("H", -1): (0,),          # He
    ("H", 1): (0,),           # a bare proton
    ("H", 2): (),             # below H: 1 - 2 < 0
    ("B", -2): (3,),          # N
    ("B", -1): (4,),          # C
    ("B", 1): (2,),           # Be
    ("B", 2): (5,),           # Li: 3 + 2
    ("C", -2): (2,),          # O
    ("C", -1): (3,),          # N
    ("C", 1): (3,),           # B
    ("C", 2): (2,),           # Be
    ("N", -2): (1,),          # F
    ("N", -1): (2,),          # O
    ("N", 1): (4,),           # C
    ("N", 2): (3,),           # B
    ("O", -2): (0,),          # Ne
    ("O", -1): (1,),          # F
    ("O", 1): (3,),           # N
    ("O", 2): (4,),           # C
    ("F", -2): (),            # Na: 1 - 2 < 0
    ("F", -1): (0,),          # Ne
    ("F", 1): (2,),           # O
    ("F", 2): (3,),           # N
    ("P", -2): (1,),          # Cl
    ("P", -1): (2, 4, 6),     # S
    ("P", 1): (4,),           # Si
    ("P", 2): (5, 7),         # Al: (3, 5) + 2
    ("S", -2): (0,),          # Ar
    ("S", -1): (1,),          # Cl
    ("S", 1): (3, 5),         # P
    ("S", 2): (4,),           # Si
    ("Cl", -2): (),           # K: 1 - 2 < 0
    ("Cl", -1): (0,),         # Ar
    ("Cl", 1): (2, 4, 6),     # S
    ("Cl", 2): (3, 5),        # P
    ("Br", -2): (),           # Rb
    ("Br", -1): (0,),         # Kr
    ("Br", 1): (2,),          # Se: 1 + 1
    ("Br", 2): (3,),          # As: 1 + 2
    ("I", -2): (),            # Cs
    ("I", -1): (0,),          # Xe
    ("I", 1): (2,),           # Te: 1 + 1
    ("I", 2): (3,),           # Sb: 1 + 2
}
