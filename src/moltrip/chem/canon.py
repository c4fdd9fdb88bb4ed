"""Canonical SMILES via iterative invariant refinement.

Atoms are ranked by refining seed invariants (element, aromaticity, degree,
hydrogens, charge, isotope, ring membership) against neighbor-rank multisets
until stable; remaining ties are broken by isolating one atom of the lowest
tied class and refining again.  The writer walks each fragment depth-first
from its lowest-ranked atom with branches ordered by rank, so the output
depends only on the graph, never on input atom order.
"""

from __future__ import annotations

import random
from collections import Counter

from .model import ORGANIC_SUBSET, Atom, Bond, BondOrder, Molecule
from .valence import infer_bare_hydrogens

_ORDER_KEY = {
    BondOrder.SINGLE: 0,
    BondOrder.DOUBLE: 1,
    BondOrder.TRIPLE: 2,
    BondOrder.AROMATIC: 3,
}


def canonical_smiles(mol: Molecule) -> str:
    """Deterministic SMILES equal for any atom-order permutation of the graph."""
    return _write(mol, canonical_ranks(mol))


def render_random(mol: Molecule, rng: random.Random) -> str:
    """Re-render the molecule in a random traversal order.

    The output is a non-canonical but equivalent SMILES; parsing it and
    canonicalizing must reproduce canonical_smiles(mol).
    """
    ranks = list(range(len(mol)))
    rng.shuffle(ranks)
    return _write(mol, tuple(ranks), fragment_rng=rng)


def canonical_ranks(mol: Molecule) -> tuple[int, ...]:
    """Unique rank per atom, invariant under input atom reordering."""
    n = len(mol)
    seeds = [_seed_invariant(mol, i) for i in range(n)]
    # per atom, (bond order key, neighbour) for every neighbour
    bonded = [
        [(_ORDER_KEY[mol.bonds[k].order], j) for j, k in pairs]
        for pairs in mol.neighbor_view
    ]
    ranks = _dense_ranks(seeds)
    ranks = _refine(bonded, ranks)
    while len(set(ranks)) < n:
        counts = Counter(ranks)
        target = min(rank for rank, count in counts.items() if count > 1)
        chosen = min(i for i in range(n) if ranks[i] == target)
        ranks = _dense_ranks(
            [(ranks[i], 0 if i == chosen else 1) for i in range(n)]
        )
        ranks = _refine(bonded, ranks)
    return tuple(ranks)


def _seed_invariant(mol: Molecule, idx: int):
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


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(bonded: list[list[tuple[int, int]]], ranks: list[int]) -> list[int]:
    while True:
        keys = [
            (ranks[i], tuple(sorted((order, ranks[j]) for order, j in pairs)))
            for i, pairs in enumerate(bonded)
        ]
        refined = _dense_ranks(keys)
        if len(set(refined)) == len(set(ranks)):
            return refined
        ranks = refined


def _write(
    mol: Molecule,
    ranks: tuple[int, ...],
    fragment_rng: random.Random | None = None,
) -> str:
    pieces = [_write_fragment(mol, ranks, frag) for frag in mol.fragments]
    if fragment_rng is None:
        pieces.sort()
    else:
        fragment_rng.shuffle(pieces)
    return ".".join(pieces)


def _write_fragment(
    mol: Molecule, ranks: tuple[int, ...], fragment: tuple[int, ...]
) -> str:
    start = min(fragment, key=lambda i: ranks[i])
    children, ring_partners = _spanning_tree(mol, ranks, start)

    digits = _DigitPool()
    out: list[str] = []
    # depth-first over the tree with an explicit stack of pending atoms
    # (idx, parent) and literal branch parentheses, so long chains cannot
    # exhaust the interpreter's recursion limit
    stack: list[tuple[int, int | None] | str] = [(start, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        idx, parent = item
        if parent is not None:
            out.append(_bond_token(mol, parent, idx))
        out.append(_atom_token(mol, idx))
        for partner in ring_partners[idx]:
            opened = digits.opened(idx, partner)
            if opened is None:
                out.append(_bond_token(mol, idx, partner))
                out.append(digits.open(idx, partner))
            else:
                out.append(opened)
        kids = children[idx]
        if kids:
            stack.append((kids[-1], idx))
        for kid in reversed(kids[:-1]):
            stack.extend((")", (kid, idx), "("))
    return "".join(out)


def _spanning_tree(
    mol: Molecule, ranks: tuple[int, ...], start: int
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """DFS tree (children per atom) plus ring-closure partners per atom.

    Ring partners are listed on both endpoints, ordered by rank, so digits
    open at the endpoint written first.
    """
    children: dict[int, list[int]] = {}
    ring_partners: dict[int, list[int]] = {}
    visited: set[int] = set()
    ring_pairs: set[tuple[int, int]] = set()

    def enter(idx: int, parent: int | None):
        visited.add(idx)
        children[idx] = []
        ring_partners[idx] = []
        return idx, parent, iter(sorted(mol.neighbors(idx), key=lambda j: ranks[j]))

    # each frame resumes its neighbor iterator after a child's subtree is done
    stack = [enter(start, None)]
    while stack:
        idx, parent, nbrs = stack[-1]
        for nbr in nbrs:
            if nbr == parent:
                continue
            if nbr in visited:
                ring_pairs.add((idx, nbr) if idx < nbr else (nbr, idx))
                continue
            children[idx].append(nbr)
            stack.append(enter(nbr, idx))
            break
        else:
            stack.pop()
    for a, b in sorted(ring_pairs):
        ring_partners[a].append(b)
        ring_partners[b].append(a)
    for partners in ring_partners.values():
        partners.sort(key=lambda j: ranks[j])
    return children, ring_partners


class _DigitPool:
    """Ring-closure digit assignment with reuse of freed digits."""

    def __init__(self) -> None:
        self._open: dict[tuple[int, int], int] = {}
        self._used: set[int] = set()

    def open(self, a: int, b: int) -> str:
        digit = 1
        while digit in self._used:
            digit += 1
        if digit > 99:
            raise ValueError("ring closure digits exhausted")
        self._used.add(digit)
        self._open[(a, b) if a < b else (b, a)] = digit
        return self._format(digit)

    def opened(self, a: int, b: int) -> str | None:
        key = (a, b) if a < b else (b, a)
        digit = self._open.pop(key, None)
        if digit is None:
            return None
        self._used.discard(digit)
        return self._format(digit)

    @staticmethod
    def _format(digit: int) -> str:
        return str(digit) if digit <= 9 else f"%{digit:02d}"


def _bond_token(mol: Molecule, a: int, b: int) -> str:
    bond = mol.bond_between(a, b)
    order = bond.order
    if order is BondOrder.DOUBLE:
        return "="
    if order is BondOrder.TRIPLE:
        return "#"
    if order is BondOrder.SINGLE:
        if mol.atoms[a].is_aromatic and mol.atoms[b].is_aromatic:
            return "-"
        return ""
    return ""  # aromatic bonds are implicit between aromatic atoms


def _atom_token(mol: Molecule, idx: int) -> str:
    atom = mol.atoms[idx]
    if _bare_eligible(mol, idx):
        return atom.symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(atom.symbol)
    if atom.hydrogens == 1:
        parts.append("H")
    elif atom.hydrogens > 1:
        parts.append(f"H{atom.hydrogens}")
    charge = atom.formal_charge
    if charge == 1:
        parts.append("+")
    elif charge == -1:
        parts.append("-")
    elif charge > 1:
        parts.append(f"+{charge}")
    elif charge < -1:
        parts.append(f"-{-charge}")
    parts.append("]")
    return "".join(parts)


def _bare_eligible(mol: Molecule, idx: int) -> bool:
    atom = mol.atoms[idx]
    if (
        atom.element not in ORGANIC_SUBSET
        or atom.formal_charge != 0
        or atom.isotope is not None
    ):
        return False
    sigma = 0
    has_multiple = False
    for bond in mol.bonds_of(idx):
        sigma += bond.order.bond_electrons
        if bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE):
            has_multiple = True
    inferred = infer_bare_hydrogens(
        atom.element, atom.is_aromatic, sigma, has_multiple
    )
    return inferred == atom.hydrogens
