"""Canonical SMILES via iterative invariant refinement.

Atoms are ranked by refining seed invariants (element, aromaticity, degree,
hydrogens, charge, isotope, ring membership) against neighbor-rank multisets
until stable; remaining ties are broken by isolating one atom of the lowest
tied class and refining again.  Each round re-sorts the neighbours of tied
atoms only: an atom alone in its class keeps its rank without a key.  The
writer walks each fragment depth-first from its lowest-ranked atom with
branches ordered by rank, so the output depends only on the graph, never on
input atom order.  It works out every atom's token, bare or bracketed, and
every bond's token once per call, before the walk.
"""

from __future__ import annotations

import random
from collections import Counter

from .model import ORGANIC_SUBSET, Atom, Bond, BondOrder, Molecule
from .parser import MoleculeTooLarge
from .valence import bond_sums, infer_bare_hydrogens


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
    # per atom, (bond sort key * n, neighbour) per neighbour: adding the
    # neighbour's rank, below n, gives an int that sorts as the
    # (sort key, rank) pair would
    bonded = [
        [(mol.bonds[k].order.sort_key * n, j) for j, k in pairs]
        for pairs in mol.neighbor_view
    ]
    ranks = _refine(bonded, _dense_ranks(seeds))
    while True:
        counts = Counter(ranks)
        tied = [rank for rank, count in counts.items() if count > 1]
        if not tied:
            return tuple(ranks)
        # isolate the first atom of the lowest tied class: it keeps the
        # class's rank, and every rank above shifts up by one
        target = min(tied)
        chosen = ranks.index(target)
        ranks = [
            rank + 1 if rank > target or (rank == target and i != chosen) else rank
            for i, rank in enumerate(ranks)
        ]
        ranks = _refine(bonded, ranks)


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
    """Split classes by their sorted neighbour keys until none splits.

    ``ranks`` are dense.  An atom alone in its class is keyed ``(rank, ())``:
    no other key has its rank, so the empty tuple is never compared.
    """
    classes = max(ranks, default=-1) + 1
    while True:
        counts = [0] * classes
        for rank in ranks:
            counts[rank] += 1
        keys = [
            (rank, tuple(sorted([key + ranks[j] for key, j in pairs])))
            if counts[rank] > 1
            else (rank, ())
            for rank, pairs in zip(ranks, bonded)
        ]
        refined = _dense_ranks(keys)
        split = max(refined, default=-1) + 1
        if split == classes:
            return refined
        ranks, classes = refined, split


def _write(
    mol: Molecule,
    ranks: tuple[int, ...],
    fragment_rng: random.Random | None = None,
) -> str:
    atoms = mol.atoms
    n = len(atoms)
    sigma, multiple = bond_sums(n, mol.bonds)
    atom_tokens = [
        _atom_token(atom, sigma[i], multiple[i]) for i, atom in enumerate(atoms)
    ]
    bond_tokens = [_bond_token(bond, atoms) for bond in mol.bonds]
    # per atom, its (neighbour, bond index) pairs in rank order of neighbour
    ordered: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    view = mol.neighbor_view
    for j in sorted(range(n), key=ranks.__getitem__):
        for i, k in view[j]:
            ordered[i].append((j, k))
    tree = [False] * len(mol.bonds)
    pieces = []
    for fragment in mol.fragments:
        start = min(fragment, key=ranks.__getitem__)
        _mark_tree(ordered, start, tree)
        pieces.append(_write_fragment(ordered, tree, start, atom_tokens, bond_tokens))
    if fragment_rng is None:
        pieces.sort()
    else:
        fragment_rng.shuffle(pieces)
    return ".".join(pieces)


def _mark_tree(
    ordered: list[list[tuple[int, int]]], start: int, tree: list[bool]
) -> None:
    """Mark the bonds of the depth-first tree from ``start`` that visits
    neighbours in the given order; the fragment's other bonds close rings."""
    visited = {start}
    # each frame resumes its neighbour iterator after a child's subtree is done
    stack = [iter(ordered[start])]
    while stack:
        for j, k in stack[-1]:
            if j not in visited:
                visited.add(j)
                tree[k] = True
                stack.append(iter(ordered[j]))
                break
        else:
            stack.pop()


def _write_fragment(
    ordered: list[list[tuple[int, int]]],
    tree: list[bool],
    start: int,
    atom_tokens: list[str],
    bond_tokens: list[str],
) -> str:
    """Write the tree ``_mark_tree`` marked: branches and ring-closure digits
    in rank order, digits opening at the endpoint written first."""
    digits = _DigitPool()
    out: list[str] = []
    # depth-first over the tree with an explicit stack of pending atoms
    # (idx, index of the bond from its parent) and literal branch
    # parentheses, so long chains cannot exhaust the interpreter's
    # recursion limit
    stack: list[tuple[int, int] | str] = [(start, -1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        idx, via = item
        if via >= 0:
            out.append(bond_tokens[via])
        out.append(atom_tokens[idx])
        kids = []
        for j, k in ordered[idx]:
            if tree[k]:
                if k != via:
                    kids.append((j, k))
                continue
            closing = digits.close(k)
            if closing is None:
                out.append(bond_tokens[k])
                out.append(digits.open(k))
            else:
                out.append(closing)
        if kids:
            stack.append(kids[-1])
        for kid in reversed(kids[:-1]):
            stack.extend((")", kid, "("))
    return "".join(out)


class _DigitPool:
    """Ring-closure digit assignment, per ring bond, reusing freed digits."""

    def __init__(self) -> None:
        self._open: dict[int, int] = {}
        self._used: set[int] = set()

    def open(self, bond: int) -> str:
        digit = 1
        while digit in self._used:
            digit += 1
        if digit > 99:
            raise MoleculeTooLarge(
                "canonical form needs more than 99 ring closures open at once"
            )
        self._used.add(digit)
        self._open[bond] = digit
        return self._format(digit)

    def close(self, bond: int) -> str | None:
        """The digit of an open ring bond, freed; None if it is not open."""
        digit = self._open.pop(bond, None)
        if digit is None:
            return None
        self._used.discard(digit)
        return self._format(digit)

    @staticmethod
    def _format(digit: int) -> str:
        return str(digit) if digit <= 9 else f"%{digit:02d}"


def _bond_token(bond: Bond, atoms: tuple[Atom, ...]) -> str:
    """The bond's symbol where the SMILES needs one: always for a double or
    triple bond, and for a single bond between two aromatic atoms.  Other
    single bonds and aromatic bonds are implicit."""
    order = bond.order
    if order is BondOrder.AROMATIC or (
        order is BondOrder.SINGLE
        and not (atoms[bond.a].is_aromatic and atoms[bond.b].is_aromatic)
    ):
        return ""
    return order.symbol


def _atom_token(atom: Atom, sigma: int, multiple: bool) -> str:
    """The atom bare when its bonds (``sigma``, ``multiple``) imply its
    hydrogens, else in brackets."""
    if (
        atom.element in ORGANIC_SUBSET
        and atom.formal_charge == 0
        and atom.isotope is None
        and infer_bare_hydrogens(atom.element, atom.is_aromatic, sigma, multiple)
        == atom.hydrogens
    ):
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
