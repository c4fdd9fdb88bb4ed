"""Canonical SMILES via splitter refinement of an ordered partition.

Atoms start in cells of equal seed invariants (element, aromaticity, degree,
hydrogens, charge, isotope, ring membership), ordered by invariant.  Each
round splits every cell by its atoms' sorted (bond order, neighbour rank)
keys, where an atom's rank is the start of its cell, and orders the pieces
by key (McKay 1981; Cardon and Crochemore 1982).  A round re-keys only the
atoms next to a piece that split off in the round before, leaving out the
largest piece of each split as Hopcroft's algorithm does.  Every cell was
stable against the partition before, so its atoms that no such piece
touched share one key, read off any one of them, and every round makes
exactly the split that re-keying every atom would.  A split swaps the
atoms of the pieces keyed below the untouched atoms' key to the front of the
cell and those keyed above to its back, so the untouched atoms do not move.
The largest piece keeps its cell's id, so only the atoms of the smaller
pieces are relabelled.  An atom lands in a smaller piece at most log2(atoms)
times, which bounds the work by O(bonds * log atoms) for atoms of bounded
degree.

When the partition is stable with cells still tied, the lowest-index atom
of the lowest tied cell is split off on its own, the tie-break order of
Weininger et al. (1989), and refinement goes on from that one split, whose
smaller piece is the only splitter.  A pointer that only moves forward finds
the lowest tied cell, and a cell's atoms are sorted by index at its first
tie-break only, so many identical fragments cost O(atoms * log atoms) to
tell apart, not the square of their number.

The writer walks each fragment depth-first from its lowest-ranked atom with
branches ordered by rank.  Input atom order reaches the output only through
the tie-breaks, and not at all where every tied cell is one orbit of the
graph's symmetries (not so for cuneane).  The writer works out every atom's
token, bare or bracketed, and every bond's token once per call, before the
walk.  A ring bond opens with the lowest digit not open: the least of a heap
of the digits closed so far, or else the next unused one.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Mapping
from heapq import heappop, heappush

from .model import (
    ORGANIC_SUBSET,
    Atom,
    Bond,
    BondOrder,
    Molecule,
    NeighborView,
)
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
    view = mol.neighbor_view
    ring = mol.ring_atoms
    seeds = [
        (
            atom.element,
            atom.is_aromatic,
            len(view[i]),
            atom.hydrogens,
            atom.formal_charge,
            atom.isotope or 0,
            i in ring,
        )
        for i, atom in enumerate(mol.atoms)
    ]
    # per bond, its order's sort key * n: adding a neighbour's rank, below
    # n, gives an int that sorts as the (sort key, rank) pair would
    weights = [bond.order.sort_key * n for bond in mol.bonds]
    part = _Partition(view, weights, seeds)
    order, cell, size = part.order, part.cell, part.size
    # the first round keys every atom of every tied cell
    part.refine({
        c: order[first : first + count]
        for c, (first, count) in enumerate(zip(part.start, size))
        if count > 1
    })
    # per tied cell met at a tie-break, its atoms by falling index: a cell
    # only loses atoms, so the lowest index left is the last one still in it
    falling: dict[int, list[int]] = {}
    p = 0  # every cell below position p is a single atom
    while True:
        while p < n and size[cell[order[p]]] == 1:
            p += 1
        if p == n:
            return tuple(part.pos)
        # the lowest tied cell starts at p: split off its lowest-index atom
        c = cell[order[p]]
        if c not in falling:
            falling[c] = sorted(order[p : p + size[c]], reverse=True)
        atoms = falling[c]
        while cell[atoms[-1]] != c:
            atoms.pop()
        part.refine(part.touched_by(part._split(c, [[atoms.pop()]], [])))


class _Partition:
    """An ordered partition of the atoms into cells, refined by splitters.

    ``order`` lists the atoms cell by cell and ``pos`` inverts it.  Cell
    ``c`` holds ``order[start[c]:start[c] + size[c]]``, in no particular
    order, and an atom's rank is ``start[cell[a]]``: a split moves no other
    cell's start.  Cell ids are never reused.
    """

    def __init__(self, view: NeighborView, weights: list[int], seeds: list) -> None:
        n = len(seeds)
        self.view = view
        self.weights = weights
        self.order = order = sorted(range(n), key=seeds.__getitem__)
        self.pos = pos = [0] * n
        self.cell = cell = [0] * n
        self.start = start = []
        previous = None
        for p, a in enumerate(order):
            pos[a] = p
            if seeds[a] != previous:
                previous = seeds[a]
                start.append(p)
            cell[a] = len(start) - 1
        self.size = [end - p for p, end in zip(start, start[1:] + [n])]

    def refine(self, touched: Mapping[int, Collection[int]]) -> None:
        """Split cells in synchronous rounds until none splits.

        Each round keys, against the partition as the round found it, the
        ``touched`` atoms of tied cells; the atoms of the pieces that do not
        keep their cell's id are the next round's splitters, and the next
        round touches their neighbours.  ``touched[c]`` is a set wherever it
        leaves out some of cell ``c``'s atoms.
        """
        view, weights, order, cell, start, size = (
            self.view, self.weights, self.order, self.cell, self.start, self.size
        )

        def key(a: int) -> tuple[int, ...]:
            return tuple(sorted([weights[k] + start[cell[j]] for j, k in view[a]]))

        while touched:
            splits = []
            for c, members in touched.items():
                groups: dict[tuple[int, ...], list[int]] = {}
                for a in members:
                    rest = key(a)
                    groups.setdefault(rest, []).append(a)
                # the piece that stays in the middle: the untouched atoms,
                # which share one key, or else the last touched atom's
                if len(members) < size[c]:
                    p = start[c]
                    while order[p] in members:
                        p += 1
                    rest = key(order[p])
                    groups.setdefault(rest, [])
                if len(groups) > 1:
                    keys = sorted(groups)
                    m = keys.index(rest)
                    splits.append((
                        c,
                        [groups[k] for k in keys[:m]],
                        [groups[k] for k in keys[m + 1 :]],
                    ))
            splitters = []
            for split in splits:
                splitters += self._split(*split)
            touched = self.touched_by(splitters)

    def touched_by(self, splitters: list[int]) -> dict[int, set[int]]:
        """Per tied cell, its atoms next to a splitter."""
        view, cell, size = self.view, self.cell, self.size
        touched: dict[int, set[int]] = {}
        for x in splitters:
            for y, _ in view[x]:
                c = cell[y]
                if size[c] > 1:
                    members = touched.get(c)
                    if members is None:
                        touched[c] = {y}
                    else:
                        members.add(y)
        return touched

    def _split(
        self, c: int, below: list[list[int]], above: list[list[int]]
    ) -> list[int]:
        """Split cell ``c`` into the pieces ``below``, the rest of its atoms,
        and the pieces ``above``, laid out in that order; return the atoms of
        every piece but the largest, which keeps the id ``c``.

        Each atom of ``below`` swaps into place from the front of the cell
        and each of ``above`` from its back, so the rest stay in the middle
        untouched and the work is in proportion to the moved atoms and the
        smaller pieces, not the cell.
        """
        order, pos, cell, start, size = (
            self.order, self.pos, self.cell, self.start, self.size
        )
        lo = start[c]
        hi = lo + size[c]
        for piece in below:
            for a in piece:
                p, b = pos[a], order[lo]
                order[p], pos[b] = b, p
                order[lo], pos[a] = a, lo
                lo += 1
        for piece in reversed(above):
            for a in piece:
                hi -= 1
                p, b = pos[a], order[hi]
                order[p], pos[b] = b, p
                order[hi], pos[a] = a, hi
        counts = [len(piece) for piece in below] + [hi - lo]
        counts += [len(piece) for piece in above]
        largest = counts.index(max(counts))
        splitters: list[int] = []
        first = start[c]
        for i, count in enumerate(counts):
            if i == largest:
                start[c] = first
                size[c] = count
            else:
                members = order[first : first + count]
                new = len(start)
                start.append(first)
                size.append(count)
                for a in members:
                    cell[a] = new
                splitters += members
            first += count
        return splitters


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
    by_rank = [0] * n
    for i, rank in enumerate(ranks):
        by_rank[rank] = i
    for j in by_rank:
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
    opened: dict[int, int] = {}  # per open ring bond, its digit
    freed: list[int] = []  # a heap of the digits closed since
    top = 0  # digits 1 to top have been used
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
            # a ring bond closes with its digit, or opens with the lowest
            # digit not open
            digit = opened.pop(k, 0)
            if digit:
                heappush(freed, digit)
            else:
                if freed:
                    digit = heappop(freed)
                elif top < 99:
                    top = digit = top + 1
                else:
                    raise MoleculeTooLarge(
                        "SMILES spelling needs more than 99 ring closures open at once"
                    )
                opened[k] = digit
                out.append(bond_tokens[k])
            out.append(str(digit) if digit < 10 else f"%{digit}")
        if kids:
            stack.append(kids[-1])
        for kid in reversed(kids[:-1]):
            stack.extend((")", kid, "("))
    return "".join(out)


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
