"""Hydrogen inference, aromatic normalization, and kekulization checking.

Bare organic-subset atoms fill with implicit hydrogens up to the lowest
permitted valence that fits their bonds.  Aromatic atoms additionally commit
to donating either one pi bond or a lone pair to the ring system; validity
then requires a perfect matching of pi donors over the aromatic bonds (the
ring system must kekulize).  A pi system of an odd number of atoms fails
without a search, and a search that tries more than ``MAX_KEKULE_STEPS``
choices gives no verdict: ``parse_smiles`` then raises ``MoleculeTooLarge``.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Iterator, Protocol, TypeVar

from .model import (
    Bond,
    BondOrder,
    NeighborView,
    ValidityFailure,
    permitted_valences,
)
from .rings import components, ring_bonds

# Elements eligible for Kekule-ring normalization to aromatic form.
_AROMATIZABLE = frozenset({"C", "N", "O", "S"})

# Choices the kekulization search may try per molecule before giving up.
MAX_KEKULE_STEPS = 100_000


class AtomFields(Protocol):
    """What aromatize and analyze read of an atom; parser drafts have it."""

    @property
    def element(self) -> str: ...
    @property
    def is_aromatic(self) -> bool: ...
    @property
    def formal_charge(self) -> int: ...
    @property
    def explicit_h(self) -> int | None: ...


_A = TypeVar("_A", bound=AtomFields)


def _prefers_pi(element: str, sigma: int) -> bool:
    """Whether a bare aromatic atom donates a pi bond rather than a lone pair.

    Carbon and boron always offer the pi bond; nitrogen-family atoms only
    when two-connected (a three-connected bare n is a pyrrole-type lone-pair
    donor); oxygen-family atoms always donate the lone pair.
    """
    if element in ("C", "B"):
        return True
    if element in ("N", "P", "As"):
        return sigma <= 2
    return False


def infer_bare_hydrogens(
    element: str,
    is_aromatic: bool,
    sigma: int,
    has_multiple_bond: bool,
) -> int:
    """Implicit hydrogen count for a bare (bracketless) organic-subset atom.

    sigma is the weighted sum of explicit bonds with aromatic counting 1.
    """
    h, _ = _bare_plan(element, is_aromatic, sigma, has_multiple_bond)
    return h


@functools.lru_cache(maxsize=1024)
def _bare_plan(
    element: str,
    is_aromatic: bool,
    sigma: int,
    has_multiple_bond: bool,
) -> tuple[int, int]:
    """(hydrogens, pi) for a bare atom; pi is 1 when the atom must be matched
    with one aromatic neighbor during kekulization.

    Memoised: drug-like molecules use a few dozen distinct argument tuples,
    and the bound keeps hostile inputs (an atom with thousands of branches)
    from growing the table.
    """
    allowed = permitted_valences(element, 0)
    assert allowed is not None  # bare atoms are organic subset by grammar
    if not is_aromatic:
        fill = _lowest_fit(allowed, sigma)
        return (fill - sigma if fill is not None else 0, 0)

    pi_route = _lowest_fit(allowed, sigma + 1)
    lone_route = _lowest_fit(allowed, sigma)
    want_pi = not has_multiple_bond and _prefers_pi(element, sigma)
    if want_pi and pi_route is not None:
        return (pi_route - sigma - 1, 1)
    if lone_route is not None:
        return (lone_route - sigma, 0)
    if not has_multiple_bond and pi_route is not None:
        return (pi_route - sigma - 1, 1)
    return (0, 0)


def _lowest_fit(allowed: tuple[int, ...], minimum: int) -> int | None:
    fits = [v for v in allowed if v >= minimum]
    return min(fits) if fits else None


def bond_sums(n_atoms: int, bonds: tuple[Bond, ...]) -> tuple[list[int], list[bool]]:
    """Per atom, its sigma (the sum of its bonds' ``bond_electrons``) and
    whether it has a double or triple bond."""
    sigma = [0] * n_atoms
    multiple = [False] * n_atoms
    for bond in bonds:
        a, b, electrons = bond.a, bond.b, bond.order.bond_electrons
        sigma[a] += electrons
        sigma[b] += electrons
        if electrons > 1:  # double or triple: aromatic bonds count 1
            multiple[a] = multiple[b] = True
    return sigma, multiple


@dataclass(frozen=True)
class AtomAnalysis:
    hydrogens: tuple[int, ...]
    failures: tuple[ValidityFailure, ...]
    # the kekulization search ran past MAX_KEKULE_STEPS: no verdict
    exhausted: bool


def analyze(
    atoms: tuple[AtomFields, ...], bonds: tuple[Bond, ...], view: NeighborView
) -> AtomAnalysis:
    """Assign hydrogens, plan pi donation, and collect valence failures.

    ``view`` is ``neighbor_view`` of the bonds.
    """
    n = len(atoms)
    sigma, multiple = bond_sums(n, bonds)

    hydrogens = [0] * n
    pi = [0] * n
    failures: list[ValidityFailure] = []
    for i, atom in enumerate(atoms):
        if atom.explicit_h is None:
            hydrogens[i], pi[i] = _bare_plan(
                atom.element, atom.is_aromatic, sigma[i], multiple[i]
            )
            continue
        hydrogens[i] = atom.explicit_h
        if not atom.is_aromatic:
            continue
        allowed = permitted_valences(atom.element, atom.formal_charge)
        total = sigma[i] + hydrogens[i]
        if allowed is None or total in allowed:
            pi[i] = 0
        elif total + 1 in allowed:
            pi[i] = 1

    for i, atom in enumerate(atoms):
        allowed = permitted_valences(atom.element, atom.formal_charge)
        if allowed is None:
            continue
        total = sigma[i] + hydrogens[i] + pi[i]
        if total in allowed:
            continue
        if not allowed or total > max(allowed):
            cap = max(allowed) if allowed else 0
            reason = f"valence {total} > max {cap} for {atom.element}"
        else:
            shape = ",".join(str(v) for v in sorted(allowed))
            reason = f"valence {total} not in permitted {{{shape}}} for {atom.element}"
        failures.append(ValidityFailure(i, reason))

    unmatched = _kekulize(bonds, view, pi)
    for i in sorted(unmatched or ()):
        failures.append(
            ValidityFailure(i, "aromatic system cannot be kekulized")
        )

    return AtomAnalysis(tuple(hydrogens), tuple(failures), unmatched is None)


def _kekulize(
    bonds: tuple[Bond, ...], view: NeighborView, pi: list[int]
) -> set[int] | None:
    """Atoms left unmatched by the best pi-bond matching (empty = kekulizable),
    or None if the search ran past ``MAX_KEKULE_STEPS``.

    Matching runs over aromatic bonds between pi-donating atoms.  A greedy
    matching that leaves no atom over settles it; else a backtracking
    search runs over one connected pi system at a time, skipping a system
    of an odd number of atoms, which has no perfect matching.
    """
    need = [i for i, p in enumerate(pi) if p == 1]
    if not need:
        return set()
    aromatic = [bond.order is BondOrder.AROMATIC for bond in bonds]
    # per atom, its (neighbour, bond index) pairs in its pi system
    adj = [
        [pair for pair in pairs if aromatic[pair[1]] and pi[pair[0]]] if p else []
        for pairs, p in zip(view, pi)
    ]
    # a greedy matching: what it leaves over is the report when there is no
    # perfect matching, and when it leaves nothing over it is one
    matched: dict[int, int] = {}
    for atom in need:
        if atom in matched:
            continue
        for nbr, _ in adj[atom]:
            if nbr not in matched:
                matched[atom] = nbr
                matched[nbr] = atom
                break
    unmatched = {i for i in need if i not in matched}
    if not unmatched:
        return unmatched
    steps = iter(range(MAX_KEKULE_STEPS))
    for system in components(adj):
        if not pi[system[0]]:
            continue
        found = len(system) % 2 == 0 and _perfect_matching(system[::-1], adj, steps)
        if found is None:
            return None
        if not found:
            return unmatched
    return set()


def _perfect_matching(
    order: tuple[int, ...], adj: list[list[tuple[int, int]]], steps: Iterator[int]
) -> bool | None:
    """Backtracking search matching every atom of ``order``, last first,
    taking one item of ``steps`` per choice it tries; None if they run out.

    One stack frame per matched pair, so a long aromatic system cannot
    exhaust the interpreter's recursion limit.
    """
    matched: dict[int, int] = {}
    # (position in order of an atom being matched, its untried neighbours)
    stack: list[tuple[int, Iterator[tuple[int, int]]]] = []
    rest = len(order)  # order[:rest] may hold unmatched atoms
    while True:
        while rest and order[rest - 1] in matched:
            rest -= 1
        if not rest:
            return True
        rest -= 1
        stack.append((rest, iter(adj[order[rest]])))
        while stack:
            if next(steps, None) is None:
                return None
            rest, nbrs = stack[-1]
            atom = order[rest]
            if atom in matched:  # the search under this choice failed
                del matched[matched.pop(atom)]
            nbr = next((j for j, _ in nbrs if j not in matched), None)
            if nbr is not None:
                matched[atom] = nbr
                matched[nbr] = atom
                break
            stack.pop()
        else:
            return False


def aromatize(
    atoms: tuple[_A, ...],
    bonds: tuple[Bond, ...],
    rings: tuple[tuple[int, ...], ...],
    view: NeighborView,
) -> tuple[tuple[_A, ...], tuple[Bond, ...]]:
    """Normalize Kekule-spelled rings to aromatic form.

    A ring converts when every atom is C/N/O/S, the ring bonds alternate
    single/double around the cycle (bonds already aromatic match either
    slot, so fused rings convert across passes), and no ring atom carries
    a double or triple bond pointing off the ring.  Passes repeat until no
    further ring qualifies, so all Kekule rings of a fused system agree.
    ``view`` is ``neighbor_view`` of the bonds; it holds bond indices, so it
    stays valid as the passes rewrite bond orders.
    """
    cycles = [ring_bonds(ring, view) for ring in rings]
    while True:
        flip_atoms: set[int] = set()
        flip_bonds: set[int] = set()
        for ring, cycle in zip(rings, cycles):
            if _ring_qualifies(atoms, bonds, view, ring, cycle):
                flip_atoms.update(ring)
                flip_bonds.update(cycle)
        if not flip_bonds:
            return atoms, bonds
        atoms = tuple(
            dataclasses.replace(atom, is_aromatic=True)
            if i in flip_atoms and not atom.is_aromatic
            else atom
            for i, atom in enumerate(atoms)
        )
        bonds = tuple(
            dataclasses.replace(bond, order=BondOrder.AROMATIC)
            if k in flip_bonds
            else bond
            for k, bond in enumerate(bonds)
        )


def _ring_qualifies(
    atoms: tuple[AtomFields, ...],
    bonds: tuple[Bond, ...],
    view: NeighborView,
    ring: tuple[int, ...],
    cycle: list[int],
) -> bool:
    """Whether the ring, whose bond indices in ring order are ``cycle``,
    converts to aromatic form."""
    if len(ring) % 2 != 0:
        return False
    orders = [bonds[k].order for k in cycle]
    if BondOrder.TRIPLE in orders:
        return False
    if all(order is BondOrder.AROMATIC for order in orders):
        return False
    # Alternation feasibility: singles on one parity, doubles on the other,
    # aromatic bonds fitting either slot.
    if not any(
        all(
            (order is BondOrder.AROMATIC)
            or (order is BondOrder.SINGLE and i % 2 == parity)
            or (order is BondOrder.DOUBLE and i % 2 != parity)
            for i, order in enumerate(orders)
        )
        for parity in (0, 1)
    ):
        return False
    for i, idx in enumerate(ring):
        atom = atoms[idx]
        if atom.element not in _AROMATIZABLE:
            return False
        # Neutral O/S cannot hold a ring double bond; refuse to launder the
        # valence error into an aromatic flag.
        if (
            atom.element in ("O", "S")
            and atom.formal_charge == 0
            and (
                orders[i] is BondOrder.DOUBLE
                or orders[i - 1] is BondOrder.DOUBLE
            )
        ):
            return False
    # Exocyclic multiple bonds block conversion (quinoid forms stay as written).
    on_ring = set(cycle)
    return not any(
        bonds[k].order in (BondOrder.DOUBLE, BondOrder.TRIPLE)
        for idx in ring
        for _, k in view[idx]
        if k not in on_ring
    )
