"""Hydrogen inference, aromatic normalization, and kekulization checking.

Bare organic-subset atoms fill with implicit hydrogens up to the lowest
permitted valence that fits their bonds.  Aromatic atoms additionally commit
to donating either one pi bond or a lone pair to the ring system; validity
then requires a perfect matching of pi donors over the aromatic bonds (the
ring system must kekulize).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Protocol, TypeVar

from .model import (
    Bond,
    BondOrder,
    ValidityFailure,
    permitted_valences,
)

# Elements eligible for Kekule-ring normalization to aromatic form.
_AROMATIZABLE = frozenset({"C", "N", "O", "S"})


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


def _bare_plan(
    element: str,
    is_aromatic: bool,
    sigma: int,
    has_multiple_bond: bool,
) -> tuple[int, int]:
    """(hydrogens, pi) for a bare atom; pi is 1 when the atom must be matched
    with one aromatic neighbor during kekulization."""
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


@dataclass(frozen=True)
class AtomAnalysis:
    hydrogens: tuple[int, ...]
    pi: tuple[int, ...]  # planned pi-bond donation per atom (0 or 1)
    failures: tuple[ValidityFailure, ...]


def analyze(
    atoms: tuple[AtomFields, ...], bonds: tuple[Bond, ...]
) -> AtomAnalysis:
    """Assign hydrogens, plan pi donation, and collect valence failures."""
    n = len(atoms)
    sigma = [0] * n
    multiple = [False] * n
    incident: list[list[Bond]] = [[] for _ in range(n)]
    for bond in bonds:
        for end in bond.endpoints:
            sigma[end] += bond.order.bond_electrons
            incident[end].append(bond)
            if bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE):
                multiple[end] = True

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

    unmatched = _kekulize(n, bonds, pi)
    for i in sorted(unmatched):
        failures.append(
            ValidityFailure(i, "aromatic system cannot be kekulized")
        )

    return AtomAnalysis(tuple(hydrogens), tuple(pi), tuple(failures))


def _kekulize(n: int, bonds: tuple[Bond, ...], pi: list[int]) -> set[int]:
    """Atoms left unmatched by the best pi-bond matching (empty = kekulizable).

    Matching runs over aromatic bonds between pi-donating atoms, via
    backtracking; aromatic systems in practice are small.
    """
    need = [i for i in range(n) if pi[i] == 1]
    if not need:
        return set()
    need_set = set(need)
    adj: dict[int, list[int]] = {i: [] for i in need}
    for bond in bonds:
        if bond.order is not BondOrder.AROMATIC:
            continue
        if bond.a in need_set and bond.b in need_set:
            adj[bond.a].append(bond.b)
            adj[bond.b].append(bond.a)

    matched: dict[int, int] = {}

    def extend(remaining: list[int]) -> bool:
        while remaining and remaining[-1] in matched:
            remaining = remaining[:-1]
        if not remaining:
            return True
        atom = remaining[-1]
        rest = remaining[:-1]
        for nbr in adj[atom]:
            if nbr in matched:
                continue
            matched[atom] = nbr
            matched[nbr] = atom
            if extend(rest):
                return True
            del matched[atom]
            del matched[nbr]
        return False

    if extend(sorted(need, reverse=True)):
        return set()
    # No perfect matching: report atoms a maximum greedy matching leaves over.
    matched.clear()
    for atom in need:
        if atom in matched:
            continue
        for nbr in adj[atom]:
            if nbr not in matched:
                matched[atom] = nbr
                matched[nbr] = atom
                break
    return {i for i in need if i not in matched}


def aromatize(
    atoms: tuple[_A, ...],
    bonds: tuple[Bond, ...],
    rings: tuple[tuple[int, ...], ...],
) -> tuple[tuple[_A, ...], tuple[Bond, ...]]:
    """Normalize Kekule-spelled rings to aromatic form.

    A ring converts when every atom is C/N/O/S, the ring bonds alternate
    single/double around the cycle (bonds already aromatic match either
    slot, so fused rings convert across passes), and no ring atom carries
    a double or triple bond pointing off the ring.  Passes repeat until no
    further ring qualifies, so all Kekule rings of a fused system agree.
    """
    while True:
        lookup = {bond.key: bond for bond in bonds}
        flip_atoms: set[int] = set()
        flip_bonds: set[tuple[int, int]] = set()
        for ring in rings:
            result = _ring_qualifies(atoms, lookup, ring)
            if result is not None:
                flip_atoms.update(ring)
                flip_bonds.update(result)
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
            if bond.key in flip_bonds
            else bond
            for bond in bonds
        )


def _ring_qualifies(
    atoms: tuple[AtomFields, ...],
    lookup: dict[tuple[int, int], Bond],
    ring: tuple[int, ...],
) -> set[tuple[int, int]] | None:
    """Bond keys to flip aromatic, or None when the ring does not qualify."""
    k = len(ring)
    if k % 2 != 0:
        return None
    cycle: list[Bond] = []
    for i in range(k):
        a, b = ring[i], ring[(i + 1) % k]
        bond = lookup.get((a, b) if a < b else (b, a))
        if bond is None:
            return None
        cycle.append(bond)
    orders = [bond.order for bond in cycle]
    if BondOrder.TRIPLE in orders:
        return None
    if all(order is BondOrder.AROMATIC for order in orders):
        return None
    # Alternation feasibility: singles on one parity, doubles on the other,
    # aromatic bonds fitting either slot.
    feasible = False
    for parity in (0, 1):
        if all(
            (order is BondOrder.AROMATIC)
            or (order is BondOrder.SINGLE and i % 2 == parity)
            or (order is BondOrder.DOUBLE and i % 2 != parity)
            for i, order in enumerate(orders)
        ):
            feasible = True
            break
    if not feasible:
        return None
    for i, idx in enumerate(ring):
        atom = atoms[idx]
        if atom.element not in _AROMATIZABLE:
            return None
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
            return None
    ring_set = set(ring)
    ring_keys = {bond.key for bond in cycle}
    # Exocyclic multiple bonds block conversion (quinoid forms stay as written).
    for key, bond in lookup.items():
        if key in ring_keys:
            continue
        if bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE) and (
            bond.a in ring_set or bond.b in ring_set
        ):
            return None
    return {
        bond.key for bond in cycle if bond.order is not BondOrder.AROMATIC
    }
