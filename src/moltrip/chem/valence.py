"""Hydrogen inference, aromatic normalization, and kekulization checking.

Bare organic-subset atoms fill with implicit hydrogens up to the lowest
permitted valence that fits their bonds.  Aromatic atoms additionally commit
to donating either one pi bond or a lone pair to the ring system; validity
then requires a perfect matching of pi donors over the aromatic bonds (the
ring system must kekulize).  A greedy matching settles most molecules; the
atoms it leaves over are matched along augmenting paths (Edmonds' blossom
search), which decides every molecule in polynomial time.  When no perfect
matching exists, the atoms the greedy matching left over are reported.

Both steps read the parser's draft atoms, the one record of whether an atom
was written bare or in brackets with its hydrogens; ``build_molecule`` then
builds each ``Atom`` from its draft and the hydrogens ``analyze`` assigns.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

from .model import (
    Bond,
    BondOrder,
    NeighborView,
    ValidityFailure,
    permitted_valences,
)
from .rings import ring_bonds

# Elements eligible for Kekule-ring normalization to aromatic form.
_AROMATIZABLE = frozenset({"C", "N", "O", "S"})


class _DraftAtom:
    """An atom as the parser read it, before its hydrogens are known.

    ``explicit_h`` is the bracket hydrogen count, None for a bare atom whose
    hydrogens ``analyze`` infers: the only record of how the atom was
    spelled, since ``Atom`` keeps the hydrogens alone.  ``aromatize`` sets
    ``is_aromatic`` in place.
    """

    __slots__ = ("element", "is_aromatic", "formal_charge", "explicit_h", "isotope")

    def __init__(
        self,
        element: str,
        is_aromatic: bool = False,
        formal_charge: int = 0,
        explicit_h: int | None = None,
        isotope: int | None = None,
    ) -> None:
        self.element = element
        self.is_aromatic = is_aromatic
        self.formal_charge = formal_charge
        self.explicit_h = explicit_h
        self.isotope = isotope


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


@functools.lru_cache(maxsize=1024)
def bare_plan(
    element: str,
    is_aromatic: bool,
    sigma: int,
    has_multiple_bond: bool,
) -> tuple[int, int]:
    """(hydrogens, pi) for a bare (bracketless) organic-subset atom; pi is 1
    when the atom must be matched with one aromatic neighbor during
    kekulization.  sigma is the weighted sum of its explicit bonds, an
    aromatic bond counting 1.

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


class AtomAnalysis(NamedTuple):
    hydrogens: tuple[int, ...]
    failures: tuple[ValidityFailure, ...]


def analyze(
    atoms: list[_DraftAtom], bonds: tuple[Bond, ...], view: NeighborView
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
            hydrogens[i], pi[i] = bare_plan(
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

    for i in sorted(_kekulize(bonds, view, pi)):
        failures.append(
            ValidityFailure(i, "aromatic system cannot be kekulized")
        )

    return AtomAnalysis(tuple(hydrogens), tuple(failures))


def _kekulize(
    bonds: tuple[Bond, ...], view: NeighborView, pi: list[int]
) -> set[int]:
    """Atoms a greedy matching of the pi donors over their aromatic bonds
    leaves over, when no perfect matching exists; else the empty set.

    From each leftover still unmatched, ``_augment`` looks for an augmenting
    path; an atom with none is left over by every maximum matching.
    """
    need = [i for i, p in enumerate(pi) if p == 1]
    if not need:
        return set()
    aromatic = [bond.order is BondOrder.AROMATIC for bond in bonds]
    # per atom, its neighbours in its pi system
    adj = [
        [j for j, k in pairs if aromatic[k] and pi[j]] if p else []
        for pairs, p in zip(view, pi)
    ]
    matched: dict[int, int] = {}  # the greedy matching, then augmented
    for atom in need:
        if atom not in matched:
            nbr = next((j for j in adj[atom] if j not in matched), None)
            if nbr is not None:
                matched[atom], matched[nbr] = nbr, atom
    unmatched = {i for i in need if i not in matched}
    for root in sorted(unmatched):
        if root not in matched and not _augment(root, adj, matched):
            return unmatched
    return set()


def _augment(root: int, adj: list[list[int]], matched: dict[int, int]) -> bool:
    """Edmonds' search from the unmatched ``root``: grow an alternating tree,
    contracting odd cycles (blossoms); on reaching another unmatched atom,
    flip the path between them in ``matched`` and return True.  The state
    covers the tree alone, so a search costs its tree, not the molecule."""
    outer = {root: True}  # tree atoms: True at even depth, False at odd
    pred: dict[int, int] = {}  # the atom each tree atom was reached from
    link: dict[int, int] = {}  # union-find: blossom atom -> nearer its base

    def base(x: int) -> int:
        while x in link:
            link[x] = x = link.get(link[x], link[x])  # path halving
        return x

    def climb(x: int) -> Iterator[int]:  # the bases from x's up to the root
        while True:
            yield (x := base(x))
            if x == root:
                return
            x = pred[matched[x]]

    def shrink(x: int, y: int, top: int) -> None:  # x's path down to top
        while base(x) != top:
            pred[x], y = y, matched[x]
            if not outer[y]:
                outer[y] = True
                queue.append(y)
            for atom in (x, y):
                if atom != top and base(atom) == atom:
                    link[atom] = top
            x = pred[y]

    queue = [root]  # outer atoms to scan, appended to while it is read
    for x in queue:
        for y in adj[x]:
            if outer.get(y) is False or base(x) == base(y):  # inner, or x's own
                continue
            if y in outer:  # an odd cycle: contract it at its first base
                path = set(climb(x))
                top = next(b for b in climb(y) if b in path)
                shrink(x, y, top)
                shrink(y, x, top)
                continue
            outer[y], pred[y] = False, x
            if y not in matched:  # an augmenting path ends here: flip it
                end: int | None = y
                while end is not None:
                    mate = pred[end]
                    matched[mate], matched[end], end = end, mate, matched.get(mate)
                return True
            outer[matched[y]] = True
            queue.append(matched[y])
    return False


def aromatize(
    atoms: list[_DraftAtom],
    bonds: tuple[Bond, ...],
    rings: tuple[tuple[int, ...], ...],
    view: NeighborView,
) -> tuple[Bond, ...]:
    """Normalize Kekule-spelled rings to aromatic form: set ``is_aromatic``
    on the ring atoms in place, and return the rewritten bonds.

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
            return bonds
        for i in flip_atoms:
            atoms[i].is_aromatic = True
        bonds = tuple(
            bond._replace(order=BondOrder.AROMATIC)
            if k in flip_bonds
            else bond
            for k, bond in enumerate(bonds)
        )


def may_aromatize(bonds: tuple[Bond, ...], bridges: frozenset[int]) -> bool:
    """Whether ``aromatize`` might convert a ring of these bonds: some bond
    that is not in ``bridges`` (their ``find_bridges``) is double, or some
    atom has both a single and an aromatic such bond.

    ``_ring_qualifies`` implies this gate.  The bonds of a ring are never
    bridges.  A ring it accepts has no triple bond, is not all aromatic and
    alternates, so it is not all single either: it holds a double bond, or
    single and aromatic bonds, and those meet at some ring atom.  So when
    the gate is false, ``aromatize`` would return the bonds unchanged, and
    a parse skips it and the SSSR it reads.  A change to the rule of
    ``_ring_qualifies`` must restate this gate.
    """
    single: set[int] = set()
    aromatic: set[int] = set()
    for k, bond in enumerate(bonds):
        if k in bridges:
            continue
        order = bond.order
        if order is BondOrder.DOUBLE:
            return True
        if order is BondOrder.SINGLE:
            single.add(bond.a)
            single.add(bond.b)
        elif order is BondOrder.AROMATIC:
            aromatic.add(bond.a)
            aromatic.add(bond.b)
    return not single.isdisjoint(aromatic)


def _ring_qualifies(
    atoms: list[_DraftAtom],
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
