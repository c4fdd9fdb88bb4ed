"""Molecular graph model: atoms, bonds, molecules, and validity reports.

Molecules are immutable once constructed and safe to share across threads.
All chemistry in this package (validity checking, canonicalization,
fingerprints, reconstruction scoring) operates on these types.
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from typing import NamedTuple

from ..records import Frozen, checked

# The element symbols in periodic order, H through Og: element Z is at Z - 1.
ELEMENTS = tuple(
    """
    H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni
    Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I
    Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt
    Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr
    Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og
    """.split()
)

# Recognized element symbols.
ELEMENT_SYMBOLS = frozenset(ELEMENTS)

# Atoms writable without brackets when uncharged and at default valence.
ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})

# Elements that may carry an aromatic (lowercase) flag.
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S", "Se", "As", "Te"})

# Permitted total bond orders (including hydrogens) per element at charge 0.
# A charged atom takes the valences of its isoelectronic neutral element
# (see ``permitted_valences``).  Elements outside the table are unconstrained.
PERMITTED_VALENCES: dict[str, tuple[int, ...]] = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# The valences of the neutral elements outside the table that a charged
# table element can be isoelectronic with; neutral atoms of these elements
# stay unconstrained.
_ISOELECTRONIC_ONLY: dict[str, tuple[int, ...]] = {
    "Be": (2,),
    "Si": (4,),
    **dict.fromkeys(("He", "Ne", "Ar", "Kr", "Xe", "Rn", "Og"), (0,)),
}


@lru_cache(maxsize=1024)
def permitted_valences(element: str, charge: int) -> tuple[int, ...] | None:
    """Allowed total bond orders for an element at a formal charge.

    A charged atom of atomic number Z and charge q takes the valences of
    the neutral element Z - q when the table, or ``_ISOELECTRONIC_ONLY``,
    holds it: N+ and B- take carbon's, C+ boron's, C- nitrogen's, P-
    sulfur's, B+ beryllium's (2,), P+ silicon's (4,), and Cl- or S2- a
    noble gas's (0,).  A bare proton (Z - q = 0) takes (0,), and an atom
    with Z - q < 0 takes none.  Any other charged atom shifts its own
    valences by q, dropping those below 0: Br+ takes (2,) and P2+ (5, 7).
    Returns None for elements outside the valence table (no constraint).
    Memoised, since every parse asks it of every atom, so the tables above
    are read as constants.
    """
    base = PERMITTED_VALENCES.get(element)
    if base is None:
        return None
    if charge:
        z = ELEMENTS.index(element) + 1 - charge
        if z <= 0:
            return (0,) if z == 0 else ()
        if z <= len(ELEMENTS):
            twin = ELEMENTS[z - 1]
            found = PERMITTED_VALENCES.get(twin, _ISOELECTRONIC_ONLY.get(twin))
            if found is not None:
                return found
    return tuple(v + charge for v in base if v + charge >= 0)


# Per bond order value: (bond_electrons, symbol, sort_key) of its member.
_BOND_TRAITS = {
    "single": (1, "-", 0),
    "double": (2, "=", 1),
    "triple": (3, "#", 2),
    "aromatic": (1, ":", 3),
}


class BondOrder(enum.Enum):
    """A bond order.  Each member carries plain attributes, so hot loops read
    them without a dict lookup that would call ``Enum.__hash__``:

    - ``bond_electrons``: the integer bond order used in valence accounting
      (aromatic counts 1; the extra aromatic contribution is resolved by
      kekulization);
    - ``symbol``: the SMILES bond symbol;
    - ``sort_key``: the member's position among the four, 0 to 3.
    """

    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"

    def __init__(self, value: str) -> None:
        self.bond_electrons, self.symbol, self.sort_key = _BOND_TRAITS[value]


@checked
class Atom(NamedTuple):
    """One atom: element symbol, aromatic flag, charge, isotope, hydrogens.

    ``hydrogens`` is the total attached hydrogen count, whether brackets
    wrote it or the parser inferred it.  How the atom was spelled is not
    kept (the parser's draft atoms record that), so ``CC`` and
    ``[CH3][CH3]`` parse to equal atoms.  Construction and ``_replace``
    refuse an unknown element symbol.
    """

    element: str
    is_aromatic: bool = False
    formal_charge: int = 0
    isotope: int | None = None
    hydrogens: int = 0

    def _check(self) -> None:
        if self.element not in ELEMENT_SYMBOLS:
            raise ValueError(f"unrecognized element symbol {self.element!r}")

    @property
    def symbol(self) -> str:
        """Element symbol as written in SMILES (lowercase when aromatic)."""
        return self.element.lower() if self.is_aromatic else self.element


class Bond(NamedTuple):
    """Undirected bond between two atom indices; ``Molecule`` checks them."""

    a: int
    b: int
    order: BondOrder = BondOrder.SINGLE


class Molecule(Frozen):
    """Immutable molecular graph with fragments and, on demand, rings.

    ``rings`` holds the smallest set of smallest rings (SSSR), exactly the
    cyclomatic number of them.  Each ring is an atom-index cycle that starts
    at its lowest atom and runs towards that atom's lower ring neighbour, and
    the rings are sorted by (length, atoms).  Where the minimum cycle basis
    is not unique, which one is chosen depends on the atom indices.
    ``rings.ring_bonds`` gives each ring's bonds in the same order.
    ``rings`` is perceived by ``sssr`` on first read; ``ring_atoms`` and
    ``bridges`` need no SSSR.  ``fragments`` holds one sorted atom-index
    tuple per connected component, which the constructor does not work out.
    It raises ``ValueError`` for a self-bond, an out-of-range or repeated
    bond, fragment sizes that do not sum to the atom count, or ``rings``,
    when given, not numbering bonds - atoms + fragments, so a molecule
    built by hand passes ``connected_components`` and ``sssr``.
    ``parse_notes`` records information discarded during parsing (stereo
    markers, atom maps, bond directions).  ``failures`` holds the valence
    and kekulization failures the parser found (empty for a valid
    molecule).  Neither takes part in equality or hashing, which compare
    the graph alone (atoms, bonds and fragments; the bonds fix the rings):
    ``CC=CC`` and ``C/C=C/C`` parse to equal molecules.
    ``rings``, ``view`` and ``bridges``, when given, fill the caches of
    ``rings``, ``neighbor_view`` and ``bridges``, and must be what those
    would compute; the parser passes the ones it built so the molecule does
    not build them again.  ``len`` is the atom count.
    """

    _FIELDS = ("atoms", "bonds", "rings", "fragments", "parse_notes", "failures")

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    fragments: tuple[tuple[int, ...], ...]
    parse_notes: tuple[str, ...]
    failures: tuple[ValidityFailure, ...]

    def __init__(
        self,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        rings: tuple[tuple[int, ...], ...] | None = None,
        fragments: tuple[tuple[int, ...], ...] = (),
        parse_notes: tuple[str, ...] = (),
        failures: tuple[ValidityFailure, ...] = (),
        view: NeighborView | None = None,
        bridges: frozenset[int] | None = None,
    ) -> None:
        n = len(atoms)
        seen: set[tuple[int, int]] = set()
        for bond in bonds:
            a, b = bond.a, bond.b
            if a == b:
                raise ValueError("bond endpoints must be distinct")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("bond endpoint out of range")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise ValueError(f"duplicate bond between atoms {key}")
            seen.add(key)
        if sum(map(len, fragments)) != n:
            raise ValueError("fragment sizes must sum to the atom count")
        fields = vars(self)
        fields.update(
            atoms=atoms, bonds=bonds, fragments=fragments,
            parse_notes=parse_notes, failures=failures,
        )
        if rings is not None and len(rings) != self.cyclomatic_number:
            raise ValueError("rings must number bonds - atoms + fragments")
        for name, cached in (
            ("rings", rings), ("neighbor_view", view), ("bridges", bridges)
        ):
            if cached is not None:
                fields[name] = cached

    def _graph(self) -> tuple:
        return (self.atoms, self.bonds, self.fragments)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._graph() == other._graph()

    def __hash__(self) -> int:
        return hash(self._graph())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"Molecule({shown})"

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def cyclomatic_number(self) -> int:
        """bonds - atoms + fragments: how many rings ``rings`` holds."""
        return len(self.bonds) - len(self.atoms) + len(self.fragments)

    @cached_property
    def neighbor_view(self) -> NeighborView:
        """``neighbor_view`` of this molecule's bonds, built on first use
        unless the constructor was given it."""
        return neighbor_view(len(self.atoms), self.bonds)

    @cached_property
    def bridges(self) -> frozenset[int]:
        """Indices of the bonds on no cycle, found by ``find_bridges`` on
        first use unless the constructor was given them."""
        from .rings import find_bridges  # rings imports this module

        return find_bridges(self.neighbor_view)

    @cached_property
    def rings(self) -> tuple[tuple[int, ...], ...]:
        """The SSSR (see the class docstring), perceived by ``sssr`` on
        first read unless the constructor was given it."""
        if not self.cyclomatic_number:
            return ()
        from .rings import sssr

        return sssr(self.bonds, self.neighbor_view, self.fragments, self.bridges)

    @cached_property
    def ring_atoms(self) -> frozenset[int]:
        """Atoms lying on at least one cycle: the atoms on non-bridge bonds.

        Every bond that is not a bridge lies on a cycle of the SSSR basis,
        so these are exactly the atoms of the SSSR rings, even where the
        choice of SSSR rings is ambiguous, and finding them needs no SSSR.
        """
        if not self.cyclomatic_number:
            return frozenset()
        bridges = self.bridges
        return frozenset(
            idx
            for k, bond in enumerate(self.bonds)
            if k not in bridges
            for idx in (bond.a, bond.b)
        )

    def degree(self, idx: int) -> int:
        return len(self.neighbor_view[idx])


NeighborView = tuple[tuple[tuple[int, int], ...], ...]


def neighbor_view(n_atoms: int, bonds: tuple[Bond, ...]) -> NeighborView:
    """Per atom, its (neighbour, bond index) pairs in bond order.

    The bond index rather than the Bond keeps a view valid after aromatize,
    which rewrites bond orders but keeps each bond at its position.
    """
    view: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for k, bond in enumerate(bonds):
        view[bond.a].append((bond.b, k))
        view[bond.b].append((bond.a, k))
    return tuple(tuple(pairs) for pairs in view)


class ValidityFailure(NamedTuple):
    """One validity violation; atom_index is None for whole-string failures."""

    atom_index: int | None
    reason: str


class ValidityReport(NamedTuple):
    """A validity verdict: valid when no failure was found."""

    failures: tuple[ValidityFailure, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:  # the printed form names the verdict too
        return (
            f"ValidityReport(is_valid={self.is_valid}, failures={self.failures!r})"
        )
