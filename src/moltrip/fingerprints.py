"""Molecular fingerprints: Morgan environments, linear paths, structural keys.

Every family maps a molecule to an unfolded set of 64-bit integer feature
identifiers; similarity between two sets of the same family is the Tanimoto
(Jaccard) coefficient.  Identifiers come from a fixed FNV-1a 64-bit hash over
type-framed tokens, so values are stable across platforms and releases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .chem import BondOrder, Molecule, SmilesError

DEFAULT_MORGAN_RADIUS = 2
DEFAULT_PATH_LENGTH = 7
# The most paths path_features reads before giving up on a molecule; drug-like
# molecules of up to 45 heavy atoms have at most about 1,100 of 1..7 bonds.
MAX_PATHS = 100_000

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class FamilyMismatch(ValueError):
    """Tanimoto requested between feature sets of different family/params."""


class MoleculeTooLarge(SmilesError):
    """The molecule has more than MAX_PATHS paths to fingerprint."""


def extend_hash(h: int, *parts: int | str) -> int:
    """Continue FNV-1a from state h over more parts.

    FNV-1a has no finalisation step, so its state after a prefix is the hash
    of that prefix: extend_hash(stable_hash(*a), *b) == stable_hash(*a, *b).
    """
    data = bytearray()
    for part in parts:
        if isinstance(part, bool):
            data += b"b" + (b"1" if part else b"0") + b";"
        elif isinstance(part, int):
            data += b"i" + str(part).encode() + b";"
        elif isinstance(part, str):
            data += b"s" + part.encode() + b";"
        else:
            raise TypeError(f"unhashable token type {type(part).__name__}")
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


# stable_hash(*parts): FNV-1a over a type-framed byte encoding of the parts.
# A partial, not a wrapper function, because it is the innermost call of
# every fingerprint and a second Python frame per call would show there.
stable_hash = functools.partial(extend_hash, _FNV_OFFSET)


@dataclass(frozen=True)
class FeatureSet:
    """Immutable set of integer feature identifiers for one family."""

    features: frozenset[int]
    family: str  # one of: structural_keys, path, morgan
    params: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.features)


def tanimoto(a: FeatureSet, b: FeatureSet) -> float:
    """Set Jaccard over identifiers; both-empty pairs count as 1.0."""
    if a.family != b.family or a.params != b.params:
        raise FamilyMismatch(
            f"cannot compare {a.family}{a.params} with {b.family}{b.params}"
        )
    if not a.features and not b.features:
        return 1.0
    return len(a.features & b.features) / len(a.features | b.features)


def _bonded(mol: Molecule) -> list[list[tuple[int, str]]]:
    """Per atom, (neighbour, bond order value) in neighbour-view order."""
    bonds = mol.bonds
    return [
        [(j, bonds[k].order.value) for j, k in pairs] for pairs in mol.neighbor_view
    ]


# ---------------------------------------------------------------------------
# Morgan circular environments

def morgan_features(mol: Molecule, radius: int = DEFAULT_MORGAN_RADIUS) -> FeatureSet:
    """Environment identifiers for every atom at every radius 0..radius.

    Radius-0 identifiers hash (element, degree, hydrogens, charge, ring
    flag); each iteration hashes the previous identifier with the sorted
    multiset of (bond order, neighbor identifier).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ids = [
        stable_hash(
            "atom",
            atom.element,
            mol.degree(i),
            atom.hydrogens,
            atom.formal_charge,
            i in mol.ring_atoms,
        )
        for i, atom in enumerate(mol.atoms)
    ]
    features = set(ids)
    bonded = _bonded(mol)
    for _ in range(radius):
        next_ids = []
        for i, pairs in enumerate(bonded):
            env = sorted((order_value, ids[j]) for j, order_value in pairs)
            tokens: list[int | str] = ["env", ids[i]]
            for order_value, neighbor_id in env:
                tokens.append(order_value)
                tokens.append(neighbor_id)
            next_ids.append(stable_hash(*tokens))
        ids = next_ids
        features.update(ids)
    return FeatureSet(frozenset(features), "morgan", (radius,))


# ---------------------------------------------------------------------------
# linear path features

def path_features(mol: Molecule, max_len: int = DEFAULT_PATH_LENGTH) -> FeatureSet:
    """Identifiers for all simple paths of 1..max_len bonds.

    A path reads as the (element, bond order) token sequence; the
    lexicographically smaller of the forward and reverse readings is hashed
    as stable_hash("path", *tokens), so direction never matters.  The walk
    extends both readings by one bond per step and counts and hashes each
    path once, from its lower-indexed end.  More than MAX_PATHS paths raise
    MoleculeTooLarge, so a dense graph fails in bounded time instead of
    walking its exponentially many paths.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    elements = [atom.element for atom in mol.atoms]
    steps = _bonded(mol)
    # FNV-1a state after ("path", *tokens) for every reading hashed so far
    # and its prefixes, so a new reading hashes only the bonds it adds
    head = stable_hash("path")
    states = {(element,): extend_hash(head, element) for element in set(elements)}
    features: set[int] = set()
    on_path = [False] * len(elements)
    emitted = 0
    for start, element in enumerate(elements):
        on_path[start] = True
        # one frame per atom on the path: the atom, its untried bonds, and
        # the forward and reverse readings of the path ending there
        stack = [(start, iter(steps[start]), (element,), (element,))]
        while stack:
            atom, bonds, forward, reverse = stack[-1]
            for nbr, order in bonds:
                if on_path[nbr]:
                    continue
                fwd = forward + (order, elements[nbr])
                rev = (elements[nbr], order) + reverse
                if nbr > start:
                    emitted += 1
                    if emitted > MAX_PATHS:
                        raise MoleculeTooLarge(
                            f"more than {MAX_PATHS} paths of up to {max_len} bonds"
                        )
                    tokens = fwd if fwd <= rev else rev
                    features.add(states.get(tokens) or _path_state(states, tokens))
                if len(stack) < max_len:
                    on_path[nbr] = True
                    stack.append((nbr, iter(steps[nbr]), fwd, rev))
                    break
            else:
                stack.pop()
                on_path[atom] = False
    return FeatureSet(frozenset(features), "path", (max_len,))


def _path_state(states: dict[tuple[str, ...], int], tokens: tuple[str, ...]) -> int:
    """Hash state of a reading, extended from its longest memoised prefix."""
    pending = []
    while tokens not in states:
        pending.append(tokens)
        tokens = tokens[:-2]
    state = states[tokens]
    for prefix in reversed(pending):
        state = states[prefix] = extend_hash(state, prefix[-2], prefix[-1])
    return state


# ---------------------------------------------------------------------------
# structural key catalog (64 keys; the table ships in docs/structural_keys.md)

def structural_keys(mol: Molecule) -> FeatureSet:
    """Subset of the fixed 64-key catalog firing for this molecule.

    Identifiers are the catalog indices 0..63; the catalog covers element
    presence, ring sizes 3-8, aromaticity, charges, degree patterns, small
    functional groups, and heteroatom pairs within four bonds.
    """
    fired = {
        index for index, (_, predicate) in enumerate(KEY_CATALOG) if predicate(mol)
    }
    return FeatureSet(frozenset(fired), "structural_keys", ())


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


KEY_CATALOG: tuple[tuple[str, object], ...] = (
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

assert len(KEY_CATALOG) == 64

KEY_NAMES: tuple[str, ...] = tuple(name for name, _ in KEY_CATALOG)


# ---------------------------------------------------------------------------
# textual dump for golden tests and the CLI

_PARAM_LABEL = {"morgan": "radius", "path": "max_len"}


def dump_features(fs: FeatureSet) -> str:
    """Stable textual form: family, params, count, then sorted hex ids."""
    if fs.params:
        label = _PARAM_LABEL.get(fs.family, "param")
        param_text = ",".join(f"{label}={p}" for p in fs.params)
    else:
        param_text = "-"
    lines = [f"family={fs.family} params={param_text} count={len(fs.features)}"]
    lines.extend(f"0x{f:016x}" for f in sorted(fs.features))
    return "\n".join(lines)
