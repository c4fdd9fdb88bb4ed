"""Molecular fingerprints: Morgan environments, linear paths, structural keys.

Every family maps a molecule to an unfolded set of 64-bit integer feature
identifiers; similarity between two sets of the same family is the Tanimoto
(Jaccard) coefficient.  Identifiers come from a fixed FNV-1a 64-bit hash over
type-framed tokens, so values are stable across platforms and releases.

FNV-1a costs a Python step per byte, and the same token sequences recur
within a molecule and across molecules: path readings, Morgan environments
and atom types.  So each of the two hashed families reads its ids from one
functools.lru_cache, the two together capped at STATE_MEMO_SIZE entries.
A path reading the cache lacks extends the cached hash of a prefix, so a
new path of the default length hashes only its last bond; an atom type or
environment is hashed whole, in time linear in its size.  Structural keys
hash nothing: one pass over the molecule builds the summary that all 64
catalog predicates read.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from .chem import ELEMENT_SYMBOLS, Atom, BondOrder, Molecule, MoleculeTooLarge
from .chem.model import NeighborView
from .chem.rings import ring_bonds
from .records import Frozen

DEFAULT_MORGAN_RADIUS = 2
DEFAULT_PATH_LENGTH = 7
# The most paths path_features reads before giving up on a molecule; drug-like
# molecules of up to 45 heavy atoms have at most about 1,100 of 1..7 bonds.
MAX_PATHS = 100_000
# The most ids the two hash caches keep together.  Three rounds of the
# drug-like evaluation benchmark (eval_pairs(0..2), 126 valid molecules)
# read 2,297 distinct atom types and environments and 7,902 distinct path
# readings and prefixes, more than the whole cap.  The Morgan cache takes
# the 2,297 rounded up to 2,304, so a second pass over those molecules
# hashes no environment again; a lost path reading costs one bond's hash
# when its prefix is kept, and the path cache takes the rest.
STATE_MEMO_SIZE = 8192
_MORGAN_MEMO_SIZE = 2304

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class FamilyMismatch(ValueError):
    """Tanimoto requested between feature sets of different family/params."""


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
    # the loop of _fnv1a, repeated rather than called: every draw and every
    # fingerprint hash passes here, and a second frame per call would show
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _fnv1a(h: int, data: bytes) -> int:
    """Continue FNV-1a from state h over bytes already framed."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


# stable_hash(*parts): FNV-1a over a type-framed byte encoding of the parts.
# A partial, not a wrapper function, because it is the innermost call of
# every fingerprint and a second Python frame per call would show there.
stable_hash = functools.partial(extend_hash, _FNV_OFFSET)


class FeatureSet(Frozen):
    """Immutable set of integer feature identifiers for one family; ``len``
    is the feature count."""

    __slots__ = ("features", "family", "params")

    features: frozenset[int]
    family: str  # one of: structural_keys, path, morgan
    params: tuple[int, ...]

    def __init__(
        self, features: frozenset[int], family: str, params: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def _key(self) -> tuple:
        return (self.features, self.family, self.params)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"FeatureSet(features={self.features!r}, family={self.family!r},"
            f" params={self.params!r})"
        )

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


# ---------------------------------------------------------------------------
# memoised feature ids

# Path readings draw every token from this fixed set, so path_features
# spells a reading as a str with one character per token, the token's index
# here.  Element symbols and bond orders are each listed in sorted order, so
# comparing two spellings compares the readings, and reversing a spelling
# (all but its head) reverses the reading.
_PATH_TOKENS = (
    "path",
    *sorted(ELEMENT_SYMBOLS),
    *sorted(order.value for order in BondOrder),
)
_PATH_CODE = {token: chr(index) for index, token in enumerate(_PATH_TOKENS)}
# each code's token in stable_hash's framing, so a spelled reading skips
# extend_hash's framing
_PATH_FRAMED = {
    code: b"s" + token.encode() + b";" for token, code in _PATH_CODE.items()
}


@functools.lru_cache(maxsize=STATE_MEMO_SIZE - _MORGAN_MEMO_SIZE)
def _path_hash(reading: str) -> int:
    """stable_hash of the tokens of a reading spelled in _PATH_CODE.

    The hash extends the cached hash of a prefix: the reading one bond
    shorter, so a new path of up to DEFAULT_PATH_LENGTH bonds hashes only
    its last bond.  A longer reading extends its longest prefix made of
    whole blocks of 2 * DEFAULT_PATH_LENGTH tokens, so a miss recurses one
    frame per block, not per bond: 71 frames for a reading of 446 bonds, the
    longest that MAX_PATHS allows.  Each frame also takes a C call of the cache, so
    one per bond would fill most of the default recursion limit.
    """
    if not reading:
        return _FNV_OFFSET
    cut = len(reading) - 2
    block = 2 * DEFAULT_PATH_LENGTH  # tokens
    if cut > block:
        cut -= cut % block
    return _fnv1a(
        _path_hash(reading[:cut]),
        b"".join(map(_PATH_FRAMED.__getitem__, reading[cut:])),
    )


# _morgan_hash(*tokens): stable_hash of an atom type or an environment,
# memoised whole; typed, because True == 1 as a key but stable_hash frames
# bools and ints apart
_morgan_hash = functools.lru_cache(maxsize=_MORGAN_MEMO_SIZE, typed=True)(
    stable_hash
)


def _bonded(mol: Molecule) -> list[list[tuple[int, str]]]:
    """Per atom, (neighbour, bond order value) in neighbour-view order."""
    orders = [bond.order.value for bond in mol.bonds]
    return [[(j, orders[k]) for j, k in pairs] for pairs in mol.neighbor_view]


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
    ring_atoms = mol.ring_atoms
    ids = [
        _morgan_hash(
            "atom",
            atom.element,
            mol.degree(i),
            atom.hydrogens,
            atom.formal_charge,
            i in ring_atoms,
        )
        for i, atom in enumerate(mol.atoms)
    ]
    features = set(ids)
    bonded = _bonded(mol)
    for _ in range(radius):
        next_ids = []
        for i, pairs in enumerate(bonded):
            tokens: list[int | str] = ["env", ids[i]]
            for pair in sorted([(order, ids[j]) for j, order in pairs]):
                tokens += pair
            next_ids.append(_morgan_hash(*tokens))
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
    extends only the forward reading, one bond per step, and reads each
    path once, from its lower-indexed end, into a set of readings: memory
    grows with the distinct readings, not with the paths.  The reverse
    reading is built only for each distinct reading kept.  A separate count
    of the paths read bounds the walk: more than MAX_PATHS paths raise
    MoleculeTooLarge, so a dense graph fails in bounded time instead of
    walking its exponentially many paths.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    elements = [_PATH_CODE[atom.element] for atom in mol.atoms]
    # per atom, (neighbour, bond order and neighbour element spelled): what
    # a step adds to a reading
    steps = [
        [(j, _PATH_CODE[order] + elements[j]) for j, order in pairs]
        for pairs in _bonded(mol)
    ]
    # distinct spelled forward readings ("path", element, order, element,
    # ...) of the paths kept, each read from its lower-indexed end, and the
    # count of those paths, repeats included, that MAX_PATHS bounds
    readings: set[str] = set()
    paths = 0
    head = _PATH_CODE["path"]
    on_path = [False] * len(elements)
    for start, element in enumerate(elements):
        on_path[start] = True
        # one frame per atom on the path: the atom, its untried steps, and
        # the reading of the path ending there
        stack = [(start, iter(steps[start]), head + element)]
        while stack:
            atom, untried, forward = stack[-1]
            bonds = len(stack)  # of the paths this frame's steps make
            for nbr, step in untried:
                if on_path[nbr]:
                    continue
                longer = forward + step
                if nbr > start:
                    readings.add(longer)
                    paths += 1
                if bonds < max_len - 1:
                    on_path[nbr] = True
                    stack.append((nbr, iter(steps[nbr]), longer))
                    break
                if bonds < max_len:
                    # the last bond: read the paths it ends without a frame
                    for end, last in steps[nbr]:
                        if end > start and not on_path[end]:
                            readings.add(longer + last)
                            paths += 1
            else:
                stack.pop()
                on_path[atom] = False
                if paths > MAX_PATHS:
                    break
        if paths > MAX_PATHS:
            raise MoleculeTooLarge(
                f"more than {MAX_PATHS} paths of up to {max_len} bonds"
            )
    features = set()
    for forward in readings:
        reverse = head + forward[:0:-1]
        features.add(_path_hash(forward if forward <= reverse else reverse))
    return FeatureSet(frozenset(features), "path", (max_len,))


# ---------------------------------------------------------------------------
# structural key catalog (64 keys; the table ships in docs/structural_keys.md)

def structural_keys(mol: Molecule) -> FeatureSet:
    """Subset of the fixed 64-key catalog firing for this molecule.

    Identifiers are the catalog indices 0..63; the catalog covers element
    presence, ring sizes 3-8, aromaticity, charges, degree patterns, small
    functional groups, and heteroatom pairs within four bonds.  Every
    predicate reads one _KeySummary of the molecule, built in time linear
    in its size.
    """
    summary = _KeySummary(mol)
    fired = {
        index for index, (_, predicate) in enumerate(KEY_CATALOG) if predicate(summary)
    }
    return FeatureSet(frozenset(fired), "structural_keys", ())


_HETERO_PAIR_ELEMENTS = ("N", "O", "S")
_HETERO_PAIR_BONDS = 4


class _KeySummary:
    """What the key predicates read of one molecule."""

    __slots__ = (
        "elements", "aromatic_elements", "hydrogen_elements", "degrees",
        "carbons", "isotope", "charge_signs", "net_charge", "bonds", "rings",
        "ring_sizes", "fused", "heterocycle", "aromatic_rings", "fragments",
        "hetero_pairs",
    )

    def __init__(self, mol: Molecule) -> None:
        """Summarise mol in time linear in its size."""
        atoms, bonds, view = mol.atoms, mol.bonds, mol.neighbor_view
        elements = [atom.element for atom in atoms]
        charges = [atom.formal_charge for atom in atoms]
        self.elements = set(elements)
        self.aromatic_elements = {a.element for a in atoms if a.is_aromatic}
        # elements of atoms carrying hydrogens
        self.hydrogen_elements = {a.element for a in atoms if a.hydrogens >= 1}
        # (element, heavy degree) of each atom
        self.degrees = {(a.element, len(view[i])) for i, a in enumerate(atoms)}
        # carbon kinds present: "sp3", "sp2", "sp", "methyl"
        self.carbons = set()
        for i, atom in enumerate(atoms):
            if atom.element == "C":
                orders = [bonds[k].order for _, k in view[i]]
                self.carbons.update(_carbon_kinds(atom, orders))
        self.isotope = any(atom.isotope is not None for atom in atoms)
        # signs of the nonzero formal charges
        self.charge_signs = {(c > 0) - (c < 0) for c in charges if c}
        self.net_charge = sum(charges)
        # (element, element, order value) of each bond, elements sorted, and
        # the same with order None, which stands for any order
        self.bonds = set()
        for bond in bonds:
            pair = tuple(sorted((elements[bond.a], elements[bond.b])))
            self.bonds.update(((*pair, bond.order.value), (*pair, None)))
        self.rings = len(mol.rings)
        self.ring_sizes = set(map(len, mol.rings))
        self.fused = False
        self.aromatic_rings = 0
        # bond indices: the aromatic bonds, and the bonds of the rings so far
        aromatic = {k for k, b in enumerate(bonds) if b.order is BondOrder.AROMATIC}
        ring_edges: set[int] = set()
        for ring in mol.rings:
            edges = set(ring_bonds(ring, view))
            self.fused = self.fused or not ring_edges.isdisjoint(edges)
            ring_edges |= edges
            self.aromatic_rings += edges <= aromatic
        self.heterocycle = any(elements[i] != "C" for ring in mol.rings for i in ring)
        self.fragments = len(mol.fragments)
        # sorted element pairs of two N, O or S atoms within four bonds
        self.hetero_pairs = _hetero_pairs(elements, view)


def _carbon_kinds(atom: Atom, orders: list[BondOrder]) -> list[str]:
    """The kinds a carbon counts as, from its bond-order profile."""
    kinds = []
    double = orders.count(BondOrder.DOUBLE)
    triple = BondOrder.TRIPLE in orders
    if not atom.is_aromatic:
        if all(order is BondOrder.SINGLE for order in orders):
            kinds.append("sp3")
        if double == 1 and not triple:
            kinds.append("sp2")
    if triple or double >= 2:
        kinds.append("sp")
    if len(orders) == 1 and atom.hydrogens == 3:
        kinds.append("methyl")
    return kinds


def _hetero_pairs(elements: list[str], view: NeighborView) -> set[tuple[str, str]]:
    """Sorted element pairs of two N, O or S atoms at most four bonds apart.

    One ball of radius four around each N, O or S atom, reading only the
    atoms it reaches, so the cost is linear in the molecule's size.
    """
    pairs = set()
    for src, element in enumerate(elements):
        if element not in _HETERO_PAIR_ELEMENTS:
            continue
        ball = {src}
        frontier = [src]
        for _ in range(_HETERO_PAIR_BONDS):
            reached = []
            for x in frontier:
                for y, _ in view[x]:
                    if y not in ball:
                        ball.add(y)
                        reached.append(y)
            frontier = reached
        for j in ball:
            if j != src and elements[j] in _HETERO_PAIR_ELEMENTS:
                pairs.add(tuple(sorted((element, elements[j]))))
    return pairs


_HALOGENS = ("F", "Cl", "Br", "I")
_ORGANIC_AND_H = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "H"}
_CARBON_HALOGEN = {(*sorted(("C", x)), None) for x in _HALOGENS}


def _element_present(symbol: str):
    return lambda s: symbol in s.elements


def _ring_of_size(size: int):
    return lambda s: size in s.ring_sizes


def _has_bond(elem_a: str, order: BondOrder | None, elem_b: str):
    """A bond of the given order (any order when None) joins the two elements."""
    kind = (*sorted((elem_a, elem_b)), None if order is None else order.value)
    return lambda s: kind in s.bonds


KEY_CATALOG: tuple[tuple[str, Callable[[_KeySummary], bool]], ...] = (
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
    ("any halogen", lambda s: not s.elements.isdisjoint(_HALOGENS)),
    ("any heteroatom", lambda s: bool(s.elements - {"C", "H"})),
    ("exotic element", lambda s: bool(s.elements - _ORGANIC_AND_H)),
    ("isotope label", lambda s: s.isotope),
    ("any ring", lambda s: s.rings > 0),
    ("3-ring", _ring_of_size(3)),
    ("4-ring", _ring_of_size(4)),
    ("5-ring", _ring_of_size(5)),
    ("6-ring", _ring_of_size(6)),
    ("7-ring", _ring_of_size(7)),
    ("8-ring", _ring_of_size(8)),
    ("two or more rings", lambda s: s.rings >= 2),
    ("fused rings", lambda s: s.fused),
    ("heterocycle", lambda s: s.heterocycle),
    ("aromatic atom", lambda s: bool(s.aromatic_elements)),
    ("aromatic ring", lambda s: s.aromatic_rings >= 1),
    ("aromatic nitrogen", lambda s: "N" in s.aromatic_elements),
    ("aromatic oxygen", lambda s: "O" in s.aromatic_elements),
    ("aromatic sulfur", lambda s: "S" in s.aromatic_elements),
    ("two or more aromatic rings", lambda s: s.aromatic_rings >= 2),
    ("positive charge", lambda s: 1 in s.charge_signs),
    ("negative charge", lambda s: -1 in s.charge_signs),
    ("both charges", lambda s: len(s.charge_signs) == 2),
    ("nonzero net charge", lambda s: s.net_charge != 0),
    ("sp3 carbon", lambda s: "sp3" in s.carbons),
    ("sp2 carbon", lambda s: "sp2" in s.carbons),
    ("sp carbon", lambda s: "sp" in s.carbons),
    ("quaternary carbon", lambda s: ("C", 4) in s.degrees),
    ("three-connected carbon", lambda s: ("C", 3) in s.degrees),
    ("methyl group", lambda s: "methyl" in s.carbons),
    ("branching atom", lambda s: any(d >= 3 for _, d in s.degrees)),
    ("four-connected atom", lambda s: any(d >= 4 for _, d in s.degrees)),
    ("terminal heteroatom", lambda s: any(
        e != "C" and d == 1 for e, d in s.degrees
    )),
    ("multiple fragments", lambda s: s.fragments >= 2),
    ("carbonyl C=O", _has_bond("C", BondOrder.DOUBLE, "O")),
    ("alkene C=C", _has_bond("C", BondOrder.DOUBLE, "C")),
    ("alkyne C#C", _has_bond("C", BondOrder.TRIPLE, "C")),
    ("nitrile C#N", _has_bond("C", BondOrder.TRIPLE, "N")),
    ("imine C=N", _has_bond("C", BondOrder.DOUBLE, "N")),
    ("N bonded to O", _has_bond("N", None, "O")),
    ("S=O", _has_bond("S", BondOrder.DOUBLE, "O")),
    ("P=O", _has_bond("P", BondOrder.DOUBLE, "O")),
    ("hydroxyl O-H", lambda s: "O" in s.hydrogen_elements),
    ("N-H", lambda s: "N" in s.hydrogen_elements),
    ("S-H", lambda s: "S" in s.hydrogen_elements),
    ("two-connected oxygen", lambda s: ("O", 2) in s.degrees),
    ("multi-connected nitrogen", lambda s: any(
        e == "N" and d >= 2 for e, d in s.degrees
    )),
    ("halogen on carbon", lambda s: not s.bonds.isdisjoint(_CARBON_HALOGEN)),
    ("N..N within 4 bonds", lambda s: ("N", "N") in s.hetero_pairs),
    ("N..O within 4 bonds", lambda s: ("N", "O") in s.hetero_pairs),
    ("N..S within 4 bonds", lambda s: ("N", "S") in s.hetero_pairs),
    ("O..O within 4 bonds", lambda s: ("O", "O") in s.hetero_pairs),
    ("O..S within 4 bonds", lambda s: ("O", "S") in s.hetero_pairs),
    ("S..S within 4 bonds", lambda s: ("S", "S") in s.hetero_pairs),
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
