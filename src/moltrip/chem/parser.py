"""SMILES parsing: grammar scan, graph assembly, and validity checking.

``parse_smiles`` is a scan, then a build.  ``scan_smiles`` reads the string
into draft atoms (element, aromaticity as spelled, charge, isotope, bracket
hydrogens), ``Bond`` records in the order spelled, and parse notes, and
raises every grammar error there is; ``build_molecule`` keeps those bonds,
adds fragments, aromatic normalization, hydrogens and the valence verdict,
and raises none; it perceives rings only where aromatic normalization
needs them.  A caller that can settle a question from the scan alone, as
``dataset.dedupe_overlap`` does from each molecule's formula and bond
count, builds only the molecules it still needs.

The grammar covers organic-subset atoms, bracket atoms (isotope, charge,
explicit hydrogens, atom maps), bond symbols ``- = # :``, directional bonds
``/ \\`` (read as single), branches, ring closures (digits and ``%nn``), and
dot-separated fragments.  Stereochemistry is parsed and discarded; every
discarded detail lands in the molecule's parse notes.
"""

from __future__ import annotations

import re

from .model import (
    AROMATIC_ELEMENTS,
    ELEMENT_SYMBOLS,
    Atom,
    Bond,
    BondOrder,
    Molecule,
    ValidityFailure,
    ValidityReport,
    neighbor_view,
)
from .rings import components, find_bridges, sssr
from .valence import _DraftAtom, analyze, aromatize, may_aromatize


class SmilesError(ValueError):
    """Base class for SMILES grammar violations; carries a text position."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)


class EmptyInput(SmilesError):
    pass


class UnknownToken(SmilesError):
    pass


class UnbalancedParenthesis(SmilesError):
    pass


class UnclosedRing(SmilesError):
    pass


class DanglingBond(SmilesError):
    """Bond or fragment separator with nothing to attach on one side."""


class RingBondConflict(SmilesError):
    """Ring closure that contradicts itself: mismatched bond orders,
    a self-bond, or a duplicate of an existing bond."""


class AromaticBondMismatch(SmilesError):
    """Explicit aromatic bond with a non-aromatic endpoint."""


class MoleculeTooLarge(SmilesError):
    """A molecule that a bounded layer refuses: more paths than
    ``fingerprints.MAX_PATHS`` to fingerprint, or, in its canonical form or
    a ``render_random`` spelling, more ring closures open at once than the
    99 digits SMILES can spell."""


_BOND_CHARS = {order.symbol: order for order in BondOrder}

# Bare atom characters: (element, aromatic).  "Cl" and "Br" are read as two
# characters wherever they occur.
_BARE_ATOMS = {
    **{ch: (ch, False) for ch in "BCNOPSFI"},
    **{ch: (ch.upper(), True) for ch in "bcnops"},
}

_BRACKET_RE = re.compile(
    r"""\[
        (?P<isotope>\d{1,3})?
        (?P<symbol>[A-Z][a-z]?|as|se|te|[bcnops])
        (?P<chiral>@{1,2}(?:TH[12]|AL[12]|SP[1-3]|TB\d{1,2}|OH\d{1,2})?)?
        (?P<hcount>H\d{0,2})?
        (?P<charge>\+\d{1,2}|-\d{1,2}|\+{1,3}|-{1,3})?
        (?::(?P<map>\d+))?
        \]""",
    re.VERBOSE,
)


# A scan: the draft atoms, the bonds in the order spelled, and the notes.
Scan = tuple[list[_DraftAtom], list[Bond], list[str]]


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into an immutable Molecule.

    Aromatic normalization (Kekule rings rewritten to aromatic form),
    implicit-hydrogen assignment and the valence check happen here, once, so
    the returned graph is the one every downstream comparison sees and its
    ``failures`` are its validity verdict.
    """
    return build_molecule(scan_smiles(text))


def build_molecule(scan: Scan) -> Molecule:
    """The Molecule of a ``scan_smiles`` result, which it consumes: the
    draft atoms are normalized in place.  Raises no grammar error.

    Rings are perceived on demand.  A molecule with a cycle gets one bridge
    search, which its ``bridges`` and ``ring_atoms`` then read; the SSSR
    is found here only when ``may_aromatize`` says a Kekule ring might
    convert, and otherwise on the first read of ``Molecule.rings``.
    """
    drafts, bonds, notes = scan
    bond_tuple = tuple(bonds)
    view = neighbor_view(len(drafts), bond_tuple)
    fragments = components(view)
    rings = bridges = None
    if len(bond_tuple) - len(drafts) + len(fragments):  # a cycle
        bridges = find_bridges(view)
        if may_aromatize(bond_tuple, bridges):
            rings = sssr(bond_tuple, view, fragments, bridges)
            bond_tuple = aromatize(drafts, bond_tuple, rings, view)
    analysis = analyze(drafts, bond_tuple, view)
    atoms = tuple(
        Atom(a.element, a.is_aromatic, a.formal_charge, a.isotope, h)
        for a, h in zip(drafts, analysis.hydrogens)
    )
    return Molecule(
        atoms=atoms,
        bonds=bond_tuple,
        rings=rings,
        fragments=fragments,
        parse_notes=tuple(notes),
        failures=analysis.failures,
        view=view,
        bridges=bridges,
    )


def check_validity(text: str) -> ValidityReport:
    """Grammar plus valence check from one parse: a grammar error becomes a
    whole-string failure, else the report carries the molecule's failures."""
    try:
        failures = parse_smiles(text).failures
    except SmilesError as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return ValidityReport((ValidityFailure(None, reason),))
    return ValidityReport(failures)


def scan_smiles(text: str) -> Scan:
    """Read the grammar of a SMILES string into draft atoms, bonds and
    notes; raise the ``SmilesError`` that names the first violation."""
    stripped = text.strip()
    if not stripped:
        raise EmptyInput("empty SMILES string")

    atoms: list[_DraftAtom] = []
    bonds: list[Bond] = []
    notes: list[str] = []
    bond_keys: set[tuple[int, int]] = set()
    new_tuple = tuple.__new__
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}
    prev: int | None = None
    pending: BondOrder | None = None
    pending_pos = 0
    after_dot = False

    def add_bond(a: int, b: int, order: BondOrder | None, pos: int) -> None:
        if a == b:
            raise RingBondConflict("ring closure bonds an atom to itself", pos)
        key = (a, b) if a < b else (b, a)
        if key in bond_keys:
            raise RingBondConflict("duplicate bond between the same atoms", pos)
        if order is None:
            both_aromatic = atoms[a].is_aromatic and atoms[b].is_aromatic
            order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
        elif order is BondOrder.AROMATIC:
            if not (atoms[a].is_aromatic and atoms[b].is_aromatic):
                raise AromaticBondMismatch(
                    "aromatic bond requires aromatic atoms on both ends", pos
                )
        bond_keys.add(key)
        # as NamedTuple's _make builds it, skipping Bond's Python __new__
        bonds.append(new_tuple(Bond, (a, b, order)))

    def attach(atom: _DraftAtom, pos: int) -> None:
        nonlocal prev, pending, after_dot
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            add_bond(prev, idx, pending, pos)
        elif pending is not None:
            raise DanglingBond("bond symbol with no atom before it", pending_pos)
        prev = idx
        pending = None
        after_dot = False

    def close_ring(number: int, pos: int) -> None:
        nonlocal pending
        if prev is None:
            raise UnknownToken("ring closure before any atom", pos)
        if number in open_rings:
            other, opening_order, opening_pos = open_rings.pop(number)
            order = _resolve_ring_order(opening_order, pending, pos)
            add_bond(other, prev, order, pos)
        else:
            open_rings[number] = (prev, pending, pos)
        pending = None

    i = 0
    length = len(stripped)
    while i < length:
        ch = stripped[i]
        bare = _BARE_ATOMS.get(ch)  # the commonest token: tried first
        if bare is not None:
            element, aromatic = bare
            if stripped[i : i + 2] in ("Cl", "Br"):
                element = stripped[i : i + 2]
            attach(_DraftAtom(element, aromatic), i)
            i += len(element)
            continue
        if ch == "[":
            atom, width = _parse_bracket(stripped, i, notes)
            attach(atom, i)
            i += width
            continue
        if ch.isspace():
            raise UnknownToken("whitespace inside SMILES", i)
        if ch in _BOND_CHARS:
            if pending is not None:
                raise DanglingBond("consecutive bond symbols", i)
            pending = _BOND_CHARS[ch]
            pending_pos = i
            i += 1
            continue
        if ch in "/\\":
            if pending is not None:
                raise DanglingBond("consecutive bond symbols", i)
            notes.append(f"directional bond {ch!r} at position {i} read as single")
            pending = BondOrder.SINGLE
            pending_pos = i
            i += 1
            continue
        if ch == "(":
            if prev is None:
                raise UnbalancedParenthesis("branch opened before any atom", i)
            if pending is not None:
                raise DanglingBond("bond symbol before a branch opening", i)
            branch_stack.append(prev)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise UnbalancedParenthesis("branch closed without opening", i)
            if pending is not None:
                raise DanglingBond("bond symbol before a branch closing", i)
            prev = branch_stack.pop()
            i += 1
            continue
        if ch == ".":
            if branch_stack:
                raise UnknownToken("fragment separator inside a branch", i)
            if pending is not None:
                raise DanglingBond("bond symbol before a fragment separator", i)
            if prev is None:
                raise DanglingBond("fragment separator with no atom before it", i)
            prev = None
            after_dot = True
            i += 1
            continue
        if ch.isdigit():
            close_ring(int(ch), i)
            i += 1
            continue
        if ch == "%":
            digits = stripped[i + 1 : i + 3]
            if len(digits) != 2 or not digits.isdigit():
                raise UnknownToken("'%' ring closure needs two digits", i)
            close_ring(int(digits), i)
            i += 3
            continue
        raise UnknownToken(f"unexpected character {ch!r}", i)

    if pending is not None:
        raise DanglingBond("bond symbol at end of input", pending_pos)
    if after_dot:
        raise DanglingBond("fragment separator at end of input", length - 1)
    if branch_stack:
        raise UnbalancedParenthesis("unclosed branch at end of input", length - 1)
    if open_rings:
        number, (_, _, pos) = sorted(open_rings.items())[0]
        raise UnclosedRing(f"ring closure {number} never closed", pos)
    if not atoms:
        raise EmptyInput("SMILES contains no atoms")
    return atoms, bonds, notes


def _resolve_ring_order(
    opening: BondOrder | None, closing: BondOrder | None, pos: int
) -> BondOrder | None:
    if opening is None:
        return closing
    if closing is None or closing is opening:
        return opening
    raise RingBondConflict(
        f"ring bond order conflict: {opening.symbol} vs {closing.symbol}", pos
    )


def _parse_bracket(text: str, i: int, notes: list[str]) -> tuple[_DraftAtom, int]:
    match = _BRACKET_RE.match(text, i)
    if match is None:
        raise UnknownToken("malformed bracket atom", i)
    symbol = match.group("symbol")
    aromatic = symbol[0].islower()
    element = symbol.capitalize()
    if element not in ELEMENT_SYMBOLS:
        raise UnknownToken(f"unrecognized element {symbol!r}", i)
    if aromatic and element not in AROMATIC_ELEMENTS:
        raise UnknownToken(f"element {symbol!r} cannot be aromatic", i)

    isotope = int(match.group("isotope")) if match.group("isotope") else None
    hcount_text = match.group("hcount")
    if hcount_text is None:
        explicit_h = 0
    elif hcount_text == "H":
        explicit_h = 1
    else:
        explicit_h = int(hcount_text[1:])
    charge = _parse_charge(match.group("charge"))
    if match.group("chiral"):
        notes.append(
            f"stereo marker {match.group('chiral')!r} at position {i} ignored"
        )
    if match.group("map"):
        notes.append(f"atom map :{match.group('map')} at position {i} ignored")
    return (
        _DraftAtom(
            element=element,
            is_aromatic=aromatic,
            formal_charge=charge,
            explicit_h=explicit_h,
            isotope=isotope,
        ),
        match.end() - i,
    )


def _parse_charge(text: str | None) -> int:
    if not text:
        return 0
    sign = 1 if text[0] == "+" else -1
    rest = text[1:]
    if rest and rest[0].isdigit():
        return sign * int(rest)
    return sign * (1 + len(rest))
