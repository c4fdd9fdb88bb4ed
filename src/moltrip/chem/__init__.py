"""SMILES chemistry substrate: parsing, validity, rings, canonical form."""

from __future__ import annotations

from .canon import canonical_ranks, canonical_smiles, render_random
from .model import (
    AROMATIC_ELEMENTS,
    ELEMENT_SYMBOLS,
    ORGANIC_SUBSET,
    PERMITTED_VALENCES,
    Atom,
    Bond,
    BondOrder,
    Molecule,
    ValidityFailure,
    ValidityReport,
    permitted_valences,
)
from .parser import (
    AromaticBondMismatch,
    DanglingBond,
    EmptyInput,
    MoleculeTooLarge,
    RingBondConflict,
    SmilesError,
    UnbalancedParenthesis,
    UnclosedRing,
    UnknownToken,
    build_molecule,
    check_validity,
    parse_smiles,
    scan_smiles,
)
from .rings import connected_components, cyclomatic_number, sssr


def canonicalize(text: str) -> str:
    """Parse a SMILES string and return its canonical form."""
    return canonical_smiles(parse_smiles(text))


__all__ = [
    "AROMATIC_ELEMENTS",
    "AromaticBondMismatch",
    "Atom",
    "Bond",
    "BondOrder",
    "DanglingBond",
    "ELEMENT_SYMBOLS",
    "EmptyInput",
    "Molecule",
    "MoleculeTooLarge",
    "ORGANIC_SUBSET",
    "PERMITTED_VALENCES",
    "RingBondConflict",
    "SmilesError",
    "UnbalancedParenthesis",
    "UnclosedRing",
    "UnknownToken",
    "ValidityFailure",
    "ValidityReport",
    "build_molecule",
    "canonical_ranks",
    "canonical_smiles",
    "canonicalize",
    "check_validity",
    "connected_components",
    "cyclomatic_number",
    "parse_smiles",
    "permitted_valences",
    "render_random",
    "scan_smiles",
    "sssr",
]
