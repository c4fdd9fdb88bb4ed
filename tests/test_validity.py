"""Validity reports: valence table, charge shifts, kekulization."""

from __future__ import annotations

import random
import sys
import time

import pytest

from moltrip.chem import (
    Atom,
    Bond,
    BondOrder,
    Molecule,
    MoleculeTooLarge,
    ValidityFailure,
    check_validity,
    connected_components,
    parse_smiles,
    render_random,
)
from moltrip.chem.valence import MAX_KEKULE_STEPS


@pytest.mark.parametrize(
    "text",
    [
        "CCO",
        "C",
        "O=C(O)c1ccccc1",
        "c1cc[nH]c1",
        "c1ccsc1",
        "C[n+]1ccccc1",
        "[NH4+]",
        "C[O-]",
        "OS(=O)(=O)O",
        "OP(=O)(O)O",
        "FS(F)(F)(F)(F)F",
        "[2H]O[2H]",
        "[Mg+2].[Cl-].[Cl-]",
        "CB(O)O",
        "CS(C)C",
    ],
)
def test_valid_strings(text):
    report = check_validity(text)
    assert report.is_valid, (text, report.failures)
    assert report.failures == ()


def test_pentavalent_carbon_reported_at_atom():
    report = check_validity("C(C)(C)(C)(C)C")
    assert not report.is_valid
    assert report.failures[0].atom_index == 0
    assert report.failures[0].reason == "valence 5 > max 4 for C"


def test_parse_failure_maps_to_invalid():
    report = check_validity("abc")
    assert not report.is_valid
    assert report.failures[0].atom_index is None
    assert "UnknownToken" in report.failures[0].reason


@pytest.mark.parametrize(
    "text",
    [
        "N(C)(C)(C)C",      # tetravalent neutral N
        "O(C)(C)C",         # trivalent neutral O
        "O1=CC=CC=C1",      # neutral O holding a ring double bond
        "c1ccnc1",          # bare pyrrole nitrogen cannot kekulize
        "c",                 # lone aromatic atom
        "FF(F)F",           # hypervalent fluorine
        "[CH5]",            # bracket H overload
        "[CH2]",            # carbene: valence 2 not in {4}
        "C(C)(C)(C)(C)C",
    ],
)
def test_invalid_strings(text):
    assert not check_validity(text).is_valid, text


def test_charge_shifts_permitted_valence():
    assert check_validity("[NH4+]").is_valid          # N+ allows 4
    assert check_validity("[O-]C").is_valid           # O- allows 1
    assert not check_validity("N(C)(C)(C)C").is_valid
    assert check_validity("C[N+](C)(C)C").is_valid
    assert check_validity("C[O+](C)C").is_valid       # O+ allows 3
    assert check_validity("[CH3-]").is_valid          # C- allows 3


def test_charge_shift_exact_membership():
    # N+ permits exactly 4: two bonds plus one H is 3, not permitted
    assert not check_validity("C[NH+]C").is_valid
    report = check_validity("[N+](C)(C)(C)(C)C")
    assert not report.is_valid
    assert "valence 5 > max 4 for N" in report.failures[0].reason


def test_every_violating_atom_listed():
    report = check_validity("C(C)(C)(C)(C)C(C)(C)(C)(C)C")
    assert not report.is_valid
    indices = {f.atom_index for f in report.failures}
    assert {0, 5} <= indices


def test_all_corpus_molecules_valid(corpus):
    for text in corpus:
        report = check_validity(text)
        assert report.is_valid, (text, report.failures)


def test_aromatic_rings_longer_than_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        report = check_validity("c1" + "c" * 398 + "c1")
    finally:
        sys.setrecursionlimit(limit)
    assert report.is_valid, report.failures


# ---------------------------------------------------------------------------
# aromatic systems with no Kekule structure, in bounded time

def _brick_walls(sheets: list[tuple[int, int]], joined: bool = False) -> str:
    """Honeycomb sheets of bare aromatic carbons, each ``width x height``:
    atom (x, y) bonds to (x + 1, y), and to (x, y + 1) when x + y is even.
    ``joined`` adds one aromatic carbon bonded to atom (1, 0) of each sheet.
    Spelled by ``render_random`` with ``Random(0)``."""
    bonds, n, anchors = [], 0, []
    for width, height in sheets:
        for y in range(height):
            for x in range(width):
                here = n + y * width + x
                if x + 1 < width:
                    bonds.append((here, here + 1))
                if (x + y) % 2 == 0 and y + 1 < height:
                    bonds.append((here, here + width))
        anchors.append(n + 1)
        n += width * height
    if joined:
        bonds += [(n, anchor) for anchor in anchors]
        n += 1
    degree = [0] * n
    for a, b in bonds:
        degree[a] += 1
        degree[b] += 1
    atoms = tuple(
        Atom("C", i, is_aromatic=True, hydrogens=3 - degree[i]) for i in range(n)
    )
    bond_tuple = tuple(Bond(a, b, BondOrder.AROMATIC) for a, b in bonds)
    mol = Molecule(atoms, bond_tuple, fragments=connected_components(n, bond_tuple))
    return render_random(mol, random.Random(0))


@pytest.mark.parametrize(
    "width,height,unmatched",
    [
        (11, 9, [30, 31, 56, 77, 80, 91, 92, 93, 94, 95, 98]),
        (11, 11, [46, 47, 54, 67, 84, 85, 86, 87, 110, 115, 118, 119, 120]),
        (11, 13, [56, 57, 60, 119, 136, 137, 140]),
    ],
)
def test_odd_aromatic_sheet_fails_kekulization_quickly(width, height, unmatched):
    # an odd pi system has no perfect matching, so it is not searched; the
    # greedy report is the one the full search gave after 5 to 90 s
    text = _brick_walls([(width, height)])
    start = time.process_time()
    report = check_validity(text)
    assert time.process_time() - start < 2.0
    assert report.failures == tuple(
        ValidityFailure(i, "aromatic system cannot be kekulized") for i in unmatched
    )


def test_even_aromatic_system_without_kekule_structure_stops_at_the_budget():
    # three odd sheets and one joining carbon: 190 atoms in one even pi
    # system, which the search could not settle within 100 s
    text = _brick_walls([(9, 7)] * 3, joined=True)
    start = time.process_time()
    report = check_validity(text)
    assert time.process_time() - start < 2.0
    assert report.failures == (ValidityFailure(
        None, f"MoleculeTooLarge: kekulization search ran past {MAX_KEKULE_STEPS} steps"
    ),)
    with pytest.raises(MoleculeTooLarge, match="kekulization"):
        parse_smiles(text)
