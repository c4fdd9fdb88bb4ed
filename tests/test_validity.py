"""Validity reports: valence table, charge shifts, kekulization."""

from __future__ import annotations

import sys

import pytest

from moltrip.chem import check_validity


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
