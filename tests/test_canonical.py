"""Canonical SMILES: invariance, fixed points, and graph-identity oracle."""

from __future__ import annotations

import random
import sys

import pytest

from moltrip.chem import (
    canonical_smiles,
    canonicalize,
    parse_smiles,
    render_random,
)
from oracles import molecules_isomorphic


def test_atom_order_invariance():
    assert canonicalize("OCC") == canonicalize("CCO")


def test_branch_normalization():
    assert canonicalize("C(C)C") == canonicalize("CCC")


def test_kekule_equals_aromatic_benzene():
    assert canonicalize("C1=CC=CC=C1") == canonicalize("c1ccccc1")
    # the oracle: both spellings parse to isomorphic graphs
    assert molecules_isomorphic(
        parse_smiles("C1=CC=CC=C1"), parse_smiles("c1ccccc1")
    )


def test_kekule_equals_aromatic_fused():
    assert canonicalize("C1=CC2=CC=CC=C2C=C1") == canonicalize("c1ccc2ccccc2c1")


@pytest.mark.parametrize(
    "a,b",
    [
        ("OCC", "CCO"),
        ("C(C)C", "CCC"),
        ("c1ccccc1C", "Cc1ccccc1"),
        ("O=C(O)C", "CC(=O)O"),
        ("N1CCCCC1", "C1CCNCC1"),
        ("[Cl-].[Na+]", "[Na+].[Cl-]"),
    ],
)
def test_equal_canonical_iff_isomorphic(a, b):
    assert canonicalize(a) == canonicalize(b)
    assert molecules_isomorphic(parse_smiles(a), parse_smiles(b))


@pytest.mark.parametrize(
    "a,b",
    [
        ("CCO", "CCN"),
        ("CCO", "CC=O"),
        ("C1CCCCC1", "c1ccccc1"),
        ("[13CH4]", "C"),
        ("C[O-]", "CO"),
    ],
)
def test_distinct_molecules_get_distinct_strings(a, b):
    assert canonicalize(a) != canonicalize(b)
    assert not molecules_isomorphic(parse_smiles(a), parse_smiles(b))


def test_fixed_point_on_corpus(corpus):
    for text in corpus:
        once = canonicalize(text)
        assert canonicalize(once) == once, text


def test_permutation_invariance_on_corpus(corpus):
    rng = random.Random(20240817)
    for text in corpus:
        mol = parse_smiles(text)
        expected = canonical_smiles(mol)
        for _ in range(20):
            rendered = render_random(mol, rng)
            assert canonicalize(rendered) == expected, (text, rendered)


def test_random_renderings_parse_to_isomorphic_graphs():
    rng = random.Random(7)
    for text in ["CC(=O)Oc1ccccc1C(=O)O", "C1CC2CCC1C2", "Cn1cnc2c1c(=O)n(C)c(=O)n2C"]:
        mol = parse_smiles(text)
        for _ in range(5):
            again = parse_smiles(render_random(mol, rng))
            assert len(again.atoms) == len(mol.atoms)
            assert len(again.bonds) == len(mol.bonds)


def test_bracket_normalization():
    # bracket spellings that match inferred hydrogens collapse to bare atoms
    assert canonicalize("[CH4]") == "C"
    assert canonicalize("[OH2]") == "O"
    # but genuinely explicit states stay bracketed
    assert canonicalize("[C]") == "[C]"
    assert canonicalize("[13CH4]") == "[13CH4]"
    assert canonicalize("[nH]1cccc1") == canonicalize("c1cc[nH]c1")


def test_charge_rendering_round_trips():
    for text in ["[NH4+]", "C[O-]", "[O-2].[Mg+2]", "C[N+](C)(C)C"]:
        once = canonicalize(text)
        assert canonicalize(once) == once


def test_aromatic_single_bond_written_explicitly():
    biphenyl = canonicalize("c1ccc(-c2ccccc2)cc1")
    assert "-" in biphenyl
    assert canonicalize(biphenyl) == biphenyl


def test_fragment_ordering_is_canonical():
    assert canonicalize("[Na+].[Cl-]") == canonicalize("[Cl-].[Na+]")


def test_chains_longer_than_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        chain = canonical_smiles(parse_smiles("C" * 200))
        comb = canonicalize("CC(O)" * 70)
        again = canonicalize(comb)
    finally:
        sys.setrecursionlimit(limit)
    assert chain == "C" * 200
    assert again == comb
