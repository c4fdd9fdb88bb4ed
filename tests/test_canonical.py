"""Canonical SMILES: invariance, fixed points, and graph-identity oracle."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltrip.chem import (
    MoleculeTooLarge,
    SmilesError,
    canonical_ranks,
    canonical_smiles,
    canonicalize,
    parse_smiles,
    render_random,
)
from moltrip.chem.model import Molecule
from oracles import (
    molecules_isomorphic,
    reference_canonical_ranks,
    reference_sssr,
)


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


# ---------------------------------------------------------------------------
# ring sets and ranks against frozen copies of the slower code

# Spiro, fused, cubane, cuneane, and two bridged spellings whose ring set
# depends on atom order: where the ring choice and the tie-breaks are most
# delicate.
ORACLE_FIXTURES = [
    "C1CC2(CC1)CCC2",
    "c1ccc2c(c1)ccc1ccccc12",
    "C12C3C4C1C5C2C3C45",
    "C15C4C3C4C2C1C2C35",
    "C(=O)(C)N2C1C=C2C=CC=1",
    "CC(=O)N7c1cccc7c1",
]


def assert_matches_frozen_oracles(mol: Molecule) -> None:
    assert mol.rings == reference_sssr(mol.bonds, mol.neighbor_view, mol.fragments)
    assert canonical_ranks(mol) == reference_canonical_ranks(mol)


@pytest.mark.parametrize("text", ORACLE_FIXTURES)
def test_fixture_rings_and_ranks_match_frozen_oracles(text):
    mol = parse_smiles(text)
    assert_matches_frozen_oracles(mol)
    for seed in range(15):
        assert_matches_frozen_oracles(parse_smiles(render_random(mol, random.Random(seed))))


def test_corpus_rings_and_ranks_match_frozen_oracles(corpus):
    for text in corpus:
        assert_matches_frozen_oracles(parse_smiles(text))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_rerendered_rings_and_ranks_match_frozen_oracles(corpus, data, seed):
    text = data.draw(st.sampled_from(corpus + ORACLE_FIXTURES))
    rendered = render_random(parse_smiles(text), random.Random(seed))
    assert_matches_frozen_oracles(parse_smiles(rendered))


def test_too_many_open_ring_closures_raise_a_typed_error(snake_ladder):
    mol = parse_smiles(snake_ladder)
    assert not mol.failures
    with pytest.raises(MoleculeTooLarge, match="99 ring closures") as err:
        canonical_smiles(mol)
    assert isinstance(err.value, SmilesError)
