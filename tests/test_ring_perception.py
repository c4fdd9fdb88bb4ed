"""Ring perception on demand: a parse finds the SSSR only where a Kekule
ring may aromatize, and every other molecule finds it on the first read of
``Molecule.rings``.  The molecule must be the one an eager parse builds."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltrip.chem import parse_smiles, parser, rings
from moltrip.cli import main
from moltrip.dataset import PairRecord, dedupe_overlap
from moltrip.metrics import reconstruction_score
from oracles import eager_molecule, non_bridge_atoms, reference_sssr

def _chorded_macrocycle(n: int) -> str:
    """An n-atom carbon ring with one chord across its middle."""
    h = n // 2
    return "C12" + "C" * (h - 1) + "C2" + "C" * (n - h - 2) + "C1"


@pytest.fixture
def sssr_calls(monkeypatch):
    """The molecules' bond tuples, one per ``sssr`` call."""
    calls = []
    original = rings.sssr

    def counted(bonds, *args, **kwargs):
        calls.append(bonds)
        return original(bonds, *args, **kwargs)

    for module in (rings, parser):
        monkeypatch.setattr(module, "sssr", counted)
    return calls


def test_dedupe_of_drug_like_sets_perceives_no_ring_set(workloads, sssr_calls):
    refs, lines, _ = workloads.dedupe_sets(0)
    texts = [json.loads(line)["smiles"] for line in lines if line.endswith("}")]
    result = dedupe_overlap(
        [PairRecord(smiles=s, caption="t") for s in texts],
        [PairRecord(smiles=s, caption="r") for s in refs],
    )
    assert result.removed and sssr_calls == []


@pytest.mark.parametrize("command", ["canon", "validate"])
def test_chorded_macrocycle_commands_perceive_no_ring_set(
    command, sssr_calls, capsys
):
    assert main([command, _chorded_macrocycle(4000)]) == 0
    assert capsys.readouterr().out and sssr_calls == []


def test_a_kekule_ring_is_perceived_once_by_the_parse(sssr_calls):
    mol = parse_smiles("C1=CC=CC=C1")
    assert len(sssr_calls) == 1 and all(a.is_aromatic for a in mol.atoms)
    assert mol.rings == ((0, 1, 2, 3, 4, 5),)
    assert len(sssr_calls) == 1


def test_a_score_perceives_each_molecule_once(sssr_calls):
    assert reconstruction_score("c1ccccc1CCO", "c1ccncc1CC(=O)N").valid
    assert len(sssr_calls) == 2


def assert_as_eager(text: str) -> None:
    """The parse builds the eager parse's molecule, rings included."""
    mol, eager = parse_smiles(text), eager_molecule(text)
    assert mol.bonds == eager.bonds, text
    # the atoms carry the aromatic flags and the hydrogens
    assert (mol.atoms, mol.failures) == (eager.atoms, eager.failures), text
    assert mol.rings == reference_sssr(mol.bonds, mol.neighbor_view, mol.fragments)
    assert mol.ring_atoms == non_bridge_atoms(mol), text


@pytest.mark.parametrize(
    "text",
    [
        "C1=CC=CC=C1",  # Kekule benzene
        "C1=CC=C2C=CC=CC2=C1",  # Kekule naphthalene
        "C1=CCCCC1",  # cyclohexene
        "c1ccc2c(c1)CCCC2",  # tetralin
        "c1ccc2c(c1)CCC2",  # indane
        "O=C1C=CC(=O)C=C1",  # p-benzoquinone
    ],
)
def test_fixed_cases_parse_as_eager(text):
    assert_as_eager(text)


def test_a_ladder_parses_as_eager(snake_ladder):
    assert_as_eager(snake_ladder)


def test_corpus_parses_as_eager(corpus):
    for text in corpus:
        assert_as_eager(text)


@settings(max_examples=12, deadline=None)
@given(st.integers(15, 45), st.integers(0, 2**32 - 1))
def test_generated_molecules_parse_as_eager(workloads, atoms, seed):
    molgen, rng = workloads.molgen, random.Random(seed)
    graph = molgen.build(molgen.blueprint(atoms, rng), rng)
    assert_as_eager(molgen.write_smiles(graph, rng))
