"""Every chemistry layer checked against an independent molecule generator.

``perfbench/molgen.py`` builds drug-like molecules of 15 to 45 heavy atoms
as graphs with its own valence bookkeeping and its own SMILES writer, and
never imports moltrip, so what it calls valid, over-valent or malformed is
known before moltrip reads a single string.  The module is loaded read-only
from its file.
"""

from __future__ import annotations

import importlib.util
import random
import time
from pathlib import Path

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from moltrip.chem import (
    canonical_ranks,
    canonical_smiles,
    canonicalize,
    check_validity,
    parse_smiles,
    render_random,
)
from moltrip.fingerprints import morgan_features, path_features, structural_keys
from moltrip.metrics import reconstruction_score
from oracles import non_bridge_atoms, reference_canonical_ranks, reference_sssr

_MOLGEN = Path(__file__).parent.parent / "perfbench" / "molgen.py"
_spec = importlib.util.spec_from_file_location("perfbench_molgen", _MOLGEN)
molgen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(molgen)

_SETTINGS = settings(max_examples=12, deadline=None)
_ATOMS = st.integers(15, 45)
_SEEDS = st.integers(0, 2**32 - 1)
# process CPU time allowed per example of an invalid variant: building and
# scoring one takes a small fraction of it, so only a hang or a blow-up in
# the parser, the validity gate or the score can miss it
_CPU_BUDGET_S = 2.0


def _molecule(atoms: int, seed: int):
    rng = random.Random(seed)
    graph = molgen.build(molgen.blueprint(atoms, rng), rng)
    return graph, molgen.write_smiles(graph, rng), rng


@_SETTINGS
@given(_ATOMS, _SEEDS)
def test_generated_molecule_is_valid_and_scores_four(atoms, seed):
    _, smiles, _ = _molecule(atoms, seed)
    assert check_validity(smiles).is_valid, smiles
    assert reconstruction_score(smiles, smiles).total == 4.0
    mol = parse_smiles(smiles)
    assert mol.ring_atoms == non_bridge_atoms(mol), smiles


def _layers(smiles: str):
    mol = parse_smiles(smiles)
    return (
        canonical_smiles(mol),
        structural_keys(mol),
        path_features(mol),
        morgan_features(mol),
    )


@_SETTINGS
@given(_ATOMS, _SEEDS)
def test_respelling_changes_no_layer_and_scores_four(atoms, seed):
    graph, smiles, rng = _molecule(atoms, seed)
    original = _layers(smiles)
    for other in (
        molgen.respell(graph, rng, smiles),
        render_random(parse_smiles(smiles), rng),
    ):
        assert _layers(other) == original, (smiles, other)
        assert reconstruction_score(smiles, other).total == 4.0, (smiles, other)


@_SETTINGS
@given(_ATOMS, _SEEDS)
@example(23, 24676626)  # o1cnc(-c2c3cccc(N(c4ncoc4)C#N)c3ncn2)c1: no edit
def test_one_atom_edit_changes_the_canonical_form(atoms, seed):
    graph, smiles, rng = _molecule(atoms, seed)
    try:
        changed = molgen.edit_one_atom(graph, rng)
    except IndexError:  # molgen found no atom it can edit
        reject()
    edited = molgen.write_smiles(changed, rng)
    assert check_validity(edited).is_valid, edited
    assert canonicalize(edited) != canonicalize(smiles), (smiles, edited)


@_SETTINGS
@given(_ATOMS, _SEEDS)
def test_over_valent_variant_fails_at_atoms_and_scores_zero(atoms, seed):
    start = time.process_time()
    graph, smiles, rng = _molecule(atoms, seed)
    # two edits, so a report may list one failed atom or two
    twice = molgen.over_valent(molgen.over_valent(graph, rng), rng)
    bad = molgen.write_smiles(twice, rng)
    report = check_validity(bad)
    assert not report.is_valid, bad
    assert all(f.atom_index is not None for f in report.failures)
    assert reconstruction_score(smiles, bad).total == 0.0
    assert time.process_time() - start < _CPU_BUDGET_S, bad


@_SETTINGS
@given(_ATOMS, _SEEDS)
def test_malformed_variant_fails_as_a_whole_string(atoms, seed):
    start = time.process_time()
    _, smiles, rng = _molecule(atoms, seed)
    bad = molgen.malformed(smiles, rng)
    report = check_validity(bad)
    assert len(report.failures) == 1, bad
    assert report.failures[0].atom_index is None
    assert reconstruction_score(smiles, bad).total == 0.0
    assert time.process_time() - start < _CPU_BUDGET_S, bad


@_SETTINGS
@given(_ATOMS, _SEEDS)
def test_rings_and_ranks_match_frozen_oracles(atoms, seed):
    _, smiles, rng = _molecule(atoms, seed)
    mol = parse_smiles(smiles)
    for m in (mol, parse_smiles(render_random(mol, rng))):
        assert m.rings == reference_sssr(m.bonds, m.neighbor_view, m.fragments)
        assert canonical_ranks(m) == reference_canonical_ranks(m)
