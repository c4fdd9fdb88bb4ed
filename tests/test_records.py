"""The record types' contract: immutability, identity, length and checks.

The records are NamedTuples and plain classes rather than dataclasses (see
``moltrip.records``); these tests pin what the code relies on from them.
"""

from __future__ import annotations

import pytest

from moltrip.adapters import HttpReply, RemoteEndpointConfig, Sampled
from moltrip.chem import Atom, Bond, ValidityFailure, ValidityReport, parse_smiles
from moltrip.chem.valence import AtomAnalysis
from moltrip.dataset import (
    DedupeResult,
    FilterResult,
    LoadResult,
    PairRecord,
    PairScore,
    SidecarEntry,
    SplitSpec,
)
from moltrip.fingerprints import FeatureSet, path_features
from moltrip.grpo import Completion, GrpoConfig, RolloutGroup
from moltrip.harness import HarnessConfig, StepRecord, TaggedGroup, TrainingLog
from moltrip.metrics import (
    EvalReport,
    RoundTripSample,
    ScoreBreakdown,
    prepare,
    reconstruction_score,
)
from moltrip.toy import ToyResult, ToyTask


def _step() -> StepRecord:
    return StepRecord(
        phase="generator", step=3, mean_reward=1.5, validity_rate=0.5,
        exact_rate=0.25, degenerate_fraction=0.0, snapshot_id=2,
    )


def _report() -> EvalReport:
    return EvalReport(
        samples=1, exact_pct=100.0, validity_pct=100.0,
        sim_keys=1.0, sim_path=1.0, sim_morgan=1.0,
    )


def _immutable_records():
    """(record, one of its attributes) for every immutable record type."""
    pair = PairRecord("CCO", "ethanol")
    score = reconstruction_score("CCO", "CCO")
    group = RolloutGroup("p", (Completion("C", 1.0),))
    log = TrainingLog((_step(),), False, 1.0, _report())
    return [
        (Atom("C"), "element"),
        (Bond(0, 1), "order"),
        (parse_smiles("CCO"), "atoms"),
        (ValidityFailure(0, "why"), "reason"),
        (ValidityReport(), "failures"),
        (AtomAnalysis((0,), ()), "hydrogens"),
        (path_features(parse_smiles("CCO")), "features"),
        (prepare("CCO"), "valid"),
        (score, "total"),
        (RoundTripSample("CCO", "c", "CCO", score), "score"),
        (_report(), "samples"),
        (pair, "smiles"),
        (SplitSpec(), "seed"),
        (SidecarEntry(1, "x", "why"), "reason"),
        (LoadResult((pair,), ()), "records"),
        (DedupeResult((pair,), (), 0.0, ()), "kept"),
        (PairScore(pair, 1.0, True), "kept"),
        (FilterResult((pair,), (), ()), "scores"),
        (Completion("C", 1.0), "reward"),
        (group, "completions"),
        (GrpoConfig(), "beta"),
        (_step(), "step"),
        (log, "records"),
        (TaggedGroup("g", "generator", "CCO", group), "group"),
        (HarnessConfig(), "lr"),
        (Sampled("C"), "text"),
        (RemoteEndpointConfig("http://localhost/v1", "m"), "timeout"),
        (HttpReply(200, b"{}"), "body"),
        (ToyTask(None, None, (pair,)), "pairs"),
        (ToyResult(log, None), "log"),
    ]


@pytest.mark.parametrize(
    "record, name", _immutable_records(),
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_setting_a_field_of_an_immutable_record_raises(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.unheard_of = 1
    assert getattr(record, name) is value


def test_pair_record_identity_ignores_the_line_number():
    loaded = PairRecord("CCO", "ethanol", "e1", "src", line_no=7)
    built = PairRecord("CCO", "ethanol", "e1", "src")
    assert loaded == built and not loaded != built
    assert hash(loaded) == hash(built)
    assert len({loaded, built}) == 1
    other = PairRecord("CCO", "ethanol", "e2", "src", line_no=7)
    assert loaded != other and not loaded == other
    assert loaded != ("CCO", "ethanol", "e1", "src", 7)  # not a bare tuple


def test_molecule_identity_ignores_notes_and_failures():
    plain, noted = parse_smiles("CC=CC"), parse_smiles("C/C=C/C")
    assert noted.parse_notes and not plain.parse_notes
    assert plain == noted and hash(plain) == hash(noted)
    bad = parse_smiles("C(C)(C)(C)(C)C")
    assert bad.failures
    clean = type(bad)(bad.atoms, bad.bonds, bad.rings, bad.fragments)
    assert clean == bad and hash(clean) == hash(bad) and not clean.failures
    assert parse_smiles("CCO") != parse_smiles("CCN")


def test_lengths_count_atoms_and_features():
    mol = parse_smiles("c1ccccc1O")
    assert len(mol) == 7 == len(mol.atoms)
    features = path_features(mol)
    assert len(features) == len(features.features) > 0
    assert len(FeatureSet(frozenset(), "path", (7,))) == 0


def test_feature_sets_compare_by_value():
    one = FeatureSet(frozenset({1, 2}), "path", (7,))
    assert one == FeatureSet(frozenset({2, 1}), "path", (7,))
    assert hash(one) == hash(FeatureSet(frozenset({1, 2}), "path", (7,)))
    assert one != FeatureSet(frozenset({1, 2}), "path", (6,))
    assert one != FeatureSet(frozenset({1, 2}), "morgan", (7,))


_CHECKED = [
    (Atom("C"), {"element": "Xx"}, "unrecognized element"),
    (PairRecord("CCO", "ethanol"), {"smiles": ""}, "smiles must be non-empty"),
    (PairRecord("CCO", "ethanol"), {"caption": 3}, "caption must be a string"),
    (SplitSpec(), {"ratios": (0.5, 0.5)}, "ratios needs 3 values"),
    (SplitSpec(), {"ratios": (1.0, 0.5, -0.5)}, "non-negative"),
    (GrpoConfig(), {"epsilon": 0.0}, "epsilon must be > 0"),
    (GrpoConfig(), {"beta": -1.0}, "beta must be >= 0"),
    (HarnessConfig(), {"batch_size": 0}, "batch_size must be >= 1"),
    (HarnessConfig(), {"lr": 0.0}, "lr must be > 0"),
    (HarnessConfig(), {"reward_mode": "dense"}, "reward_mode must be one of"),
    (RemoteEndpointConfig("http://localhost/v1", "m"), {"timeout": 0.0}, "timeout"),
    (RemoteEndpointConfig("http://localhost/v1", "m"), {"base_url": "file:///x"},
     "base_url"),
]


@pytest.mark.parametrize("record, change, message", _CHECKED)
def test_construction_and_replace_both_run_the_checks(record, change, message):
    kind = type(record)
    with pytest.raises(ValueError, match=message):
        kind(**{**record._asdict(), **change})
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        kind._make({**record._asdict(), **change}.values())
    same = record._replace()
    assert same == record and type(same) is kind


def test_replace_keeps_the_other_fields_and_the_type():
    cfg = HarnessConfig()._replace(lr=0.5, grpo=GrpoConfig(beta=0.1))
    assert type(cfg) is HarnessConfig and cfg.lr == 0.5 and cfg.grpo.beta == 0.1
    assert cfg.batch_size == HarnessConfig().batch_size
    with pytest.raises(ValueError, match="unexpected field"):
        cfg._replace(learning_rate=0.5)


def test_training_log_steps_keep_the_field_order():
    log = TrainingLog((_step(),), False, 1.0, _report())
    record = log.to_records()
    assert list(record) == ["steps", "converged", "final_round_trip", "final_report"]
    assert list(record["steps"][0]) == [
        "phase", "step", "mean_reward", "validity_rate", "exact_rate",
        "degenerate_fraction", "snapshot_id",
    ]
    assert record["steps"][0]["step"] == 3
    assert list(record["final_report"]) == [
        "samples", "exact_pct", "validity_pct", "sim_keys", "sim_path", "sim_morgan",
    ]
    full = _report()._replace(bleu=0.5, meteor=0.25).to_record()
    assert list(full)[-2:] == ["bleu", "meteor"]
