"""Desk-scale task wiring: geometry of the toy corpus and short runs."""

from __future__ import annotations

import hashlib
import json

import pytest

from moltrip.chem import canonicalize
from moltrip.toy import (
    TOY_CAPTIONS,
    TOY_MAX_TOKENS,
    TOY_MOLECULES,
    TOY_VOCAB,
    build_toy_config,
    build_toy_task,
    run_toy,
)
from moltrip.harness import run_training


def test_toy_corpus_geometry():
    assert len(TOY_MOLECULES) == 8
    assert len(TOY_CAPTIONS) == 12
    canonical = [canonicalize(m) for m in TOY_MOLECULES]
    assert len(set(canonical)) == len(canonical)
    for spelling in TOY_MOLECULES:
        # every target admits a rendering of exactly max_tokens vocabulary
        # tokens, so the fixed-length generator can reach it
        assert len(spelling) == TOY_MAX_TOKENS
        assert set(spelling) <= set(TOY_VOCAB)


def test_toy_task_aligns_pairs_with_captions():
    task = build_toy_task()
    assert len(task.pairs) == 8
    for pair in task.pairs:
        assert pair.smiles == canonicalize(pair.smiles)
        assert pair.caption in TOY_CAPTIONS
    assert len({p.caption for p in task.pairs}) == 8
    assert set(task.captioner.actions) == set(TOY_CAPTIONS)


def test_toy_config_shape():
    cfg = build_toy_config()
    assert cfg.reward_mode == "shaped"
    assert cfg.convergence_tol < -3.0  # early stop disabled for the cliff
    sparse = build_toy_config(reward_mode="exact_only")
    assert sparse.reward_mode == "exact_only"
    with pytest.raises(ValueError):
        build_toy_config(reward_mode="dense")


def test_toy_runs_and_logs_generator_phase_first():
    result = run_toy(seed=0, max_steps=4)
    assert len(result.log.records) == 4
    assert all(r.phase == "generator" for r in result.log.records)
    assert all(0.0 <= r.mean_reward <= 4.0 for r in result.log.records)
    assert 0.0 <= result.log.final_round_trip <= 1.0


def test_toy_is_deterministic():
    a = run_toy(seed=0, max_steps=2)
    b = run_toy(seed=0, max_steps=2)
    assert a.log == b.log


def test_toy_training_log_matches_golden_digest():
    """A short run through both phases reproduces a pinned log byte for byte.

    The digest pins the counter-based draw stream (each uniform is the
    splitmix64 finaliser of a per-draw FNV key plus a token counter) and the
    row-aggregated gradient, so any change to the draws, the updates or the
    scoring shows here.
    """
    task = build_toy_task()
    cfg = build_toy_config(seed=0)._replace(
        steps_per_phase=3, max_steps=12, rollout_n=16,
    )
    log = run_training(task.captioner, task.generator, list(task.pairs), cfg)
    assert [r.phase for r in log.records] == (
        ["generator"] * 3 + ["captioner"] * 3
    ) * 2
    body = json.dumps(log.to_records(), sort_keys=True).encode()
    assert hashlib.sha256(body).hexdigest() == (
        "31af46564a32c29ceb13ee075667becd8468acebdd0fa53c3cd94c78cfd284ec"
    )
