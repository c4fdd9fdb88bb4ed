"""Coupled training loop: phases, rewards, convergence, rollout export."""

from __future__ import annotations

import collections
import copy
import json
import re

import pytest

from moltrip import adapters, harness, metrics
from moltrip.adapters import AdapterFailure, GrpoConfig, TabularPolicy
from moltrip.dataset import PairRecord
from moltrip.fingerprints import stable_hash
from moltrip.harness import (
    HarnessConfig,
    ScoreCache,
    TaggedGroup,
    captioner_phase,
    evaluate_round_trip,
    export_rollouts,
    generator_phase,
    read_rollouts,
    run_training,
)
from moltrip.grpo import Completion, RolloutGroup, fill_advantages
from moltrip.metrics import reconstruction_score
from moltrip.toy import build_toy_config, build_toy_task

from oracles import log_probs
from rows import set_logit


MOLECULES = ("CCO", "CCC")
CAPTIONS = ("ethanol", "propane", "something")
CANDIDATES = ("CCO", "CCC", "CCN", "xx")


def micro_policies():
    captioner = TabularPolicy.uniform(MOLECULES, CAPTIONS)
    generator = TabularPolicy.uniform(CAPTIONS, CANDIDATES)
    return captioner, generator


def micro_pairs():
    return [PairRecord(smiles=m, caption=c, id=f"p{i}")
            for i, (m, c) in enumerate(zip(MOLECULES, CAPTIONS))]


def micro_config(**overrides):
    base = dict(
        batch_size=2, mini_batch=8, rollout_n=12, group_size_g=6,
        grpo=GrpoConfig(beta=0.01), lr=0.2, max_steps=8, seed=0,
        convergence_window=3, convergence_tol=-1.0,
    )
    base.update(overrides)
    return HarnessConfig(**base)


def record_updates(policy) -> list[RolloutGroup]:
    """Stub the policy's grpo_step with one that only records its groups."""
    seen: list[RolloutGroup] = []
    policy.grpo_step = lambda groups, cfg, lr: seen.extend(groups)
    return seen


def generator_rollouts(generator, seed) -> list[TaggedGroup]:
    """One generator phase over micro_pairs, its groups tagged for export."""
    groups = record_updates(generator)
    pairs = micro_pairs()
    generator_phase(generator, pairs, micro_config(), seed=seed)
    return [
        TaggedGroup(
            group_id=f"gen-{seed}-{pair.id}", phase="generator",
            reference=pair.smiles, group=group,
        )
        for pair, group in zip(pairs, groups)
    ]


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    for bad in (
        dict(update_epochs=0), dict(rollout_n=0), dict(mini_batch=0),
        dict(max_steps=-1), dict(lr=0.0), dict(reward_mode="sometimes"),
    ):
        with pytest.raises(ValueError):
            HarnessConfig(**bad)


@pytest.mark.parametrize("window", [0, -1])
def test_convergence_window_must_be_positive(window):
    # 0 would divide by zero after the first step, -1 would stop after it
    with pytest.raises(ValueError, match="convergence_window"):
        HarnessConfig(convergence_window=window)


# ---------------------------------------------------------------------------
# generator phase

def test_generator_phase_moves_probability_toward_reward():
    _, generator = micro_policies()
    cfg = micro_config()
    idx = generator.state_index("ethanol")
    target = generator.action_index("CCO")
    before = log_probs(generator, "ethanol")[target]
    stats = None
    for step in range(5):
        stats = generator_phase(generator, micro_pairs()[:1], cfg, seed=step)
    assert log_probs(generator, "ethanol")[target] > before
    assert 0.0 <= stats.validity_rate <= 1.0
    assert stats.snapshot_id == generator.old_snapshot_id


def test_generator_phase_rewards_lie_in_score_range():
    _, generator = micro_policies()
    groups = record_updates(generator)
    generator_phase(generator, micro_pairs(), micro_config(), seed=1)
    rewards = [c.reward for g in groups for c in g.completions]
    assert rewards and all(0.0 <= r <= 4.0 for r in rewards)


def test_exact_only_rewards_are_binary():
    _, generator = micro_policies()
    cfg = micro_config(reward_mode="exact_only")
    groups = record_updates(generator)
    generator_phase(generator, micro_pairs(), cfg, seed=1)
    rewards = {c.reward for g in groups for c in g.completions}
    assert rewards <= {0.0, 1.0}


def test_degenerate_groups_freeze_learning_without_kl():
    generator = TabularPolicy.uniform(CAPTIONS, ("xx", "yy"))  # never valid
    cfg = micro_config(grpo=GrpoConfig(beta=0.0))
    frozen = copy.deepcopy(generator.logits)
    stats = generator_phase(generator, micro_pairs(), cfg, seed=0)
    assert stats.degenerate_fraction == 1.0
    assert stats.mean_reward == 0.0
    assert generator.logits == frozen


def test_adapter_failure_names_the_pair():
    _, generator = micro_policies()
    bad = [PairRecord(smiles="CCO", caption="unknown caption", id="bad-1")]
    with pytest.raises(AdapterFailure, match="bad-1"):
        generator_phase(generator, bad, micro_config(), seed=0)


# ---------------------------------------------------------------------------
# captioner phase

def test_captioner_phase_scores_against_frozen_generator():
    captioner = TabularPolicy.uniform(("CCO",), ("good", "bad"))
    generator = TabularPolicy.uniform(("good", "bad"), ("CCO", "xx"))
    good, cco = generator.state_index("good"), generator.action_index("CCO")
    set_logit(generator, good, cco, 25.0)  # old copy will be certain
    generator.snapshot_old()
    set_logit(generator, good, cco, -25.0)  # live copy now favors xx
    groups = record_updates(captioner)
    pair = [PairRecord(smiles="CCO", caption="good")]
    captioner_phase(captioner, generator, pair, micro_config(), seed=0)
    good_rewards = [
        c.reward for g in groups for c in g.completions if c.text == "good"
    ]
    assert good_rewards and all(r == 4.0 for r in good_rewards)


def test_captioner_phase_refreshes_generator_snapshot_after_update():
    captioner, generator = micro_policies()
    # live differs from the frozen copy
    set_logit(generator, 0, 0, generator.logits[0][0] + 1.0)
    assert generator.logits != generator.old_logits
    captioner_phase(captioner, generator, micro_pairs(), micro_config(), seed=0)
    assert generator.logits == generator.old_logits


def test_captioner_group_size_is_g():
    captioner, generator = micro_policies()
    cfg = micro_config(group_size_g=6)
    groups = record_updates(captioner)
    captioner_phase(captioner, generator, micro_pairs(), cfg, seed=0)
    assert len(groups) == len(micro_pairs())
    assert all(len(g.completions) == 6 for g in groups)


def test_recon_mean_over_m_matches_deterministic_generator():
    captioner = TabularPolicy.uniform(("CCO",), ("good",))
    generator = TabularPolicy.uniform(("good",), ("CCO", "xx"))
    set_logit(generator, 0, 0, 30.0)  # old table certain after snapshot
    generator.snapshot_old()
    groups = record_updates(captioner)
    cfg = micro_config(recon_samples_m=5, group_size_g=4)
    captioner_phase(
        captioner, generator,
        [PairRecord(smiles="CCO", caption="good")], cfg, seed=0,
    )
    rewards = [c.reward for g in groups for c in g.completions]
    assert all(r == pytest.approx(4.0) for r in rewards)


# ---------------------------------------------------------------------------
# work done once per distinct thing

class CountingCache(ScoreCache):
    """A ScoreCache that counts its (reference, candidate) calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: collections.Counter = collections.Counter()

    def score(self, reference, candidate):
        self.calls[reference, candidate] += 1
        return super().score(reference, candidate)


def _longhand_group(prompt, texts, rewards, snapshot_id):
    return fill_advantages(RolloutGroup(
        prompt_id=prompt,
        completions=tuple(Completion(text=t, reward=r) for t, r in zip(texts, rewards)),
        snapshot_id=snapshot_id,
    ))


def longhand_generator_phase(generator, batch, cfg, seed, cache):
    """generator_phase written out, scoring every draw; also returns the
    texts drawn for each pair."""
    generator.snapshot_old()
    groups, breakdowns, drawn = [], [], []
    for j, pair in enumerate(batch):
        texts = [d.text for d in generator.sample(
            pair.caption, cfg.rollout_n, seed=stable_hash("gen", seed, j), table="old",
        )]
        scored = [cache.score(pair.smiles, text) for text in texts]
        breakdowns += scored
        drawn.append(texts)
        groups.append(_longhand_group(
            pair.caption, texts,
            [harness._reward(b, cfg.reward_mode) for b in scored],
            generator.old_snapshot_id,
        ))
    harness._apply_updates(generator, groups, cfg)
    stats = harness._stats("generator", groups, breakdowns, generator.old_snapshot_id)
    return stats, drawn


def longhand_captioner_phase(captioner, generator, batch, cfg, seed, cache):
    """captioner_phase written out, scoring every reconstruction."""
    captioner.snapshot_old()
    frozen_id = generator.old_snapshot_id
    groups, breakdowns, drawn = [], [], []
    for j, pair in enumerate(batch):
        captions = [c.text for c in captioner.sample(
            pair.smiles, cfg.group_size_g, seed=stable_hash("cap", seed, j), table="old",
        )]
        rewards, texts = [], []
        for g, caption in enumerate(captions):
            recon = [d.text for d in generator.sample(
                caption, cfg.recon_samples_m,
                seed=stable_hash("recon", seed, j, g), table="old",
            )]
            scored = [cache.score(pair.smiles, text) for text in recon]
            breakdowns += scored
            texts += recon
            rewards.append(sum(harness._reward(b, cfg.reward_mode) for b in scored)
                           / cfg.recon_samples_m)
        drawn.append(texts)
        groups.append(_longhand_group(
            pair.smiles, captions, rewards, captioner.old_snapshot_id,
        ))
    harness._apply_updates(captioner, groups, cfg)
    generator.snapshot_old()
    return harness._stats("captioner", groups, breakdowns, frozen_id), drawn


def _once_per_group(batch, drawn) -> collections.Counter:
    want: collections.Counter = collections.Counter()
    for pair, texts in zip(batch, drawn):
        for text in set(texts):
            want[pair.smiles, text] += 1
    return want


@pytest.mark.parametrize("mode", ["shaped", "exact_only"])
def test_phases_score_each_distinct_completion_once_per_group(mode):
    """Two generator steps then two captioner steps on the toy task: each
    phase calls the cache once per distinct text of a group, and its step
    records and updated tables equal those of a loop scoring every draw."""
    cfg = build_toy_config(reward_mode=mode)._replace(recon_samples_m=2)
    fast, slow = build_toy_task(), build_toy_task()
    batch = list(fast.pairs)
    calls = draws = 0
    for step in range(4):
        fast_cache, slow_cache = CountingCache(), ScoreCache()
        if step < 2:
            got = generator_phase(fast.generator, batch, cfg, step, fast_cache)
            want, drawn = longhand_generator_phase(
                slow.generator, batch, cfg, step, slow_cache,
            )
        else:
            got = captioner_phase(
                fast.captioner, fast.generator, batch, cfg, step, fast_cache,
            )
            want, drawn = longhand_captioner_phase(
                slow.captioner, slow.generator, batch, cfg, step, slow_cache,
            )
        assert got == want
        assert fast_cache.calls == _once_per_group(batch, drawn)
        calls += sum(fast_cache.calls.values())
        draws += sum(map(len, drawn))
    assert calls < draws
    for a, b in ((fast.generator, slow.generator), (fast.captioner, slow.captioner)):
        assert (a.logits, a.old_logits) == (b.logits, b.old_logits)


def test_two_captioner_steps_normalise_each_generator_row_once(monkeypatch):
    """Between two updates a row's log-normaliser is computed once; the
    generator is not updated in captioner steps, so each of its rows is
    normalised once over both."""
    task = build_toy_task()
    cfg = build_toy_config()
    batch = list(task.pairs)
    cache = ScoreCache()
    for step in range(2):  # rows of a trained generator differ from each other
        generator_phase(task.generator, batch, cfg, step, cache)
    normalised: list = []  # rows, with None at each update
    real_norm, real_ascend = adapters._log_norm, adapters._ascend

    def log_norm(row):
        normalised.append(row)
        return real_norm(row)

    def ascend(*args):
        normalised.append(None)
        return real_ascend(*args)

    monkeypatch.setattr(adapters, "_log_norm", log_norm)
    monkeypatch.setattr(adapters, "_ascend", ascend)
    for step in range(2, 4):
        captioner_phase(task.captioner, task.generator, batch, cfg, step, cache)
    updates = [k for k, row in enumerate(normalised) if row is None]
    assert len(updates) == 2
    generator_rows = {id(row) for row in task.generator.old_logits}
    per_generator_row = collections.Counter(
        id(row) for row in normalised if id(row) in generator_rows
    )
    assert len(per_generator_row) > 100
    assert set(per_generator_row.values()) == {1}
    for start, stop in zip([-1] + updates, updates + [len(normalised)]):
        between = normalised[start + 1:stop]
        assert len({id(row) for row in between}) == len(between)


# ---------------------------------------------------------------------------
# evaluation and the full loop

def test_evaluate_round_trip_on_aligned_tables():
    captioner, generator = micro_policies()
    for molecule, caption in zip(MOLECULES, CAPTIONS):
        set_logit(captioner, captioner.state_index(molecule),
                  captioner.action_index(caption), 30.0)
        set_logit(generator, generator.state_index(caption),
                  generator.action_index(molecule), 30.0)
    rate, report, samples = evaluate_round_trip(
        captioner, generator, micro_pairs(), micro_config(),
    )
    assert rate == 1.0
    assert report.exact_pct == 100.0
    assert [s.caption for s in samples] == list(CAPTIONS)[:2]


def test_run_training_requires_pairs():
    captioner, generator = micro_policies()
    with pytest.raises(ValueError):
        run_training(captioner, generator, [], micro_config())


def test_run_training_zero_steps_evaluates_only():
    captioner, generator = micro_policies()
    log = run_training(
        captioner, generator, micro_pairs(), micro_config(max_steps=0),
    )
    assert log.records == ()
    assert not log.converged
    assert log.final_round_trip is not None
    assert log.final_report is not None


def test_run_training_is_deterministic():
    def go():
        captioner, generator = micro_policies()
        return run_training(
            captioner, generator, micro_pairs(), micro_config(max_steps=6),
        )

    assert go() == go()


def test_run_training_alternates_and_logs_steps():
    captioner, generator = micro_policies()
    cfg = micro_config(max_steps=6, steps_per_phase=2)
    log = run_training(captioner, generator, micro_pairs(), cfg)
    assert [r.phase for r in log.records] == [
        "generator", "generator", "captioner", "captioner",
        "generator", "generator",
    ]
    assert [r.step for r in log.records] == list(range(6))
    gen_snapshots = [r.snapshot_id for r in log.records if r.phase == "generator"]
    assert gen_snapshots == sorted(gen_snapshots)
    assert all(0.0 <= r.mean_reward <= 4.0 for r in log.records)


def test_run_training_converges_on_flat_rewards():
    captioner = TabularPolicy.uniform(MOLECULES, CAPTIONS)
    generator = TabularPolicy.uniform(CAPTIONS, ("xx", "yy"))  # rewards stay 0
    cfg = micro_config(
        max_steps=50, convergence_window=3, convergence_tol=1e-3,
        grpo=GrpoConfig(beta=0.0),
    )
    log = run_training(captioner, generator, micro_pairs(), cfg)
    assert log.converged
    assert len(log.records) == 6  # two full windows, then the plateau trips
    assert log.final_round_trip == 0.0


def test_run_training_schedule_when_k_does_not_divide_max_steps():
    captioner, generator = micro_policies()
    cfg = micro_config(max_steps=5, steps_per_phase=2)
    log = run_training(captioner, generator, micro_pairs(), cfg)
    assert [r.phase for r in log.records] == [
        "generator", "generator", "captioner", "captioner", "generator",
    ]
    assert [r.step for r in log.records] == list(range(5))
    assert not log.converged


def test_run_training_convergence_breaks_mid_phase():
    captioner = TabularPolicy.uniform(MOLECULES, CAPTIONS)
    generator = TabularPolicy.uniform(CAPTIONS, ("xx", "yy"))  # rewards stay 0
    cfg = micro_config(
        max_steps=50, steps_per_phase=4, convergence_window=3,
        convergence_tol=1e-3, grpo=GrpoConfig(beta=0.0),
    )
    log = run_training(captioner, generator, micro_pairs(), cfg)
    assert log.converged
    # the plateau trips after step 5, two steps into the captioner phase
    assert [r.phase for r in log.records] == ["generator"] * 4 + ["captioner"] * 2


def test_update_epochs_amplify_the_step():
    def stepped(epochs):
        _, generator = micro_policies()
        cfg = micro_config(update_epochs=epochs)
        generator_phase(generator, micro_pairs(), cfg, seed=3)
        return generator.logits

    once, twice = stepped(1), stepped(2)
    assert once != twice


def test_score_cache_deduplicates(monkeypatch):
    want = reconstruction_score("CCO", "CCO")
    parsed = []
    real = metrics.parse_smiles
    monkeypatch.setattr(
        metrics, "parse_smiles", lambda s: parsed.append(s) or real(s)
    )
    cache = ScoreCache()
    a = cache.score("CCO", "CCO")
    b = cache.score("CCO", "CCO")
    assert a == b == want
    assert parsed == ["CCO"]  # one preparation per distinct string
    cache.score("CCO", "CCN")
    assert parsed == ["CCO", "CCN"]


def test_training_log_round_trips_to_records():
    captioner, generator = micro_policies()
    log = run_training(
        captioner, generator, micro_pairs(), micro_config(max_steps=2),
    )
    body = log.to_records()
    assert len(body["steps"]) == 2
    assert body["steps"][0]["phase"] == "generator"
    assert "final_round_trip" in body
    assert body["final_report"]["samples"] == 2


# ---------------------------------------------------------------------------
# rollout export

def test_export_read_round_trip(tmp_path):
    _, generator = micro_policies()
    export = generator_rollouts(generator, seed=4)
    path = str(tmp_path / "rollouts.jsonl")
    export_rollouts(export, path)
    back = read_rollouts(path)
    assert [t.group_id for t in back] == [t.group_id for t in export]
    assert [t.reference for t in back] == [t.reference for t in export]
    for original, loaded in zip(export, back):
        assert original.group == loaded.group


def test_export_rewards_audit_against_fresh_scoring(tmp_path):
    _, generator = micro_policies()
    export = generator_rollouts(generator, seed=4)
    path = str(tmp_path / "rollouts.jsonl")
    export_rollouts(export, path)
    for tagged in read_rollouts(path):
        for completion in tagged.group.completions:
            fresh = reconstruction_score(tagged.reference, completion.text)
            assert completion.reward == pytest.approx(fresh.total)


def test_export_requires_filled_advantages(tmp_path):
    group = RolloutGroup(
        prompt_id="ethanol",
        completions=(Completion(text="CCO", reward=4.0),),
        snapshot_id=1,
    )
    tagged = TaggedGroup(
        group_id="g0", phase="generator", reference="CCO", group=group,
    )
    with pytest.raises(ValueError, match="advantages"):
        export_rollouts([tagged], str(tmp_path / "out.jsonl"))


def test_read_rollouts_marks_degenerate_groups(tmp_path):
    generator = TabularPolicy.uniform(CAPTIONS, ("xx", "yy"))
    export = generator_rollouts(generator, seed=0)
    path = str(tmp_path / "rollouts.jsonl")
    export_rollouts(export, path)
    assert all(t.group.degenerate for t in read_rollouts(path))


def test_read_rollouts_accepts_a_byte_order_mark(tmp_path):
    _, generator = micro_policies()
    path = tmp_path / "rollouts.jsonl"
    export_rollouts(generator_rollouts(generator, seed=4), str(path))
    plain = read_rollouts(str(path))
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert read_rollouts(str(path)) == plain


def _without_completion(line: str) -> str:
    row = json.loads(line)
    del row["completion"]
    return json.dumps(row)


@pytest.mark.parametrize("spoil, reason", [
    (lambda line: "{not json", "not a JSON line"),
    (lambda line: json.dumps(["a", "list"]), "not a JSON object"),
    (lambda line: "[" * 200_000 + "]" * 200_000, "not a JSON line"),
    (_without_completion, "missing completion"),
], ids=["not-json", "not-object", "nested", "missing-key"])
def test_read_rollouts_names_the_bad_line(tmp_path, spoil, reason):
    _, generator = micro_policies()
    path = tmp_path / "rollouts.jsonl"
    export_rollouts(generator_rollouts(generator, seed=4), str(path))
    lines = path.read_text().splitlines()
    lines[1] = spoil(lines[1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {reason}")):
        read_rollouts(str(path))


def test_export_write_is_atomic(tmp_path):
    _, generator = micro_policies()
    export = generator_rollouts(generator, seed=4)
    path = tmp_path / "rollouts.jsonl"
    export_rollouts(export, str(path))
    assert path.exists()
    assert not (tmp_path / "rollouts.jsonl.tmp").exists()
