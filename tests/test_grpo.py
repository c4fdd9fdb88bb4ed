"""Group advantages, PPO clip, KL estimator, and the group objective."""

from __future__ import annotations

import math
import random

import pytest

from moltrip.errors import LengthMismatch
from moltrip.grpo import (
    Completion,
    GroupTooSmall,
    GrpoConfig,
    MissingLogProbs,
    RolloutGroup,
    fill_advantages,
    group_advantages,
    group_objective,
    kl_estimate,
    ppo_clip,
)


# ---------------------------------------------------------------------------
# advantages

def test_advantages_one_two_three():
    advantages, degenerate = group_advantages([1.0, 2.0, 3.0])
    assert not degenerate
    assert advantages == pytest.approx(
        [-1.224745, 0.0, 1.224745], abs=1e-6
    )


def test_constant_rewards_are_degenerate():
    advantages, degenerate = group_advantages([0.7] * 32)
    assert degenerate
    assert advantages == [0.0] * 32


def test_advantages_normalized_on_random_groups():
    rng = random.Random(314)
    for _ in range(200):
        rewards = [rng.uniform(0, 4) for _ in range(32)]
        advantages, degenerate = group_advantages(rewards)
        assert not degenerate
        mean = sum(advantages) / len(advantages)
        var = sum(a * a for a in advantages) / len(advantages)
        assert abs(mean) < 1e-9
        assert abs(math.sqrt(var) - 1.0) < 1e-9


def test_advantages_shift_and_scale_invariant():
    rng = random.Random(7)
    rewards = [rng.uniform(0, 4) for _ in range(16)]
    base, _ = group_advantages(rewards)
    shifted, _ = group_advantages([r + 2.5 for r in rewards])
    scaled, _ = group_advantages([r * 3.0 for r in rewards])
    assert base == pytest.approx(shifted, abs=1e-9)
    assert base == pytest.approx(scaled, abs=1e-9)


def test_group_too_small_and_nonfinite():
    with pytest.raises(GroupTooSmall):
        group_advantages([1.0])
    with pytest.raises(ValueError):
        group_advantages([1.0, math.nan])
    with pytest.raises(ValueError):
        group_advantages([1.0, math.inf])


def test_fill_advantages_populates_group():
    group = RolloutGroup(
        prompt_id="p0",
        completions=tuple(
            Completion(text=f"c{i}", reward=float(i)) for i in range(4)
        ),
    )
    filled = fill_advantages(group)
    assert filled.advantages is not None
    assert not filled.degenerate
    assert sum(filled.advantages) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# PPO clip

def test_clip_interior_is_ratio_times_advantage():
    assert ppo_clip(1.05, 2.0, 0.2) == pytest.approx(2.1, abs=1e-12)
    assert ppo_clip(0.85, -1.5, 0.2) == pytest.approx(-1.275, abs=1e-12)


def test_clip_quoted_examples():
    assert ppo_clip(2.0, 1.0, 0.2) == pytest.approx(1.2, abs=1e-12)
    assert ppo_clip(2.0, -1.0, 0.2) == pytest.approx(-2.0, abs=1e-12)


def test_clip_matches_standard_pessimistic_form():
    rng = random.Random(11)
    for _ in range(2000):
        ratio = rng.uniform(0.01, 3.0)
        advantage = rng.uniform(-2, 2)
        epsilon = rng.uniform(0.05, 0.5)
        standard = min(
            ratio * advantage,
            min(max(ratio, 1 - epsilon), 1 + epsilon) * advantage,
        )
        assert ppo_clip(ratio, advantage, epsilon) == pytest.approx(
            standard, abs=1e-12
        )


def test_clip_bounded():
    rng = random.Random(13)
    for _ in range(500):
        ratio = rng.uniform(0.01, 3.0)
        advantage = rng.uniform(-2, 2)
        value = ppo_clip(ratio, advantage, 0.2)
        if advantage >= 0:
            assert value <= ratio * advantage + 1e-12
        assert abs(value) <= max(1.2, ratio) * abs(advantage) + 1e-12


def test_clip_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        ppo_clip(1.0, 1.0, 0.0)


def test_clip_rejects_a_nan_epsilon():
    # nan > 0 and nan <= 0 are both false; unchecked, nan clips nothing
    with pytest.raises(ValueError, match="epsilon must be > 0, not nan"):
        ppo_clip(1.5, 1.0, math.nan)


# ---------------------------------------------------------------------------
# KL estimator

def test_kl_zero_when_policies_agree():
    logs = [-1.2, -0.3, -2.2]
    assert kl_estimate(logs, logs) == 0.0


def test_kl_ln2_per_token():
    d = math.log(2.0)
    expected = 2.0 - d - 1.0
    assert kl_estimate([d, d, d], [0.0, 0.0, 0.0]) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(0.306853, abs=1e-6)


def test_kl_nonnegative_random():
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randint(1, 10)
        ref = [rng.uniform(-3, 0) for _ in range(n)]
        cur = [rng.uniform(-3, 0) for _ in range(n)]
        assert kl_estimate(ref, cur) >= 0.0
    assert kl_estimate([-1.0], [-1.1]) > 0.0


def test_kl_length_mismatch_and_empty():
    with pytest.raises(LengthMismatch):
        kl_estimate([0.0], [0.0, 0.0])
    assert kl_estimate([], []) == 0.0


# ---------------------------------------------------------------------------
# group objective

def _group(rewards, ratios, ref_shift=0.0):
    completions = []
    for i, (reward, ratio) in enumerate(zip(rewards, ratios)):
        old = (math.log(0.5),)
        cur = (old[0] + math.log(ratio),)
        ref = (cur[0] + ref_shift,)
        completions.append(Completion(
            text=f"c{i}", reward=reward,
            logp_cur=cur, logp_old=old, logp_ref=ref,
        ))
    return fill_advantages(
        RolloutGroup(prompt_id="p", completions=tuple(completions))
    )


def test_objective_zero_when_current_equals_old():
    group = _group([1.0, 2.0, 3.0, 0.5], [1.0, 1.0, 1.0, 1.0])
    cfg = GrpoConfig(epsilon=0.2, beta=0.0)
    assert group_objective(group, cfg) == pytest.approx(0.0, abs=1e-9)


def test_objective_hand_computed_single_tokens():
    group = _group([1.0, 2.0, 3.0], [1.1, 0.9, 1.3])
    cfg = GrpoConfig(epsilon=0.2, beta=0.0)
    # advantages are (-sqrt(1.5), 0, sqrt(1.5)); terms 1.1*A1 + 0 + 1.2*A3
    expected = 0.1 * math.sqrt(1.5)
    assert group_objective(group, cfg) == pytest.approx(expected, abs=1e-12)


def test_objective_kl_vanishes_when_current_equals_reference():
    group = _group([1.0, 2.0, 3.0], [1.1, 0.9, 1.3], ref_shift=0.0)
    no_beta = group_objective(group, GrpoConfig(epsilon=0.2, beta=0.0))
    big_beta = group_objective(group, GrpoConfig(epsilon=0.2, beta=50.0))
    assert big_beta == pytest.approx(no_beta, abs=1e-12)


def test_objective_permutation_invariant():
    group = _group([0.5, 2.5, 1.0, 3.5], [1.3, 0.7, 1.0, 1.15])
    cfg = GrpoConfig()
    order = [2, 0, 3, 1]
    shuffled = RolloutGroup(
        prompt_id=group.prompt_id,
        completions=tuple(group.completions[i] for i in order),
        advantages=tuple(group.advantages[i] for i in order),
    )
    assert group_objective(shuffled, cfg) == pytest.approx(
        group_objective(group, cfg), abs=1e-12
    )


def test_objective_missing_logprobs():
    bare = RolloutGroup(
        prompt_id="p",
        completions=(
            Completion(text="a", reward=1.0),
            Completion(text="b", reward=2.0),
        ),
    )
    filled = fill_advantages(bare)
    with pytest.raises(MissingLogProbs):
        group_objective(filled, GrpoConfig())
    with pytest.raises(ValueError):
        group_objective(bare, GrpoConfig())


def test_objective_logp_length_mismatch():
    completion = Completion(
        text="a", reward=1.0,
        logp_cur=(0.0, 0.0), logp_old=(0.0,), logp_ref=(0.0, 0.0),
    )
    other = Completion(
        text="b", reward=2.0,
        logp_cur=(0.0,), logp_old=(0.0,), logp_ref=(0.0,),
    )
    group = fill_advantages(
        RolloutGroup(prompt_id="p", completions=(completion, other))
    )
    with pytest.raises(LengthMismatch):
        group_objective(group, GrpoConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        GrpoConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        GrpoConfig(beta=-0.1)
