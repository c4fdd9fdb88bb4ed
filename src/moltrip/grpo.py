"""Group-relative policy optimization primitives.

Rewards inside a group of completions are normalized to zero-mean,
unit-variance advantages; the per-group objective combines the pessimistic
PPO clip with a non-negative per-token KL estimate against a reference
policy.  Everything here is pure arithmetic over immutable groups.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import LengthMismatch
from .records import checked

DEFAULT_EPSILON = 0.2
DEFAULT_BETA = 1e-3


class GroupTooSmall(ValueError):
    """Advantage normalization needs at least two completions."""


class MissingLogProbs(ValueError):
    """A completion lacks log-probabilities for some policy."""


class Completion(NamedTuple):
    """One sampled completion with per-token log-probs under three policies."""

    text: str
    reward: float
    logp_cur: tuple[float, ...] | None = None
    logp_old: tuple[float, ...] | None = None
    logp_ref: tuple[float, ...] | None = None


class RolloutGroup(NamedTuple):
    """All completions sampled for one prompt, plus filled advantages.

    The prompt_id doubles as the conditioning state for tabular policies;
    snapshot_id records which frozen old-policy snapshot produced the draws.
    """

    prompt_id: str
    completions: tuple[Completion, ...]
    advantages: tuple[float, ...] | None = None
    snapshot_id: int | None = None

    @property
    def degenerate(self) -> bool:
        """Advantages filled and all zero: the rewards gave no signal."""
        return self.advantages is not None and not any(self.advantages)


@checked
class GrpoConfig(NamedTuple):
    epsilon: float = DEFAULT_EPSILON
    beta: float = DEFAULT_BETA

    def _check(self) -> None:
        # each bound is written so that nan fails it
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, not {self.epsilon!r}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be >= 0 and finite, not {self.beta!r}")


def group_advantages(rewards: list[float]) -> tuple[list[float], bool]:
    """Zero-mean unit-variance advantages; zero-variance groups flag degenerate."""
    if len(rewards) < 2:
        raise GroupTooSmall(f"group of {len(rewards)} rewards")
    if any(not math.isfinite(r) for r in rewards):
        raise ValueError("rewards must be finite")
    n = len(rewards)
    # a constant group has no gradient signal; catch it before the mean
    # subtraction turns rounding dust into huge normalized advantages
    if max(rewards) == min(rewards):
        return [0.0] * n, True
    mean = sum(rewards) / n
    variance = sum((r - mean) ** 2 for r in rewards) / n
    return [(r - mean) / math.sqrt(variance) for r in rewards], False


def fill_advantages(group: RolloutGroup) -> RolloutGroup:
    advantages, _ = group_advantages([c.reward for c in group.completions])
    return group._replace(advantages=tuple(advantages))


def ppo_clip(ratio: float, advantage: float, epsilon: float) -> float:
    """min{r*A, max{min{r, 1+eps}, 1-eps}*A}, exactly as stated."""
    if not epsilon > 0:  # nan too, which would clip nothing
        raise ValueError(f"epsilon must be > 0, not {epsilon!r}")
    clamped = max(min(ratio, 1.0 + epsilon), 1.0 - epsilon)
    return min(ratio * advantage, clamped * advantage)


def kl_estimate(logp_ref: list[float], logp_cur: list[float]) -> float:
    """Token-averaged k3 estimator exp(d) - d - 1 with d = logp_ref - logp_cur."""
    if len(logp_ref) != len(logp_cur):
        raise LengthMismatch(
            f"{len(logp_ref)} reference tokens but {len(logp_cur)} current"
        )
    if not logp_ref:
        return 0.0
    total = 0.0
    for ref, cur in zip(logp_ref, logp_cur):
        d = ref - cur
        total += math.exp(d) - d - 1.0
    return total / len(logp_ref)


def _require_logps(completion: Completion) -> tuple[tuple[float, ...], ...]:
    triple = (completion.logp_cur, completion.logp_old, completion.logp_ref)
    if any(t is None for t in triple):
        raise MissingLogProbs(f"completion {completion.text!r} lacks log-probs")
    cur, old, ref = triple
    if not (len(cur) == len(old) == len(ref)):
        raise LengthMismatch(
            f"log-prob lengths differ for completion {completion.text!r}"
        )
    return cur, old, ref


def group_objective(group: RolloutGroup, cfg: GrpoConfig) -> float:
    """J = sum_i (1/|y_i|) sum_t [clip(ratio, A_i, eps) - beta * k3_t]."""
    if group.advantages is None:
        raise ValueError("group advantages not filled")
    total = 0.0
    for completion, advantage in zip(group.completions, group.advantages):
        cur, old, ref = _require_logps(completion)
        if not cur:
            continue
        inner = 0.0
        for t in range(len(cur)):
            ratio = math.exp(cur[t] - old[t])
            d = ref[t] - cur[t]
            kl_term = math.exp(d) - d - 1.0
            inner += ppo_clip(ratio, advantage, cfg.epsilon) - cfg.beta * kl_term
        total += inner / len(cur)
    return total
