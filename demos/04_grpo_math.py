"""Group-relative policy optimization, one piece at a time.

A group of completions sampled for the same prompt is normalized to
zero-mean unit-variance advantages, each token contributes a clipped
importance-ratio term, and a non-negative k3 estimate penalizes drift
from the reference policy.  This demo exercises each primitive on
hand-sized numbers, then assembles a full group objective.
"""

from __future__ import annotations

import math

from moltrip.grpo import (
    Completion,
    GrpoConfig,
    RolloutGroup,
    fill_advantages,
    group_advantages,
    group_objective,
    kl_estimate,
    ppo_clip,
)

print("= group-relative advantages =")
rewards = [4.0, 1.0, 1.0, 0.0]
advantages, degenerate = group_advantages(rewards)
print(f"  rewards    {rewards}")
print(f"  advantages {[round(a, 4) for a in advantages]}")
print(f"  mean {sum(advantages):+.2e}  "
      f"std {math.sqrt(sum(a * a for a in advantages) / len(advantages)):.6f}  "
      f"degenerate {degenerate}")

flat, degenerate = group_advantages([2.5, 2.5, 2.5])
print(f"  constant group -> advantages {flat}, degenerate {degenerate}")

print()
print("= PPO clip at epsilon 0.2 =")
print("  the clip is pessimistic: it never rewards pushing the ratio")
print("  further than 1 +/- epsilon in the direction the advantage favours")
for ratio, advantage in ((1.0, 1.0), (1.5, 1.0), (0.5, 1.0), (1.5, -1.0), (0.5, -1.0)):
    value = ppo_clip(ratio, advantage, epsilon=0.2)
    print(f"  ratio {ratio:4.2f}  advantage {advantage:+4.1f}  ->  {value:+.3f}")

print()
print("= k3 KL estimate =")
print("  exp(d) - d - 1 with d = logp_ref - logp_cur, averaged over tokens;")
print("  zero when the policies agree, positive in either direction of drift")
agree = [math.log(0.5), math.log(0.25)]
print(f"  identical policies     -> {kl_estimate(agree, agree):.6f}")
drift_up = [math.log(0.5), math.log(0.25)]
cur_up = [math.log(0.7), math.log(0.4)]
print(f"  current moved up       -> {kl_estimate(drift_up, cur_up):.6f}")
cur_down = [math.log(0.3), math.log(0.1)]
print(f"  current moved down     -> {kl_estimate(drift_up, cur_down):.6f}")

print()
print("= assembling a group objective =")
cfg = GrpoConfig(epsilon=0.2, beta=1e-3)


def completion(text: str, reward: float, cur: float, old: float, ref: float) -> Completion:
    # single-token completions keep the arithmetic inspectable by hand
    return Completion(
        text=text,
        reward=reward,
        logp_cur=(math.log(cur),),
        logp_old=(math.log(old),),
        logp_ref=(math.log(ref),),
    )


group = RolloutGroup(
    prompt_id="describe CCO",
    completions=(
        completion("ethanol", 4.0, cur=0.50, old=0.40, ref=0.45),
        completion("an alcohol", 1.0, cur=0.20, old=0.25, ref=0.25),
        completion("a solvent", 1.0, cur=0.15, old=0.20, ref=0.15),
        completion("benzene", 0.0, cur=0.05, old=0.10, ref=0.10),
    ),
)
group = fill_advantages(group)
print(f"  prompt {group.prompt_id!r}, {len(group.completions)} completions")
for c, a in zip(group.completions, group.advantages):
    ratio = math.exp(c.logp_cur[0] - c.logp_old[0])
    kl = kl_estimate(list(c.logp_ref), list(c.logp_cur))
    term = ppo_clip(ratio, a, cfg.epsilon) - cfg.beta * kl
    print(f"    {c.text!r:13} reward {c.reward:3.1f}  advantage {a:+.3f}  "
          f"ratio {ratio:.3f}  kl {kl:.5f}  term {term:+.4f}")

objective = group_objective(group, cfg)
print(f"  group objective J = {objective:+.6f}")

print()
print("= the beta knob trades reward chasing against reference drift =")
for beta in (0.0, 1e-3, 1.0, 10.0):
    value = group_objective(group, GrpoConfig(epsilon=0.2, beta=beta))
    print(f"  beta {beta:6.3f}  ->  J = {value:+.6f}")
