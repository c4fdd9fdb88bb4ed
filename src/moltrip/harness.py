"""Coupled captioner/generator training at desk scale.

The loop alternates phases: the generator is trained to reconstruct
molecules from reference captions, then the captioner is trained against a
frozen generator snapshot that scores its candidate captions by round-trip
reconstruction.  Each phase samples, scores, groups and takes exact GRPO
steps on the policy.  One ScoreCache per run prepares each distinct
string once while it stays cached, and each phase scores a group's draws
through ScoreCache.score_all, once per distinct text: draws of the same
text share its breakdown.
Every sample is seeded, so a (config, seed) pair reproduces the full log
bit for bit.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .adapters import AdapterFailure, TabularPolicy
from .dataset import IoFailure, PairRecord, atomic_writer
from .fingerprints import extend_hash, stable_hash
from .grpo import Completion, GrpoConfig, RolloutGroup, fill_advantages
from .metrics import (
    EvalReport,
    RoundTripSample,
    ScoreBreakdown,
    ScoreCache,
    aggregate_report,
    round_trip_rate,
)
from .records import Checked

REWARD_MODES = ("shaped", "exact_only")


class _HarnessFields(NamedTuple):
    batch_size: int = 128
    mini_batch: int = 64
    steps_per_phase: int = 1    # k: consecutive steps before switching phase
    rollout_n: int = 32         # n: generator reconstructions per pair
    group_size_g: int = 32      # G: captions per molecule in captioner groups
    recon_samples_m: int = 1    # m: frozen-generator samples per caption
    update_epochs: int = 1  # passes over a step's groups; clip caps movement
    grpo: GrpoConfig = GrpoConfig()
    lr: float = 1e-6
    max_steps: int = 100
    seed: int = 0
    convergence_window: int = 10
    convergence_tol: float = 1e-3
    reward_mode: str = "shaped"


class HarnessConfig(Checked, _HarnessFields):
    """Loop shape and optimizer settings; defaults follow the usual table."""

    __slots__ = ()

    def _check(self) -> None:
        for name in ("batch_size", "mini_batch", "steps_per_phase",
                     "rollout_n", "group_size_g", "recon_samples_m",
                     "update_epochs", "convergence_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"reward_mode must be one of {REWARD_MODES}")


EVAL_TEMPERATURE = 0.0  # evaluation is greedy: each policy's likeliest output


class StepRecord(NamedTuple):
    """One step's statistics.  The phase functions return it with step 0;
    run_training numbers it as it appends it to the log."""

    phase: str
    step: int
    mean_reward: float
    validity_rate: float
    exact_rate: float
    degenerate_fraction: float
    snapshot_id: int


class TrainingLog(NamedTuple):
    records: tuple[StepRecord, ...]
    converged: bool
    final_round_trip: float
    final_report: EvalReport

    def to_records(self) -> dict:
        return {
            "steps": [r._asdict() for r in self.records],
            "converged": self.converged,
            "final_round_trip": self.final_round_trip,
            "final_report": self.final_report.to_record(),
        }


def _reward(breakdown: ScoreBreakdown, mode: str) -> float:
    if mode == "exact_only":
        return 1.0 if breakdown.exact else 0.0
    return breakdown.total


class TaggedGroup(NamedTuple):
    """A rollout group plus the context the export file must carry."""

    group_id: str
    phase: str
    reference: str  # the molecule the rewards were scored against
    group: RolloutGroup


def _stats(
    phase: str,
    groups: list[RolloutGroup],
    breakdowns: list[ScoreBreakdown],
    snapshot_id: int,
) -> StepRecord:
    rewards = [c.reward for g in groups for c in g.completions]
    return StepRecord(
        phase=phase,
        step=0,
        mean_reward=sum(rewards) / len(rewards),
        validity_rate=sum(1 for b in breakdowns if b.valid) / len(breakdowns),
        exact_rate=sum(1 for b in breakdowns if b.exact) / len(breakdowns),
        degenerate_fraction=sum(1 for g in groups if g.degenerate) / len(groups),
        snapshot_id=snapshot_id,
    )


def _apply_updates(
    policy: TabularPolicy,
    groups: list[RolloutGroup],
    cfg: HarnessConfig,
) -> None:
    for _ in range(cfg.update_epochs):
        for start in range(0, len(groups), cfg.mini_batch):
            policy.grpo_step(groups[start:start + cfg.mini_batch], cfg.grpo, cfg.lr)


def generator_phase(
    generator: TabularPolicy,
    batch: list[PairRecord],
    cfg: HarnessConfig,
    seed: int,
    cache: ScoreCache | None = None,
) -> StepRecord:
    """One generator step: n reconstructions per pair, grouped per pair."""
    cache = cache if cache is not None else ScoreCache()
    generator.snapshot_old()
    groups: list[RolloutGroup] = []
    breakdowns: list[ScoreBreakdown] = []
    for j, pair in enumerate(batch):
        try:
            draws = generator.sample(
                pair.caption, cfg.rollout_n,
                seed=stable_hash("gen", seed, j), table="old",
            )
            scored = cache.score_all(pair.smiles, [d.text for d in draws])
            breakdowns.extend(scored)
            completions = [
                Completion(text=draw.text, reward=_reward(b, cfg.reward_mode))
                for draw, b in zip(draws, scored)
            ]
        except Exception as exc:
            raise AdapterFailure(
                f"generator phase, pair {pair.id or j}: {exc}"
            ) from exc
        groups.append(fill_advantages(RolloutGroup(
            prompt_id=pair.caption,
            completions=tuple(completions),
            snapshot_id=generator.old_snapshot_id,
        )))
    _apply_updates(generator, groups, cfg)
    return _stats("generator", groups, breakdowns, generator.old_snapshot_id)


def captioner_phase(
    captioner: TabularPolicy,
    generator: TabularPolicy,
    batch: list[PairRecord],
    cfg: HarnessConfig,
    seed: int,
    cache: ScoreCache | None = None,
) -> StepRecord:
    """One captioner step against the frozen generator snapshot.

    G captions per molecule form the group, each scored by the mean
    reconstruction over m samples from the generator's old table; the
    snapshot is refreshed only after the update, never inside the step.
    """
    cache = cache if cache is not None else ScoreCache()
    captioner.snapshot_old()
    frozen_id = generator.old_snapshot_id
    groups: list[RolloutGroup] = []
    breakdowns: list[ScoreBreakdown] = []
    for j, pair in enumerate(batch):
        try:
            captions = captioner.sample(
                pair.smiles, cfg.group_size_g,
                seed=stable_hash("cap", seed, j), table="old",
            )
            recon_head = stable_hash("recon", seed, j)
            m = cfg.recon_samples_m
            recon = [
                draw.text
                for g, caption in enumerate(captions)
                for draw in generator.sample(
                    caption.text, m, seed=extend_hash(recon_head, g), table="old",
                )
            ]
            scored = cache.score_all(pair.smiles, recon)
            breakdowns.extend(scored)
            completions = []
            for g, caption in enumerate(captions):
                total = 0.0
                for breakdown in scored[g * m:(g + 1) * m]:
                    total += _reward(breakdown, cfg.reward_mode)
                completions.append(Completion(text=caption.text, reward=total / m))
        except Exception as exc:
            raise AdapterFailure(
                f"captioner phase, pair {pair.id or j}: {exc}"
            ) from exc
        groups.append(fill_advantages(RolloutGroup(
            prompt_id=pair.smiles,
            completions=tuple(completions),
            snapshot_id=captioner.old_snapshot_id,
        )))
    _apply_updates(captioner, groups, cfg)
    generator.snapshot_old()  # the frozen copy tracks the live model
    return _stats("captioner", groups, breakdowns, frozen_id)


def evaluate_round_trip(
    captioner: TabularPolicy,
    generator: TabularPolicy,
    pairs: list[PairRecord],
    cfg: HarnessConfig,
    cache: ScoreCache | None = None,
) -> tuple[float, EvalReport, list[RoundTripSample]]:
    """Greedy caption -> reconstruct -> score over a pair set."""
    cache = cache if cache is not None else ScoreCache()
    samples = []
    for j, pair in enumerate(pairs):
        caption = captioner.sample(
            pair.smiles, 1,
            seed=stable_hash("eval-cap", cfg.seed, j),
            temperature=EVAL_TEMPERATURE,
        )[0].text
        reconstruction = generator.sample(
            caption, 1,
            seed=stable_hash("eval-gen", cfg.seed, j),
            temperature=EVAL_TEMPERATURE,
        )[0].text
        samples.append(RoundTripSample(
            original=pair.smiles,
            caption=caption,
            reconstruction=reconstruction,
            score=cache.score(pair.smiles, reconstruction),
        ))
    return round_trip_rate(samples), aggregate_report(samples), samples


def _batches(pairs: list[PairRecord], size: int, seed: int):
    """Endless seeded batch stream; reshuffles at every epoch boundary."""
    rng = random.Random(stable_hash("batches", seed))
    pool: list[PairRecord] = []
    while True:
        if len(pool) < size:
            refill = list(pairs)
            rng.shuffle(refill)
            pool.extend(refill)
        batch, pool = pool[:size], pool[size:]
        yield batch


def run_training(
    captioner: TabularPolicy,
    generator: TabularPolicy,
    pairs: list[PairRecord],
    cfg: HarnessConfig,
    holdout: list[PairRecord] | None = None,
) -> TrainingLog:
    """Alternate k generator steps and k captioner steps until done.

    Step s trains the generator when s // k is even, else the captioner.
    Convergence: the mean reward over the latest window improves on the
    previous window by less than the tolerance (needs two full windows).
    """
    if not pairs:
        raise ValueError("dataset is empty")
    holdout = holdout if holdout is not None else pairs
    cache = ScoreCache()
    batch_stream = _batches(pairs, min(cfg.batch_size, len(pairs)), cfg.seed)
    records: list[StepRecord] = []
    history: list[float] = []
    w = cfg.convergence_window
    converged = False
    generator.snapshot_old()  # initial frozen copy for the first captioner step
    for step in range(cfg.max_steps):
        batch = next(batch_stream)
        phase_seed = stable_hash("step", cfg.seed, step)
        if step // cfg.steps_per_phase % 2 == 0:
            stats = generator_phase(generator, batch, cfg, phase_seed, cache)
        else:
            stats = captioner_phase(
                captioner, generator, batch, cfg, phase_seed, cache
            )
        records.append(stats._replace(step=step))
        history.append(stats.mean_reward)
        if len(history) >= 2 * w and (
            sum(history[-w:]) / w - sum(history[-2 * w:-w]) / w
            < cfg.convergence_tol
        ):
            converged = True
            break
    rate, report, _ = evaluate_round_trip(
        captioner, generator, holdout, cfg, cache
    )
    return TrainingLog(
        records=tuple(records),
        converged=converged,
        final_round_trip=rate,
        final_report=report,
    )


# ---------------------------------------------------------------------------
# rollout export

def export_rollouts(tagged: list[TaggedGroup], path: str) -> None:
    """Write line-delimited rollout records atomically."""
    for item in tagged:
        if item.group.advantages is None:
            raise ValueError(f"group {item.group_id} has no advantages")
    try:
        with atomic_writer(path) as handle:
            for item in tagged:
                for completion, advantage in zip(
                    item.group.completions, item.group.advantages
                ):
                    handle.write(json.dumps({
                        "group": item.group_id,
                        "phase": item.phase,
                        "prompt": item.group.prompt_id,
                        "reference": item.reference,
                        "completion": completion.text,
                        "reward": completion.reward,
                        "advantage": advantage,
                        "snapshot": item.group.snapshot_id,
                    }) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write rollouts to {path}: {exc}") from exc


_ROLLOUT_KEYS = (
    "group", "phase", "prompt", "reference", "completion", "reward",
    "advantage", "snapshot",
)


def read_rollouts(path: str) -> list[TaggedGroup]:
    """Rebuild tagged groups from an export file, preserving group order.

    A line that is not a JSON object with every exported key raises
    ValueError naming path:line.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read rollouts from {path}: {exc}") from exc
    buckets: dict[str, list[dict]] = {}  # insertion order is file order
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{line_no}: not a JSON line: {exc}") from None
        if not isinstance(row, dict):
            raise ValueError(f"{path}:{line_no}: not a JSON object")
        missing = [key for key in _ROLLOUT_KEYS if key not in row]
        if missing:
            raise ValueError(f"{path}:{line_no}: missing {', '.join(missing)}")
        buckets.setdefault(row["group"], []).append(row)
    out: list[TaggedGroup] = []
    for gid, rows in buckets.items():
        completions = tuple(
            Completion(text=r["completion"], reward=r["reward"]) for r in rows
        )
        advantages = tuple(r["advantage"] for r in rows)
        group = RolloutGroup(
            prompt_id=rows[0]["prompt"],
            completions=completions,
            advantages=advantages,
            degenerate=all(a == 0.0 for a in advantages),
            snapshot_id=rows[0]["snapshot"],
        )
        out.append(TaggedGroup(
            group_id=gid,
            phase=rows[0]["phase"],
            reference=rows[0]["reference"],
            group=group,
        ))
    return out

