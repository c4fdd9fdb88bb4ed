"""Desk-scale round-trip task: eight molecules, twelve captions.

The captioner picks one of twelve captions per molecule (eight informative,
four decoys).  The generator writes a fixed-length string token by token
from a small SMILES alphabet, so most random rollouts are malformed, valid
strings are uncommon, and exact matches are exponentially rare.  That
geometry is the point: shaped rewards can climb from validity through
similarity to exactness, while an exact-match-only signal almost never
fires.  The fixed length keeps sampling odds flat across competing strings
instead of favoring short ones.  Everything is tabular and exactly
reproducible from a seed.
"""

from __future__ import annotations

from typing import NamedTuple

from .adapters import TabularPolicy, TokenSequencePolicy
from .chem import canonicalize
from .dataset import PairRecord
from .harness import HarnessConfig, TrainingLog, run_training
from .grpo import GrpoConfig

TOY_MOLECULES = (
    "CCCC", "CCCO", "CCCN", "CCOC", "CCNC", "OCCO", "CC=O", "CC#N",
)

INFORMATIVE_CAPTIONS = (
    "butane, a four carbon alkane",
    "propanol, a three carbon alcohol",
    "propylamine, a three carbon amine",
    "ethyl methyl ether, a mixed ether",
    "methylethylamine, a secondary amine",
    "ethylene glycol, a sweet diol",
    "acetaldehyde, a two carbon aldehyde",
    "acetonitrile, a common solvent nitrile",
)

DECOY_CAPTIONS = (
    "a molecule",
    "an organic compound of note",
    "a colorless substance",
    "sample with no recorded label",
)

TOY_CAPTIONS = INFORMATIVE_CAPTIONS + DECOY_CAPTIONS

TOY_VOCAB = ("C", "N", "O", "S", "F", "=", "#", "(", ")", "1", "2")
TOY_MAX_TOKENS = 4


class ToyTask(NamedTuple):
    captioner: TabularPolicy
    generator: TokenSequencePolicy
    pairs: tuple[PairRecord, ...]


def build_toy_task() -> ToyTask:
    molecules = tuple(canonicalize(m) for m in TOY_MOLECULES)
    captioner = TabularPolicy.uniform(molecules, TOY_CAPTIONS)
    generator = TokenSequencePolicy(
        prompts=TOY_CAPTIONS, vocab=TOY_VOCAB, max_tokens=TOY_MAX_TOKENS
    )
    pairs = tuple(
        PairRecord(smiles=mol, caption=cap, id=f"toy-{i}")
        for i, (mol, cap) in enumerate(zip(molecules, INFORMATIVE_CAPTIONS))
    )
    return ToyTask(captioner=captioner, generator=generator, pairs=pairs)


def build_toy_config(
    seed: int = 0,
    max_steps: int = 200,
    reward_mode: str = "shaped",
) -> HarnessConfig:
    """Loop settings sized for the toy tables.

    The learning rate is far above the deep-model default because a toy
    logit table needs whole-unit moves.  One long generator phase runs
    before the captioner trains so caption scores come from a competent
    reconstructor.  Early stopping is disabled (rewards live in [0, 4], so
    a windowed drop can never reach 4): the mean-reward series cliffs at
    the phase switch, which would otherwise read as regression.
    """
    return HarnessConfig(
        batch_size=8,
        mini_batch=64,
        steps_per_phase=100,
        rollout_n=128,
        group_size_g=32,
        recon_samples_m=1,
        grpo=GrpoConfig(beta=0.01),
        lr=0.05,
        max_steps=max_steps,
        seed=seed,
        convergence_window=10,
        convergence_tol=-4.0,
        reward_mode=reward_mode,
    )


class ToyResult(NamedTuple):
    log: TrainingLog
    task: ToyTask


def run_toy(
    seed: int = 0,
    max_steps: int = 200,
    reward_mode: str = "shaped",
) -> ToyResult:
    task = build_toy_task()
    cfg = build_toy_config(seed=seed, max_steps=max_steps, reward_mode=reward_mode)
    log = run_training(task.captioner, task.generator, list(task.pairs), cfg)
    return ToyResult(log=log, task=task)
