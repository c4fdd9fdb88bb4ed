"""Acceptance criteria, one verdict line per criterion on the terminal.

Each criterion test prints exactly one PASS/FAIL line (with the measured
numbers) through the capture-disabled channel, then asserts.  Criteria run
in numeric order; the training-loop criterion is the long pole, and the
full-log pins beside it reuse its two runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time

import pytest

from moltrip.adapters import EchoAdapter, TabularPolicy, tabular_gradient
from moltrip.chem import canonicalize, parse_smiles, render_random
from moltrip.cli import main
from moltrip.dataset import PairRecord, SplitSpec, dedupe_overlap, diagnostic_filter, split
from moltrip.fingerprints import FeatureSet, tanimoto
from moltrip.grpo import Completion, GrpoConfig, RolloutGroup, fill_advantages
from moltrip.metrics import bleu, meteor_lite, reconstruction_score
from moltrip.theory import check_mi_bound, random_system
from moltrip.toy import run_toy

from oracles import bleu_reference, tabular_objective
from rows import set_logit


@pytest.fixture
def verdict(capsys):
    def emit(number: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")

    return emit


def test_criterion_01_parser_fixed_point(corpus, verdict):
    rng = random.Random(101)
    started = time.perf_counter()
    failures = 0
    for smiles in corpus:
        canonical = canonicalize(smiles)
        if canonicalize(canonical) != canonical:
            failures += 1
            continue
        mol = parse_smiles(smiles)
        for _ in range(20):
            if canonicalize(render_random(mol, rng)) != canonical:
                failures += 1
                break
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 5.0
    verdict(1, ok, (
        f"canonical fixed point on {len(corpus)} molecules x 20 re-renderings, "
        f"{failures} failures, {elapsed:.2f}s (< 5s)"
    ))
    assert ok


def test_criterion_02_validity_gate(corpus, verdict):
    rng = random.Random(202)
    sampled = rng.sample(corpus, 100)
    breakers = ("(", "=", "#", "q")
    gate_violations = 0
    for i, valid in enumerate(sampled):
        malformed = valid + breakers[i % len(breakers)]
        if reconstruction_score(valid, malformed).total != 0.0:
            gate_violations += 1
    identity_violations = sum(
        1 for valid in sampled
        if reconstruction_score(valid, valid).total != 4.0
    )
    ok = gate_violations == 0 and identity_violations == 0
    verdict(2, ok, (
        f"100 malformed candidates all score 0, 100 identity pairs all "
        f"score exactly 4.0 ({gate_violations + identity_violations} violations)"
    ))
    assert ok


def test_criterion_03_tanimoto_axioms(verdict):
    rng = random.Random(303)

    def feature_set() -> FeatureSet:
        size = rng.randint(1, 40)
        features = frozenset(rng.randrange(2**61) for _ in range(size))
        return FeatureSet(features=features, family="morgan", params=(2,))

    worst = 0.0
    violations = 0
    for _ in range(1000):
        a, b = feature_set(), feature_set()
        forward, backward = tanimoto(a, b), tanimoto(b, a)
        if not (0.0 <= forward <= 1.0) or forward != backward:
            violations += 1
        worst = max(worst, abs(tanimoto(a, a) - 1.0), abs(tanimoto(b, b) - 1.0))
    ok = violations == 0 and worst <= 1e-12
    verdict(3, ok, (
        f"1000 random pairs: range and symmetry hold, self-similarity "
        f"within {worst:.1e} of 1 (<= 1e-12)"
    ))
    assert ok


def test_criterion_04_grpo_normalization(verdict):
    rng = random.Random(404)
    worst_mean = 0.0
    worst_std = 0.0
    for _ in range(1000):
        rewards = [rng.uniform(0.0, 4.0) for _ in range(32)]
        group = fill_advantages(RolloutGroup(
            prompt_id="g",
            completions=tuple(Completion(text="t", reward=r) for r in rewards),
        ))
        adv = group.advantages
        mean = sum(adv) / len(adv)
        std = math.sqrt(sum((a - mean) ** 2 for a in adv) / len(adv))
        worst_mean = max(worst_mean, abs(mean))
        worst_std = max(worst_std, abs(std - 1.0))
    flat = fill_advantages(RolloutGroup(
        prompt_id="g",
        completions=tuple(Completion(text="t", reward=2.5) for _ in range(32)),
    ))
    zeros = all(a == 0.0 for a in flat.advantages) and flat.degenerate
    ok = worst_mean < 1e-9 and worst_std < 1e-9 and zeros
    verdict(4, ok, (
        f"1000 size-32 groups: |mean| <= {worst_mean:.1e} (< 1e-9), "
        f"|std - 1| <= {worst_std:.1e} (< 1e-9), zero-variance -> zeros"
    ))
    assert ok


def test_criterion_05_tabular_gradient(verdict):
    rng = random.Random(505)
    states, actions = ("s0", "s1", "s2"), ("a0", "a1", "a2", "a3")
    policy = TabularPolicy(
        states=states, actions=actions,
        logits=[[rng.uniform(-0.5, 0.5) for _ in actions] for _ in states],
    )
    policy.snapshot_old()
    for s, row in enumerate(policy.logits):
        for a in range(len(row)):
            set_logit(policy, s, a, row[a] + rng.uniform(-0.15, 0.15))
    cfg = GrpoConfig(epsilon=0.2, beta=0.05)
    groups = []
    for state in states:
        completions = tuple(
            Completion(text=rng.choice(actions), reward=rng.uniform(0, 4))
            for _ in range(8)
        )
        groups.append(fill_advantages(RolloutGroup(
            prompt_id=state, completions=completions,
            snapshot_id=policy.old_snapshot_id,
        )))
    grad = tabular_gradient(policy, groups, cfg)
    h = 1e-5
    worst = 0.0
    for s in range(len(states)):
        for a in range(len(actions)):
            kept = policy.logits[s][a]
            set_logit(policy, s, a, kept + h)
            up = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept - h)
            down = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept)
            worst = max(worst, abs((up - down) / (2 * h) - grad[s][a]))
    ok = worst < 1e-6
    verdict(5, ok, (
        f"analytic gradient vs central differences on 3x4 policy: "
        f"max abs error {worst:.2e} (< 1e-6)"
    ))
    assert ok


def test_criterion_06_mi_bound(verdict):
    rng = random.Random(7)
    started = time.perf_counter()
    reports = [check_mi_bound(random_system(rng, 6)) for _ in range(100)]
    elapsed = time.perf_counter() - started
    held = sum(
        1 for r in reports
        if r.holds and r.mi >= r.ba_bound - 1e-9 and r.mi >= r.mi_lower - 1e-9
    )
    control = reports[0]
    corrupted_mi = min(control.ba_bound, control.mi_lower) - 0.5
    corrupted = control._replace(
        mi=corrupted_mi,
        holds=(corrupted_mi >= control.mi_lower - 1e-9
               and corrupted_mi >= control.ba_bound - 1e-9),
    )
    ok = held == 100 and not corrupted.holds and elapsed < 10.0
    verdict(6, ok, (
        f"{held}/100 seeded systems satisfy the bound chain within 1e-9, "
        f"corrupted control fails, {elapsed:.2f}s (< 10s)"
    ))
    assert ok


@pytest.fixture(scope="module")
def toy_runs():
    """The two 200-step toy runs, shared by criterion 7 and the log pins;
    the wall time covers the shaped run alone."""
    started = time.perf_counter()
    shaped = run_toy(seed=0, max_steps=200, reward_mode="shaped")
    elapsed = time.perf_counter() - started
    sparse = run_toy(seed=0, max_steps=200, reward_mode="exact_only")
    return {"shaped": shaped, "exact_only": sparse, "elapsed": elapsed}


def test_criterion_07_toy_training(toy_runs, verdict):
    shaped, sparse, elapsed = (
        toy_runs["shaped"], toy_runs["exact_only"], toy_runs["elapsed"]
    )
    shaped_rate = shaped.log.final_round_trip
    sparse_rate = sparse.log.final_round_trip
    ok = (
        shaped_rate >= 0.9
        and len(shaped.log.records) <= 200
        and elapsed < 60.0
        and sparse_rate < 0.5
    )
    verdict(7, ok, (
        f"shaped reward reaches round trip {shaped_rate:.3f} (>= 0.9) in "
        f"{len(shaped.log.records)} steps, {elapsed:.1f}s (< 60s); "
        f"exact-match-only ablation reaches {sparse_rate:.3f} (< 0.5)"
    ))
    assert ok


# sha256 of json.dumps(log.to_records(), sort_keys=True) for each full run,
# recorded with the counter-based draw stream and the row-aggregated gradient
PINNED_TOY_LOG_DIGESTS = {
    "shaped": "362fbd50f77cd3210706536f25273a35df4f191561d9ccd0f7cee0d6c04044a9",
    "exact_only": "df2b842da4b354a0eb9b7f8507200a0f037aa7bc3e76b98e26a06cd96907d5d2",
}


@pytest.mark.parametrize("mode", sorted(PINNED_TOY_LOG_DIGESTS))
def test_criterion_07_full_training_log_is_pinned(toy_runs, mode):
    body = json.dumps(toy_runs[mode].log.to_records(), sort_keys=True).encode()
    assert hashlib.sha256(body).hexdigest() == PINNED_TOY_LOG_DIGESTS[mode]


def test_criterion_08_echo_eval(corpus, tmp_path, capsys, verdict):
    pairs_path = tmp_path / "pairs.jsonl"
    with open(pairs_path, "w", encoding="utf-8") as handle:
        for smiles in corpus:
            handle.write(json.dumps(
                {"smiles": smiles, "caption": canonicalize(smiles)}
            ) + "\n")
    code = main(["eval", "--pairs", str(pairs_path)])
    stdout = capsys.readouterr().out
    wanted = (
        f"samples {len(corpus)}", "exact_pct 100.0", "validity_pct 100.0",
        "sim_keys 1.0", "sim_path 1.0", "sim_morgan 1.0",
    )
    ok = code == 0 and all(line in stdout for line in wanted)
    verdict(8, ok, (
        "echo generator on canonical captions: eval reports exact 100%, "
        "validity 100%, all similarities 1.000"
    ))
    assert ok


def test_criterion_09_dataset_ops(verdict):
    big = [PairRecord(smiles="C", caption=f"c{i}", id=str(i))
           for i in range(33_010)]
    train, val, test = split(big, SplitSpec(seed=0))
    sizes_ok = (len(train), len(val), len(test)) == (26_408, 3_301, 3_301)

    deduped = dedupe_overlap(
        [PairRecord(smiles="OCC", caption="spelled backwards")],
        [PairRecord(smiles="CCO", caption="ethanol")],
    )
    dedupe_ok = deduped.kept == () and len(deduped.removed) == 1

    family_a = ["CCO", "CCCC", "CCN", "CC(=O)O", "CCCCO",
                "CCOC", "CC(C)C", "OCCO", "CC=O", "CC#N"]
    family_b = ["c1ccccc1", "c1ccc(Cl)cc1", "[NH4+].[Cl-]", "OS(=O)(=O)O",
                "c1ccncc1", "FC(F)(F)F", "[Na+].[Cl-]", "c1ccc2ccccc2c1",
                "N#N", "O=S=O"]
    clean = [PairRecord(smiles=s, caption=canonicalize(s), id=f"clean{i}")
             for i in range(50) for s in (family_a[i % 10],)]
    scrambled = [PairRecord(smiles=family_a[i % 10],
                            caption=canonicalize(family_b[(i + 3) % 10]),
                            id=f"scrambled{i}")
                 for i in range(50)]
    result = diagnostic_filter(clean + scrambled, EchoAdapter(), tau=2.0)
    filter_ok = (set(result.kept) == set(clean)
                 and set(result.rejected) == set(scrambled))

    ok = sizes_ok and dedupe_ok and filter_ok
    verdict(9, ok, (
        f"split 33,010 -> {len(train)}/{len(val)}/{len(test)}, dedupe drops "
        f"canonical duplicates, filter at tau=2 recovers exactly the clean "
        f"half of the 50%-scrambled fixture"
    ))
    assert ok


def test_criterion_10_text_metrics(verdict):
    rng = random.Random(1010)
    vocab = ("ring", "carbon", "acid", "ester", "chain", "aromatic",
             "hydroxyl", "amine", "branched", "short")

    def sentence(words: int) -> str:
        return " ".join(rng.choice(vocab) for _ in range(words))

    candidates, references = [], []
    for _ in range(50):
        reference = sentence(rng.randint(3, 12))
        tokens = reference.split()
        for i in range(len(tokens)):
            if rng.random() < 0.3:
                tokens[i] = rng.choice(vocab)
        candidates.append(" ".join(tokens))
        references.append(reference)

    worst = abs(bleu(candidates, references)
                - bleu_reference(candidates, references))
    for cand, ref in zip(candidates, references):
        worst = max(worst, abs(bleu([cand], [ref]) - bleu_reference([cand], [ref])))
    self_ok = all(
        bleu([text], [text]) == 1.0 and meteor_lite(text, text) == 1.0
        for text in references[:10]
    )
    ok = worst < 1e-9 and self_ok
    verdict(10, ok, (
        f"bleu matches the brute-force oracle on 50 pairs within "
        f"{worst:.1e} (< 1e-9); self-bleu and self-meteor are 1.0"
    ))
    assert ok
