"""Reconstruction score, round-trip rate, report aggregation, BLEU, METEOR."""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltrip import metrics
from moltrip.chem import check_validity, parse_smiles, render_random
from moltrip.errors import EmptyCollection, LengthMismatch
from moltrip.metrics import (
    EvalReport,
    InvalidReference,
    RoundTripSample,
    ScoreBreakdown,
    ScoreCache,
    aggregate_report,
    bleu,
    meteor_lite,
    reconstruction_score,
    round_trip_rate,
)
from oracles import (
    _canonical_ball,
    _path_reading,
    bleu_reference,
    reference_round_trip_rate,
)


def _sample(original, reconstruction, caption="") -> RoundTripSample:
    return RoundTripSample(
        original=original,
        caption=caption,
        reconstruction=reconstruction,
        score=reconstruction_score(original, reconstruction),
    )


# ---------------------------------------------------------------------------
# reconstruction score

def test_identity_scores_exactly_four(corpus):
    for smiles in random.Random(5).sample(corpus, 25):
        score = reconstruction_score(smiles, smiles)
        assert score.total == 4.0
        assert score.valid and score.exact
        assert score.t_keys == score.t_path == score.t_morgan == 1.0
        assert score.s_sim == 3.0


def test_invalid_candidate_gates_to_zero():
    for bad in ["C(", "not a molecule", "", "N(C)(C)(C)C", "c1ccnc1"]:
        score = reconstruction_score("CCO", bad)
        assert score.total == 0.0
        assert not score.valid and not score.exact
        assert score.s_sim == 0.0


def test_invalid_reference_raises():
    with pytest.raises(InvalidReference):
        reconstruction_score("C(", "CCO")
    with pytest.raises(InvalidReference):
        reconstruction_score("N(C)(C)(C)C", "CCO")


def test_too_large_candidate_scores_zero_in_bounded_time(dense_k10):
    start = time.process_time()
    score = reconstruction_score("C", dense_k10)
    assert time.process_time() - start < 2.0
    assert score == ScoreBreakdown(
        valid=False, exact=False, t_keys=0.0, t_path=0.0, t_morgan=0.0,
        s_sim=0.0, total=0.0,
    )


def test_too_large_reference_raises(dense_k10):
    with pytest.raises(InvalidReference, match="too large"):
        reconstruction_score(dense_k10, "C")


def test_molecule_too_large_to_canonicalise_scores_zero_or_refuses(snake_ladder):
    assert check_validity(snake_ladder).is_valid
    assert reconstruction_score("CCC", snake_ladder) == ScoreBreakdown(
        valid=False, exact=False, t_keys=0.0, t_path=0.0, t_morgan=0.0,
        s_sim=0.0, total=0.0,
    )
    with pytest.raises(InvalidReference, match="too large.*99 ring closures"):
        reconstruction_score(snake_ladder, "CCC")
    with pytest.raises(metrics.MoleculeTooLarge):
        metrics.prepare(snake_ladder).canonical


# Strings that fail each gate in turn: the grammar, the valence table,
# kekulization, several of these at once, and (dense_k10, appended in the
# test) the path cap.
_GATE_CASES = [
    "C(", "", "  ", "C1CC", "CC)C", "C==C", "[Xx]", "c1ccccc1.", "C%1",
    "CCO", "C(C)(C)(C)(C)C", "FC(F)(F)(F)F", "O=O=O", "[NH4]",
    "C[N+](C)(C)(C)C", "c1ccnc1", "c1cccc1", "c1ccccc1c", "o1cccc1", "CC",
    "C(C)(C)(C)(C)C(C)(C)(C)(C)C", "FC(F)(F)(F)c1cccc1", "c1cccc1.c1ccnc1",
]

# sha256 over check_validity(s) and reconstruction_score(s, s) and
# (s, next string) for every corpus and gate string, each as its repr or as
# "ExceptionType: message"; recorded while the score still parsed each side
# twice and ran the valence analysis four times.
PINNED_SCORE_DIGEST = (
    "2eccc46b14ade033b1df13005fded18a50337336df9bbaa4406ec52cb76522d3"
)


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_scores_and_validity_reports_pinned(corpus, dense_k10):
    strings = corpus + _GATE_CASES + [dense_k10, "c1ccccc1"]
    digest = hashlib.sha256()
    for i, x in enumerate(strings):
        following = strings[(i + 1) % len(strings)]
        for outcome in (
            _outcome(check_validity, x),
            _outcome(reconstruction_score, x, x),
            _outcome(reconstruction_score, x, following),
        ):
            digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SCORE_DIGEST


# ---------------------------------------------------------------------------
# score cache

_CORPUS = [
    line.strip()
    for line in (Path(metrics.__file__).parent / "data" / "corpus_200.smi")
    .read_text().splitlines()
    if line.strip()
]
_TOY_CHARACTERS = "CNOSF=#()12"  # the toy generator's vocabulary

_candidates = st.one_of(
    st.text(alphabet=_TOY_CHARACTERS, max_size=10),
    st.sampled_from(_CORPUS),
)


@pytest.mark.parametrize("size", [metrics.PREPARED_CACHE_SIZE, 2])
@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(
    st.tuples(st.sampled_from(_CORPUS), _candidates), min_size=1, max_size=10,
))
def test_score_cache_matches_uncached_score(size, pairs):
    """One cache over many pairs, repeats and (at size 2) evictions included."""
    with mock.patch.object(metrics, "PREPARED_CACHE_SIZE", size):
        cache = ScoreCache()
    for reference, candidate in pairs + pairs[::-1]:
        assert _outcome(cache.score, reference, candidate) == \
            _outcome(reconstruction_score, reference, candidate)


def _count_parses(monkeypatch) -> Counter:
    parsed: Counter = Counter()
    real = metrics.parse_smiles

    def counting(smiles):
        parsed[smiles] += 1
        return real(smiles)

    monkeypatch.setattr(metrics, "parse_smiles", counting)
    return parsed


def test_score_cache_parses_each_distinct_string_once(monkeypatch):
    pairs = [("CCO", c) for c in ("CCN", "C(", "CCO", "xx", "c1ccnc1")] * 3
    pairs += [("c1ccccc1", c) for c in ("CCN", "Oc1ccccc1", "C(")] * 2
    parsed = _count_parses(monkeypatch)
    cache = ScoreCache()
    for reference, candidate in pairs:
        cache.score(reference, candidate)
    assert set(parsed) == {s for pair in pairs for s in pair}
    assert set(parsed.values()) == {1}


def test_score_cache_prepares_again_only_after_eviction(monkeypatch):
    parsed = _count_parses(monkeypatch)
    monkeypatch.setattr(metrics, "PREPARED_CACHE_SIZE", 2)
    cache = ScoreCache()
    cache.score("CCO", "CCN")
    cache.score("CCO", "CCN")
    assert parsed == {"CCO": 1, "CCN": 1}
    cache.score("CCC", "CCCl")  # evicts both
    cache.score("CCO", "CCN")
    assert parsed == {"CCO": 2, "CCN": 2, "CCC": 1, "CCCl": 1}


def test_prepared_keeps_the_verdict_and_no_molecule_when_invalid(dense_k10):
    bad = metrics.prepare("C(")
    assert not bad.valid and bad.mol is None
    assert bad.reason.startswith("does not parse")
    over = metrics.prepare("N(C)(C)(C)C")
    assert not over.valid and over.mol is None
    assert over.reason.startswith("is not valid")
    dense = metrics.prepare(dense_k10)
    assert dense.valid
    with pytest.raises(metrics.MoleculeTooLarge):
        dense.path


def test_cco_ccn_components_match_oracles():
    """Each Tanimoto recomputed from brute-force feature sets."""
    cco = parse_smiles("CCO")
    ccn = parse_smiles("CCN")

    def oracle_morgan(mol):
        return {
            (r, _canonical_ball(mol, i, r))
            for r in range(3)
            for i in range(len(mol.atoms))
        }

    def oracle_paths(mol):
        readings = set()

        def walk(path):
            if len(path) > 1:
                readings.add(_path_reading(mol, path))
            if len(path) == 8:
                return
            for nbr in mol.neighbors(path[-1]):
                if nbr not in path:
                    walk(path + [nbr])

        for start in range(len(mol.atoms)):
            walk([start])
        return readings

    def jaccard(a, b):
        return len(a & b) / len(a | b)

    score = reconstruction_score("CCO", "CCN")
    assert not score.exact
    assert 0.0 < score.total < 4.0
    assert score.t_morgan == pytest.approx(
        jaccard(oracle_morgan(cco), oracle_morgan(ccn)), abs=1e-12
    )
    assert score.t_path == pytest.approx(
        jaccard(oracle_paths(cco), oracle_paths(ccn)), abs=1e-12
    )
    # hand-derived: morgan 3/15, path 1/5, keys 5 shared of 9 total
    assert score.t_morgan == pytest.approx(0.2, abs=1e-12)
    assert score.t_path == pytest.approx(0.2, abs=1e-12)
    assert score.t_keys == pytest.approx(5 / 9, abs=1e-12)
    assert score.total == pytest.approx(0.2 + 0.2 + 5 / 9, abs=1e-12)


def test_total_invariant_under_rerendering(corpus):
    rng = random.Random(99)
    for smiles in rng.sample(corpus, 15):
        alt = render_random(parse_smiles(smiles), rng)
        score = reconstruction_score(smiles, alt)
        assert score.total == 4.0
        assert score.exact


def test_breakdown_internal_consistency(corpus):
    rng = random.Random(17)
    pool = rng.sample(corpus, 12)
    for x in pool[:6]:
        for y in pool[6:]:
            s = reconstruction_score(x, y)
            assert s.s_sim == pytest.approx(
                s.t_keys + s.t_path + s.t_morgan, abs=1e-12
            )
            assert s.total == pytest.approx(
                s.s_sim + (1.0 if s.exact else 0.0), abs=1e-12
            )


# ---------------------------------------------------------------------------
# round-trip rate

def test_round_trip_rate_all_and_none():
    perfect = [_sample("CCO", "OCC"), _sample("c1ccccc1", "C1=CC=CC=C1")]
    assert round_trip_rate(perfect) == 1.0
    misses = [_sample("CCO", "CCN"), _sample("CC", "garbage")]
    assert round_trip_rate(misses) == 0.0


def test_round_trip_rate_three_of_four():
    samples = [
        _sample("CCO", "CCO"),
        _sample("CC(C)C", "C(C)(C)C"),
        _sample("c1ccccc1", "c1ccccc1"),
        _sample("CCO", "CCN"),
    ]
    assert round_trip_rate(samples) == 0.75


def test_round_trip_rate_matches_exact_indicators(corpus):
    rng = random.Random(23)
    pool = rng.sample(corpus, 20)
    samples = [
        _sample(x, rng.choice(pool)) for x in pool
    ]
    mean_exact = sum(1 for s in samples if s.score.exact) / len(samples)
    assert round_trip_rate(samples) == pytest.approx(mean_exact, abs=1e-12)


def test_round_trip_rate_empty():
    with pytest.raises(EmptyCollection):
        round_trip_rate([])


_EDIT_ALPHABET = "CNOScnos()[]=#12+-H."


def _mutant(text: str, rng: random.Random) -> str:
    """text with 1 to 3 characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(chars) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert" or pos == len(chars):
            chars.insert(pos, rng.choice(_EDIT_ALPHABET))
        elif edit == "delete":
            del chars[pos]
        else:
            chars[pos] = rng.choice(_EDIT_ALPHABET)
    return "".join(chars)


@pytest.fixture(scope="module")
def round_trip_pair(corpus, workloads):
    """(original, reconstruction) from one source: a corpus string against
    a seeded re-rendering or a seeded mutant, or both sides of one of the
    benchmark pairs of eval_pairs(0..9)."""
    eval_sides = [
        (reference, caption)
        for seed in range(10)
        for reference, caption, _ in workloads.eval_pairs(seed)
    ]

    def pair(source: str, i: int, seed: int) -> tuple[str, str]:
        if source == "eval":
            return eval_sides[i % len(eval_sides)]
        original = corpus[i % len(corpus)]
        rng = random.Random(seed)
        if source == "render":
            return original, render_random(parse_smiles(original), rng)
        return original, _mutant(original, rng)

    return pair


@settings(max_examples=30, deadline=None)
@given(draws=st.lists(
    st.tuples(
        st.sampled_from(["render", "mutant", "eval"]),
        st.integers(0, 10**6),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1, max_size=6,
))
def test_round_trip_rate_equals_the_recomputing_oracle(round_trip_pair, draws):
    samples = [_sample(*round_trip_pair(*draw)) for draw in draws]
    for sample in samples:
        assert round_trip_rate([sample]) == reference_round_trip_rate([sample])
    assert round_trip_rate(samples) == reference_round_trip_rate(samples)


# ---------------------------------------------------------------------------
# aggregate report

def test_single_perfect_sample_report():
    report = aggregate_report([_sample("CCO", "OCC")])
    assert report.exact_pct == 100.0
    assert report.validity_pct == 100.0
    assert report.sim_keys == report.sim_path == report.sim_morgan == 1.0
    assert report.bleu is None and report.meteor is None


def test_mixed_perfect_invalid_report():
    report = aggregate_report([_sample("CCO", "CCO"), _sample("CC", "((")])
    assert report.exact_pct == 50.0
    assert report.validity_pct == 50.0
    assert report.sim_keys == 1.0  # mean over valid pairs only


def test_ten_sample_report_equals_hand_sums():
    rng = random.Random(41)
    pool = ["CCO", "CCN", "CC(C)O", "c1ccccc1", "CC(=O)O"]
    samples = []
    for _ in range(10):
        x = rng.choice(pool)
        y = rng.choice(pool + ["broken("])
        samples.append(_sample(x, y))
    report = aggregate_report(samples)
    valid = [s.score for s in samples if s.score.valid]
    assert report.exact_pct == pytest.approx(
        100 * sum(s.score.exact for s in samples) / 10, abs=1e-12
    )
    assert report.validity_pct == pytest.approx(100 * len(valid) / 10, abs=1e-12)
    assert report.sim_morgan == pytest.approx(
        sum(s.t_morgan for s in valid) / len(valid), abs=1e-12
    )


def test_report_with_references_populates_text_metrics():
    samples = [
        _sample("CCO", "CCO", caption="an ethanol molecule"),
        _sample("CC", "CC", caption="plain ethane gas"),
    ]
    refs = ["an ethanol molecule", "plain ethane gas"]
    report = aggregate_report(samples, refs)
    assert report.bleu == pytest.approx(1.0, abs=1e-9)
    assert report.meteor == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(LengthMismatch):
        aggregate_report(samples, refs[:1])


def test_report_serialization_order():
    report = aggregate_report(
        [_sample("CCO", "CCO", caption="x")], references=["x"]
    )
    record = report.to_record()
    assert list(record) == [
        "samples", "exact_pct", "validity_pct",
        "sim_keys", "sim_path", "sim_morgan", "bleu", "meteor",
    ]


def test_report_empty():
    with pytest.raises(EmptyCollection):
        aggregate_report([])


# ---------------------------------------------------------------------------
# BLEU

def test_bleu_identity():
    texts = ["the cat sat on the mat", "a fine molecule indeed"]
    assert bleu(texts, texts) == pytest.approx(1.0, abs=1e-9)


def test_bleu_disjoint_below_floor():
    assert bleu(["xx yy zz ww"], ["aa bb cc dd"]) < 0.01


def test_bleu_matches_reference_on_random_pairs():
    rng = random.Random(2026)
    vocab = ["mol", "ring", "acid", "ester", "chain", "group",
             "atom", "bond", "ether", "amine", "salt", "base"]
    cands, refs = [], []
    for _ in range(50):
        cands.append(" ".join(rng.choices(vocab, k=rng.randint(3, 15))))
        refs.append(" ".join(rng.choices(vocab, k=rng.randint(3, 15))))
    assert bleu(cands, refs) == pytest.approx(
        bleu_reference(cands, refs), abs=1e-9
    )


def test_bleu_length_mismatch():
    with pytest.raises(LengthMismatch):
        bleu(["a"], ["a", "b"])
    with pytest.raises(EmptyCollection):
        bleu([], [])


def test_bleu_brevity_penalty_applies():
    short = bleu(["the cat"], ["the cat sat on the mat"])
    full = bleu(["the cat sat on the mat"], ["the cat sat on the mat"])
    assert short < full


# ---------------------------------------------------------------------------
# METEOR-lite

def test_meteor_identity_is_one():
    assert meteor_lite("a b c d e f g h", "a b c d e f g h") == 1.0
    assert meteor_lite("one", "one") == 1.0


def test_meteor_disjoint_is_zero():
    assert meteor_lite("aa bb cc", "xx yy zz") == 0.0
    assert meteor_lite("", "anything") == 0.0


def test_meteor_hand_derived_case():
    # matches a,b,d; P = R = 3/4, F = 0.75; chunks 2 -> penalty 4/27
    assert meteor_lite("a b c d", "a b x d") == pytest.approx(
        0.75 * (1 - 0.5 * (2 / 3) ** 3), abs=1e-12
    )
    assert meteor_lite("a b c d", "a b x d") == pytest.approx(0.6388889, abs=1e-6)


def test_text_metrics_bounded_on_random_pairs():
    rng = random.Random(7)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    for _ in range(1000):
        c = " ".join(rng.choices(vocab, k=rng.randint(0, 8)))
        r = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        m = meteor_lite(c, r)
        assert 0.0 <= m <= 1.0
        b = bleu([c], [r])
        assert 0.0 <= b <= 1.0
