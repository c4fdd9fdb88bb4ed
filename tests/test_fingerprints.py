"""Fingerprint families, Tanimoto, and the stable hash."""

from __future__ import annotations

import functools
import hashlib
import random
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltrip import fingerprints
from moltrip.chem import (
    Molecule,
    SmilesError,
    canonical_smiles,
    check_validity,
    parse_smiles,
    render_random,
)
from moltrip.fingerprints import (
    DEFAULT_PATH_LENGTH,
    KEY_CATALOG,
    KEY_NAMES,
    FamilyMismatch,
    FeatureSet,
    MoleculeTooLarge,
    dump_features,
    extend_hash,
    morgan_features,
    path_features,
    stable_hash,
    structural_keys,
    tanimoto,
)
from oracles import (
    count_distinct_paths,
    count_morgan_environments,
    morgan_ids,
    path_ids,
    path_readings,
    reference_structural_keys,
)

SMALL = ["C", "CCO", "CC(C)C", "C1CC1", "c1ccccc1", "CC=O", "C#N", "CCCl"]


# ---------------------------------------------------------------------------
# stable hash

def test_stable_hash_frozen_values():
    assert stable_hash("x") == 0x827BD4195D1874EF
    assert stable_hash(1, "a") == 0x23ABE25BE241315D
    assert stable_hash("atom", "C", 0, 4, 0, False) == 0x41AEEC3E4884BA42


def test_stable_hash_matches_reference_fnv():
    def reference(data: bytes) -> int:
        h = 0xCBF29CE484222325
        for byte in data:
            h = ((h ^ byte) * 0x100000001B3) % 2**64
        return h

    assert stable_hash("ab") == reference(b"sab;")
    assert stable_hash(7, "x", True) == reference(b"i7;sx;b1;")
    assert stable_hash(-3) == reference(b"i-3;")


def test_stable_hash_type_framing_distinguishes():
    assert stable_hash("1") != stable_hash(1)
    assert stable_hash(1) != stable_hash(True)
    assert stable_hash("a", "b") != stable_hash("ab")


def test_stable_hash_rejects_other_types():
    with pytest.raises(TypeError):
        stable_hash(1.5)


_HASH_PARTS = st.lists(
    st.one_of(st.booleans(), st.integers(), st.text(st.characters(codec="utf-8"))),
    max_size=5,
)


@given(_HASH_PARTS, _HASH_PARTS)
def test_extend_hash_continues_stable_hash(head, tail):
    assert extend_hash(stable_hash(*head), *tail) == stable_hash(*head, *tail)


# ---------------------------------------------------------------------------
# Morgan environments

def test_morgan_methane_radius_zero_is_single_feature():
    fs = morgan_features(parse_smiles("C"), radius=0)
    assert len(fs) == 1
    assert fs.family == "morgan"
    assert fs.params == (0,)


def test_morgan_cco_matches_environment_oracle():
    mol = parse_smiles("CCO")
    assert len(morgan_features(mol, 2)) == count_morgan_environments(mol, 2)
    assert len(morgan_features(mol, 2)) == 9


@pytest.mark.parametrize("smiles", SMALL)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_morgan_counts_match_oracle(smiles, radius):
    mol = parse_smiles(smiles)
    assert len(morgan_features(mol, radius)) == count_morgan_environments(
        mol, radius
    )


def test_morgan_rejects_negative_radius():
    with pytest.raises(ValueError):
        morgan_features(parse_smiles("C"), radius=-1)


# ---------------------------------------------------------------------------
# path features

def test_path_pentane_matches_oracle():
    mol = parse_smiles("CCCCC")
    assert len(path_features(mol, 4)) == count_distinct_paths(mol, 4)
    assert len(path_features(mol, 4)) == 4


@pytest.mark.parametrize("smiles", SMALL)
def test_path_counts_match_oracle(smiles):
    mol = parse_smiles(smiles)
    assert len(path_features(mol, 7)) == count_distinct_paths(mol, 7)


def test_path_reading_direction_invariant():
    assert path_features(parse_smiles("CCO")).features == path_features(
        parse_smiles("OCC")
    ).features


def test_path_distinguishes_bond_orders():
    benzene = path_features(parse_smiles("c1ccccc1"))
    cyclohexane = path_features(parse_smiles("C1CCCCC1"))
    assert tanimoto(benzene, cyclohexane) == 0.0


def test_path_rejects_zero_length():
    with pytest.raises(ValueError):
        path_features(parse_smiles("CC"), max_len=0)


# sha256 of dump_features(path_features(...)) for drug-like molecules of 15 to
# 45 heavy atoms, computed with the path walk that recursed from both ends and
# rebuilt both readings at every step.
PINNED_PATH_DIGESTS = {
    "FCc1c(OCc2ccnnc2)nco1":
        "89bbacc44d2d2d4e0ec5afd6e1652697924ec7caced3487f68b9d06ef963acf0",
    "c1c(c[nH]c1)CNC1C(C#N)CC(CC1CC(C)C)F":
        "a121b9bd5088f517fbdb90ad991fc4971465dfb048e6731b62e9d6e966faf164",
    "c1c(coc1)-c1c2c(cc(C(Nc3c(O)cccn3)=O)c1)cc(nc2)C":
        "4fa7252ddccf623acfe201f3700902ed0016cd8bd56c78967dfc4df1a22e30e4",
    "c1ncnc(C(NCc2c(ccc3c2ccs3)S(=O)(N(C2CCOCC2)Br)=O)=O)c1":
        "ff01c7e12d3ea9ffbca3ec852ded342f0efe50e53e2f8d42b5b5821797b60dd8",
    "c12ccccc1c(N1CCCC1)nc(n2)-c1ccc(c2cc(C)ccc21)-c1cnc2c(cccc2SC)n1":
        "dce4c8fcbb135482eee736806f53edf79ee477f6c4f34aa4a426152cf6eaeb6c",
    "C(=O)(O)C1C(C(C(S(=O)(=O)C)CN1S(=O)(C)=O)CC(c1ccc(nn1)CNCc1c(-c2scnc2)"
    "c(Br)c2ccsc2c1)Cl)O":
        "7e448cb392edba00a9b02184590901727fce7786c738575634bb92e687114f78",
}

# sha256 over the dumps of every valid corpus molecule in file order, each
# followed by a blank line; computed with the same earlier walk.
PINNED_CORPUS_PATH_DIGEST = (
    "986c1caa2994c439e9f8cd463886b2f9818fabfad898ce0eb0af80bc4c569ac0"
)


@pytest.mark.parametrize("smiles", sorted(PINNED_PATH_DIGESTS))
def test_path_ids_pinned_on_druglike_molecules(smiles):
    dump = dump_features(path_features(parse_smiles(smiles)))
    assert hashlib.sha256(dump.encode()).hexdigest() == PINNED_PATH_DIGESTS[smiles]


def test_path_ids_pinned_on_corpus(corpus):
    digest = hashlib.sha256()
    valid = [s for s in corpus if check_validity(s).is_valid]
    assert len(valid) == 200
    for smiles in valid:
        digest.update(dump_features(path_features(parse_smiles(smiles))).encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == PINNED_CORPUS_PATH_DIGEST


@given(
    index=st.integers(0, 199),
    max_len=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_ids_match_longhand_walk_in_any_atom_order(corpus, index, max_len, seed):
    mol = parse_smiles(corpus[index])
    respelled = parse_smiles(render_random(mol, random.Random(seed)))
    expected = {
        stable_hash("path", *reading) for reading in path_readings(respelled, max_len)
    }
    assert path_features(respelled, max_len).features == expected
    assert path_features(respelled, max_len) == path_features(mol, max_len)


def test_dense_k10_passes_the_validity_gate(dense_k10):
    assert len(dense_k10) == 256
    assert check_validity(dense_k10).is_valid
    mol = parse_smiles(dense_k10)
    assert len(mol.atoms) == 10 and len(mol.bonds) == 45


def test_path_cap_raises_typed_error_in_bounded_time(dense_k10):
    mol = parse_smiles(dense_k10)
    start = time.process_time()
    with pytest.raises(MoleculeTooLarge) as err:
        path_features(mol)
    assert time.process_time() - start < 2.0
    assert isinstance(err.value, SmilesError)
    assert str(fingerprints.MAX_PATHS) in str(err.value)


def test_path_cap_counts_each_path_once(monkeypatch):
    # CCCC has 3 + 2 + 1 paths of 1, 2 and 3 bonds
    mol = parse_smiles("CCCC")
    monkeypatch.setattr(fingerprints, "MAX_PATHS", 6)
    assert len(path_features(mol)) == 3
    monkeypatch.setattr(fingerprints, "MAX_PATHS", 5)
    with pytest.raises(MoleculeTooLarge):
        path_features(mol)
    assert len(path_features(mol, max_len=2)) == 2


def test_path_features_answer_on_a_long_chain():
    fs = path_features(parse_smiles("C" * 1200))
    assert len(fs) == DEFAULT_PATH_LENGTH


# ---------------------------------------------------------------------------
# structural keys

def test_catalog_has_64_unique_names():
    assert len(KEY_CATALOG) == 64
    assert len(set(KEY_NAMES)) == 64


def test_methane_fires_exactly_carbon_and_sp3():
    fired = structural_keys(parse_smiles("C")).features
    assert fired == {0, 34}
    assert KEY_NAMES[0] == "carbon present"
    assert KEY_NAMES[34] == "sp3 carbon"


def test_benzene_golden_keys():
    fired = structural_keys(parse_smiles("c1ccccc1")).features
    assert fired == {0, 14, 18, 24, 25}
    assert {KEY_NAMES[k] for k in fired} == {
        "carbon present",
        "any ring",
        "6-ring",
        "aromatic atom",
        "aromatic ring",
    }


def test_pyridine_golden_keys():
    fired = structural_keys(parse_smiles("c1ccncc1")).features
    assert fired == {0, 1, 11, 14, 18, 23, 24, 25, 26, 56}


def test_aspirin_golden_keys():
    fired = structural_keys(parse_smiles("CC(=O)Oc1ccccc1C(=O)O")).features
    assert fired == {
        0, 2, 11, 14, 18, 24, 25, 34, 35, 38, 39, 40, 42, 44, 52, 55, 61,
    }


# sha256 over the structural-key dumps of every valid corpus molecule in file
# order, then the drug-like molecules above in sorted order, each followed by
# a blank line; computed before the any-order "N bonded to O" predicate was
# folded into _has_bond.
PINNED_KEYS_DIGEST = (
    "be0d78c4514b893c3ff7882d5ad306a314259c77b99a892711162146d08db28b"
)


def test_structural_keys_pinned_on_corpus_and_druglike(corpus):
    digest = hashlib.sha256()
    valid = [s for s in corpus if check_validity(s).is_valid]
    for smiles in valid + sorted(PINNED_PATH_DIGESTS):
        digest.update(dump_features(structural_keys(parse_smiles(smiles))).encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == PINNED_KEYS_DIGEST


# sha256 over the same molecules in the same order as PINNED_KEYS_DIGEST, of
# the perceived rings, of the canonical form and of the Morgan dump; computed
# when every layer still built its own neighbour lists from the bond tuple.
PINNED_GRAPH_DIGESTS = {
    "rings": "865896620f28b5e18a8cf3dc0824817599a7f26bee4a37754c55bb6dca8248c8",
    "canonical": "924e33aa1aa30a24ce15a904f1eaa6b4ffe7f41f61cea1207cae5704dab164c4",
    "morgan": "91ffdc9ca2a9e1bd154e014e15418fb69602ce3b8653f8159e6d547a886d82c6",
}
_GRAPH_DUMPS = {
    "rings": lambda mol: repr((mol.rings, mol.fragments, sorted(mol.ring_atoms))),
    "canonical": canonical_smiles,
    "morgan": lambda mol: dump_features(morgan_features(mol)),
}


@pytest.mark.parametrize("layer", sorted(PINNED_GRAPH_DIGESTS))
def test_graph_layers_pinned_on_corpus_and_druglike(corpus, layer):
    digest = hashlib.sha256()
    valid = [s for s in corpus if check_validity(s).is_valid]
    for smiles in valid + sorted(PINNED_PATH_DIGESTS):
        digest.update(_GRAPH_DUMPS[layer](parse_smiles(smiles)).encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == PINNED_GRAPH_DIGESTS[layer]


def test_structural_keys_scale_linearly(best_cpu_times):
    # each N, O or S atom reads only its own radius-four ball, so twice the
    # chain costs about twice the CPU time, not four times
    chains = [parse_smiles("N" * 2000), parse_smiles("N" * 4000)]
    best = best_cpu_times([lambda mol=mol: structural_keys(mol) for mol in chains], 7)
    assert best[1] / best[0] <= 2.5


def test_key_identifiers_are_catalog_indices():
    fired = structural_keys(parse_smiles("[NH4+].[Cl-]")).features
    assert fired <= set(range(64))
    assert 30 in fired and 31 in fired and 32 in fired


# ---------------------------------------------------------------------------
# Tanimoto

def test_tanimoto_axioms_on_corpus_pairs(corpus):
    rng = random.Random(1207)
    mols = [parse_smiles(s) for s in rng.sample(corpus, 40)]
    sets = [morgan_features(m) for m in mols]
    for fs in sets:
        assert tanimoto(fs, fs) == pytest.approx(1.0, abs=1e-12)
    for _ in range(200):
        a, b = rng.choice(sets), rng.choice(sets)
        t_ab = tanimoto(a, b)
        t_ba = tanimoto(b, a)
        assert abs(t_ab - t_ba) < 1e-12
        assert -1e-12 <= t_ab <= 1 + 1e-12


def test_tanimoto_family_mismatch():
    mol = parse_smiles("CCO")
    with pytest.raises(FamilyMismatch):
        tanimoto(morgan_features(mol), path_features(mol))
    with pytest.raises(FamilyMismatch):
        tanimoto(morgan_features(mol, 2), morgan_features(mol, 3))


def test_tanimoto_empty_conventions():
    empty = FeatureSet(frozenset(), "morgan", (2,))
    full = FeatureSet(frozenset({1, 2}), "morgan", (2,))
    assert tanimoto(empty, empty) == 1.0
    assert tanimoto(empty, full) == 0.0
    assert tanimoto(full, empty) == 0.0


# ---------------------------------------------------------------------------
# invariance under atom renumbering

@pytest.mark.parametrize("seed", [3, 11])
def test_features_invariant_under_renumbering(corpus, seed):
    rng = random.Random(seed)
    for smiles in rng.sample(corpus, 30):
        mol = parse_smiles(smiles)
        alt = parse_smiles(render_random(mol, rng))
        assert morgan_features(mol) == morgan_features(alt)
        assert path_features(mol) == path_features(alt)
        assert structural_keys(mol) == structural_keys(alt)


# ---------------------------------------------------------------------------
# textual dump

def test_dump_format_structural():
    text = dump_features(structural_keys(parse_smiles("C")))
    assert text.splitlines() == [
        "family=structural_keys params=- count=2",
        "0x0000000000000000",
        "0x0000000000000022",
    ]


def test_dump_format_morgan():
    text = dump_features(morgan_features(parse_smiles("C"), 0))
    assert text.splitlines() == [
        "family=morgan params=radius=0 count=1",
        "0x41aeec3e4884ba42",
    ]


def test_key_catalog_doc_table_matches_code():
    doc = (Path(__file__).parent.parent / "docs" / "structural_keys.md").read_text()
    rows = [
        line for line in doc.splitlines()
        if line.startswith("| ") and not line.startswith("| Index")
    ]
    listed = [row.split("|")[2].strip() for row in rows]
    indices = [int(row.split("|")[1].strip()) for row in rows]
    assert indices == list(range(64))
    assert listed == list(KEY_NAMES)


# ---------------------------------------------------------------------------
# the two hash caches

def _capped_caches(path_size: int, morgan_size: int) -> dict:
    """Fresh hash caches of the given sizes, keyed by module attribute."""
    return {
        "_path_hash": functools.lru_cache(maxsize=path_size)(
            fingerprints._path_hash.__wrapped__
        ),
        "_morgan_hash": functools.lru_cache(maxsize=morgan_size, typed=True)(
            stable_hash
        ),
    }


def _clear_caches() -> None:
    fingerprints._path_hash.cache_clear()
    fingerprints._morgan_hash.cache_clear()


def _within_caps() -> bool:
    return all(
        info.currsize <= info.maxsize
        for info in (
            fingerprints._path_hash.cache_info(),
            fingerprints._morgan_hash.cache_info(),
        )
    )


def test_caches_share_the_memo_cap():
    sizes = [
        fingerprints._path_hash.cache_info().maxsize,
        fingerprints._morgan_hash.cache_info().maxsize,
    ]
    assert sum(sizes) == fingerprints.STATE_MEMO_SIZE


@pytest.fixture(scope="module")
def memo_molecules(corpus, workloads) -> list[str]:
    """The corpus, then both sides of the benchmark's drug-like pairs for
    seeds 0 to 9 wherever they parse."""
    pool = list(corpus)
    for seed in range(10):
        for reference, caption, _ in workloads.eval_pairs(seed):
            pool.append(reference)
            try:
                parse_smiles(caption)
            except SmilesError:
                continue
            pool.append(caption)
    return pool


@settings(max_examples=20, deadline=None)
@given(
    picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=4,
    ),
    memo=st.sampled_from(["cold", "warm", "capped"]),
    order=st.randoms(use_true_random=False),
)
def test_memo_never_changes_an_id(memo_molecules, picks, memo, order):
    # molecules in shuffled atom orders, fingerprinted in a random order with
    # the caches empty, filled by the same molecules, or capped at 3 entries
    mols = [
        parse_smiles(render_random(
            parse_smiles(memo_molecules[index % len(memo_molecules)]),
            random.Random(seed),
        ))
        for index, seed in picks
    ]
    saved = {name: getattr(fingerprints, name) for name in ("_path_hash", "_morgan_hash")}
    _clear_caches()
    try:
        if memo == "warm":
            for mol in mols:
                path_features(mol)
                morgan_features(mol)
        elif memo == "capped":
            for name, cache in _capped_caches(3, 3).items():
                setattr(fingerprints, name, cache)
        order.shuffle(mols)
        for mol in mols:
            assert path_features(mol).features == path_ids(mol, DEFAULT_PATH_LENGTH)
            assert morgan_features(mol).features == morgan_ids(mol, 2)
            assert structural_keys(mol).features == reference_structural_keys(mol)
            assert _within_caps()
    finally:
        for name, cache in saved.items():
            setattr(fingerprints, name, cache)


def test_memo_holds_at_most_its_cap(corpus, dense_k10, monkeypatch):
    for name, cache in _capped_caches(30, 10).items():
        monkeypatch.setattr(fingerprints, name, cache)
    for smiles in corpus[:60]:  # more distinct molecules than entries
        mol = parse_smiles(smiles)
        path_features(mol)
        morgan_features(mol)
        assert _within_caps()
    assert fingerprints._path_hash.cache_info().currsize == 30
    assert fingerprints._morgan_hash.cache_info().currsize == 10
    with pytest.raises(MoleculeTooLarge):
        path_features(parse_smiles(dense_k10))
    assert _within_caps()


def test_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(fingerprints, "_morgan_hash", _capped_caches(3, 3)["_morgan_hash"])
    for token in "abcad":  # "a" read again before "d" evicts "b"
        assert fingerprints._morgan_hash(token) == stable_hash(token)
    assert fingerprints._morgan_hash.cache_info()[:2] == (1, 4)  # hits, misses
    for token in "cad":
        fingerprints._morgan_hash(token)
    assert fingerprints._morgan_hash.cache_info()[:2] == (4, 4)
    fingerprints._morgan_hash("b")
    assert fingerprints._morgan_hash.cache_info()[:2] == (4, 5)


@pytest.mark.parametrize(
    "first, second", [(True, 1), (1, True), (False, 0), (0, False)],
)
def test_memo_keeps_bool_and_int_framing_apart(first, second):
    # True == 1 as a dict key, but stable_hash frames them differently
    _clear_caches()
    for flag in (first, second, first):
        for tokens in (
            ("atom", "C", 0, 4, 0, flag),
            ("x", flag),
            (flag, "x", "y", "z"),
        ):
            assert fingerprints._morgan_hash(*tokens) == stable_hash(*tokens)


def test_memo_shared_by_threads_keeps_every_id(corpus, monkeypatch):
    # caps of 5 make every thread evict what the others just read
    def fingerprint(smiles: str) -> tuple[FeatureSet, FeatureSet]:
        mol = parse_smiles(smiles)
        return path_features(mol), morgan_features(mol)

    expected = {smiles: fingerprint(smiles) for smiles in corpus[:40]}
    for name, cache in _capped_caches(5, 5).items():
        monkeypatch.setattr(fingerprints, name, cache)
    errors: list[BaseException] = []

    def work(offset: int) -> None:
        try:
            for smiles in corpus[offset:40] + corpus[:offset]:
                assert fingerprint(smiles) == expected[smiles]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 7,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _within_caps()


def _wide_atom(degree: int) -> Molecule:
    """One carbon bonded to degree methyls."""
    return parse_smiles("C" + "(C)" * degree)


def _cold_morgan(mol: Molecule) -> FeatureSet:
    _clear_caches()
    return morgan_features(mol)


def test_morgan_features_of_a_wide_atom_in_bounded_time_and_memory():
    # an environment is hashed whole, once: no entry per prefix of it
    mol = _wide_atom(4000)
    start = time.process_time()
    assert len(_cold_morgan(mol)) == 6
    assert time.process_time() - start < 0.5
    _clear_caches()
    tracemalloc.start()
    try:
        morgan_features(mol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_morgan_features_scale_linearly_in_degree(best_cpu_times):
    mols = [_wide_atom(degree) for degree in (2000, 4000)]
    best = best_cpu_times([lambda mol=mol: _cold_morgan(mol) for mol in mols], 5)
    assert best[1] / best[0] <= 2.5, best


def _nested(frames: int, call):
    return call() if frames == 0 else _nested(frames - 1, call)


@pytest.mark.parametrize(
    "smiles", ["C" * 447, "N" + "C" * 445 + "O"], ids=["C447", "NC445O"],
)
def test_longest_paths_hash_under_a_deep_stack(smiles):
    # 446 bonds make 99,681 paths, the longest that MAX_PATHS allows; in
    # N(C)445O no prefix of the longest reading is itself a path's reading
    mol = parse_smiles(smiles)
    _clear_caches()
    fs = _nested(300, lambda: path_features(mol, max_len=446))
    if smiles.startswith("N"):
        # C-only paths of 1..444 bonds, N or O and 1..445 carbons, and all
        assert len(fs) == 444 + 2 * 445 + 1
    else:
        readings = [("path", "C", *["single", "C"] * bonds) for bonds in range(1, 447)]
        assert fs.features == {stable_hash(*reading) for reading in readings}
    with pytest.raises(MoleculeTooLarge):  # one atom more: 100,127 paths
        path_features(parse_smiles("C" + smiles), max_len=446)


def test_path_walk_holds_distinct_readings_only():
    # C447 walks 99,681 paths of about 300 characters on average but reads
    # only 446 distinct ones, so memory must follow the distinct readings
    mol = parse_smiles("C" * 447)
    _clear_caches()
    tracemalloc.start()
    try:
        fs = path_features(mol, max_len=446)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    readings = [("path", "C", *["single", "C"] * bonds) for bonds in range(1, 447)]
    assert fs.features == {stable_hash(*reading) for reading in readings}


@given(
    elements=st.lists(st.sampled_from(["C", "N", "O", "S"]), min_size=9, max_size=40),
    max_len=st.integers(8, 40),
    memo=st.sampled_from(["cold", "warm"]),
)
def test_long_path_ids_match_longhand_walk(elements, max_len, memo):
    # readings longer than DEFAULT_PATH_LENGTH bonds extend a prefix of
    # whole blocks rather than the reading one bond shorter
    mol = parse_smiles("".join(elements))
    _clear_caches()
    if memo == "warm":
        path_features(mol, max_len - 1)
    expected = {stable_hash("path", *reading) for reading in path_readings(mol, max_len)}
    assert path_features(mol, max_len).features == expected
