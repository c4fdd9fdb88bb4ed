"""Canonical SMILES: invariance, fixed points, and graph-identity oracle."""

from __future__ import annotations

import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moltrip.chem import (
    MoleculeTooLarge,
    SmilesError,
    canonical_ranks,
    canonical_smiles,
    canonicalize,
    parse_smiles,
    render_random,
)
from moltrip.chem import canon
from moltrip.chem.model import Molecule
from moltrip.metrics import reconstruction_score
from oracles import (
    molecules_isomorphic,
    reference_canonical_ranks,
    reference_sssr,
)


def test_atom_order_invariance():
    assert canonicalize("OCC") == canonicalize("CCO")


def test_branch_normalization():
    assert canonicalize("C(C)C") == canonicalize("CCC")


def test_kekule_equals_aromatic_benzene():
    assert canonicalize("C1=CC=CC=C1") == canonicalize("c1ccccc1")
    # the oracle: both spellings parse to isomorphic graphs
    assert molecules_isomorphic(
        parse_smiles("C1=CC=CC=C1"), parse_smiles("c1ccccc1")
    )


def test_kekule_equals_aromatic_fused():
    assert canonicalize("C1=CC2=CC=CC=C2C=C1") == canonicalize("c1ccc2ccccc2c1")


@pytest.mark.parametrize(
    "a,b",
    [
        ("OCC", "CCO"),
        ("C(C)C", "CCC"),
        ("c1ccccc1C", "Cc1ccccc1"),
        ("O=C(O)C", "CC(=O)O"),
        ("N1CCCCC1", "C1CCNCC1"),
        ("[Cl-].[Na+]", "[Na+].[Cl-]"),
    ],
)
def test_equal_canonical_iff_isomorphic(a, b):
    assert canonicalize(a) == canonicalize(b)
    assert molecules_isomorphic(parse_smiles(a), parse_smiles(b))


@pytest.mark.parametrize(
    "a,b",
    [
        ("CCO", "CCN"),
        ("CCO", "CC=O"),
        ("C1CCCCC1", "c1ccccc1"),
        ("[13CH4]", "C"),
        ("C[O-]", "CO"),
    ],
)
def test_distinct_molecules_get_distinct_strings(a, b):
    assert canonicalize(a) != canonicalize(b)
    assert not molecules_isomorphic(parse_smiles(a), parse_smiles(b))


def test_fixed_point_on_corpus(corpus):
    for text in corpus:
        once = canonicalize(text)
        assert canonicalize(once) == once, text


def test_permutation_invariance_on_corpus(corpus):
    rng = random.Random(20240817)
    for text in corpus:
        mol = parse_smiles(text)
        expected = canonical_smiles(mol)
        for _ in range(20):
            rendered = render_random(mol, rng)
            assert canonicalize(rendered) == expected, (text, rendered)


def test_random_renderings_parse_to_isomorphic_graphs():
    rng = random.Random(7)
    for text in ["CC(=O)Oc1ccccc1C(=O)O", "C1CC2CCC1C2", "Cn1cnc2c1c(=O)n(C)c(=O)n2C"]:
        mol = parse_smiles(text)
        for _ in range(5):
            again = parse_smiles(render_random(mol, rng))
            assert len(again.atoms) == len(mol.atoms)
            assert len(again.bonds) == len(mol.bonds)


def test_bracket_normalization():
    # bracket spellings that match inferred hydrogens collapse to bare atoms
    assert canonicalize("[CH4]") == "C"
    assert canonicalize("[OH2]") == "O"
    # but genuinely explicit states stay bracketed
    assert canonicalize("[C]") == "[C]"
    assert canonicalize("[13CH4]") == "[13CH4]"
    assert canonicalize("[nH]1cccc1") == canonicalize("c1cc[nH]c1")


def test_charge_rendering_round_trips():
    for text in ["[NH4+]", "C[O-]", "[O-2].[Mg+2]", "C[N+](C)(C)C"]:
        once = canonicalize(text)
        assert canonicalize(once) == once


def test_aromatic_single_bond_written_explicitly():
    biphenyl = canonicalize("c1ccc(-c2ccccc2)cc1")
    assert "-" in biphenyl
    assert canonicalize(biphenyl) == biphenyl


def test_fragment_ordering_is_canonical():
    assert canonicalize("[Na+].[Cl-]") == canonicalize("[Cl-].[Na+]")


def test_chains_longer_than_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        chain = canonical_smiles(parse_smiles("C" * 200))
        comb = canonicalize("CC(O)" * 70)
        again = canonicalize(comb)
    finally:
        sys.setrecursionlimit(limit)
    assert chain == "C" * 200
    assert again == comb


# ---------------------------------------------------------------------------
# ring sets and ranks against frozen copies of the slower code

# Spiro, fused, cubane, cuneane, and two bridged spellings whose ring set
# depends on atom order: where the ring choice and the tie-breaks are most
# delicate.
ORACLE_FIXTURES = [
    "C1CC2(CC1)CCC2",
    "c1ccc2c(c1)ccc1ccccc12",
    "C12C3C4C1C5C2C3C45",
    "C15C4C3C4C2C1C2C35",
    "C(=O)(C)N2C1C=C2C=CC=1",
    "CC(=O)N7c1cccc7c1",
]


def assert_matches_frozen_oracles(mol: Molecule) -> None:
    assert mol.rings == reference_sssr(mol.bonds, mol.neighbor_view, mol.fragments)
    assert canonical_ranks(mol) == reference_canonical_ranks(mol)


@pytest.mark.parametrize("text", ORACLE_FIXTURES)
def test_fixture_rings_and_ranks_match_frozen_oracles(text):
    mol = parse_smiles(text)
    assert_matches_frozen_oracles(mol)
    for seed in range(15):
        assert_matches_frozen_oracles(parse_smiles(render_random(mol, random.Random(seed))))


def test_corpus_rings_and_ranks_match_frozen_oracles(corpus):
    for text in corpus:
        assert_matches_frozen_oracles(parse_smiles(text))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_rerendered_rings_and_ranks_match_frozen_oracles(corpus, data, seed):
    text = data.draw(st.sampled_from(corpus + ORACLE_FIXTURES))
    rendered = render_random(parse_smiles(text), random.Random(seed))
    assert_matches_frozen_oracles(parse_smiles(rendered))


def test_too_many_open_ring_closures_raise_a_typed_error(snake_ladder):
    mol = parse_smiles(snake_ladder)
    assert not mol.failures
    with pytest.raises(MoleculeTooLarge, match="99 ring closures") as err:
        canonical_smiles(mol)
    assert isinstance(err.value, SmilesError)


def test_random_spelling_with_too_many_open_ring_closures_names_no_canonical_form(
    benzenoid_flake,
):
    # a random walk over a 574-atom benzenoid sheet leaves more than 99 ring
    # bonds open at once, though other walks spell it
    mol = parse_smiles(render_random(benzenoid_flake(24, 24), random.Random(0)))
    assert len(mol) == 574 and not mol.failures
    with pytest.raises(MoleculeTooLarge, match="99 ring closures") as err:
        render_random(mol, random.Random(0))
    assert "SMILES spelling" in str(err.value)
    assert "canonical" not in str(err.value)


# ---------------------------------------------------------------------------
# ranks on tie-heavy graphs, and how canonical form scales with size

def _chain(k: int) -> str:
    return "C" * k


def _ring(k: int) -> str:
    return "C1" + "C" * (k - 2) + "C1"


def _comb(k: int) -> str:
    return "C(C)" * (k // 2)


def _nested(k: int) -> str:
    return "C(" * (k - 1) + "C" + ")" * (k - 1)


def _methanes(k: int) -> str:
    return ".".join(["C"] * k)


def _star(arms: int, length: int) -> str:
    return "[Fe]" + "".join("(" + "C" * length + ")" for _ in range(arms))


def _polyacene(rings: int) -> str:
    inner = range(3, rings + 1)
    return (
        "c1ccc2"
        + "".join(f"cc{d}" for d in inner)
        + f"ccccc{rings}"
        + "".join(f"cc{d - 1}" for d in reversed(inner))
        + "c1"
    )


CAGES = [
    "C12C3C4C1C5C2C3C45",  # cubane
    "C15C4C3C4C2C1C2C35",  # cuneane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
]

_TIE_HEAVY = st.one_of(
    st.builds(_chain, st.integers(1, 150)),
    st.builds(_ring, st.integers(3, 150)),
    st.builds(_comb, st.integers(2, 150)),
    st.builds(_nested, st.integers(1, 150)),
    st.builds(_star, st.integers(2, 8), st.integers(1, 18)),
    st.builds(_polyacene, st.integers(2, 9)),
    st.sampled_from(CAGES),
    st.builds(
        lambda fragment, copies: ".".join([fragment] * copies),
        st.sampled_from(["CCO", "C", "c1ccccc1", "CC(C)C", *CAGES]),
        st.integers(2, 12),
    ),
)


@settings(max_examples=100, deadline=None)
@given(text=_TIE_HEAVY, seed=st.integers(0, 2**32 - 1))
@example(text=_chain(150), seed=1)
@example(text=_ring(150), seed=2)
@example(text=_comb(150), seed=3)
@example(text=_nested(150), seed=4)
@example(text=_star(8, 18), seed=5)
@example(text=_polyacene(9), seed=6)
@example(text=".".join([CAGES[1]] * 12), seed=7)
def test_tie_heavy_ranks_match_frozen_oracle(text, seed):
    mol = parse_smiles(text)
    for m in (mol, parse_smiles(render_random(mol, random.Random(seed)))):
        start = time.process_time()
        ranks = canonical_ranks(m)
        assert time.process_time() - start < 0.5, text
        assert ranks == reference_canonical_ranks(m), text


@pytest.mark.parametrize(
    "text",
    [
        _chain(150), _ring(150), _comb(150), _nested(150), _star(8, 18),
        _polyacene(9), *CAGES, ".".join([CAGES[1]] * 12), "CCO.CCO.CCO",
    ],
)
def test_every_split_keeps_the_partition_whole(text, monkeypatch):
    split, touched_by = canon._Partition._split, canon._Partition.touched_by
    # the ranks each round keys against: the partition as it stood after
    # the last touched_by, taken at the round's first split
    ranks: list[list[int]] = []
    splits = []

    def snapshot_next(part, splitters):
        ranks.clear()
        return touched_by(part, splitters)

    def checked(part, c, below, above):
        order, pos, cell, start, size = (
            part.order, part.pos, part.cell, part.start, part.size
        )
        n = len(order)
        if not ranks:
            ranks.append([start[cell[a]] for a in range(n)])
        rank = ranks[0]
        first = start[c]
        moved = {a for piece in below + above for a in piece}
        middle = [a for a in order[first : first + size[c]] if a not in moved]
        pieces = [*below, middle, *above]
        keys = [
            {
                tuple(sorted(part.weights[k] + rank[j] for j, k in part.view[a]))
                for a in piece
            }
            for piece in pieces
        ]
        splitters = split(part, c, below, above)
        # order and pos are inverse permutations
        assert sorted(order) == list(range(n))
        assert all(pos[a] == p for p, a in enumerate(order))
        # the cells tile 0..n-1, each holding exactly its slice of order
        p = 0
        for d in sorted(range(len(start)), key=start.__getitem__):
            assert start[d] == p
            assert {cell[a] for a in order[p : p + size[d]]} == {d}
            p += size[d]
        assert p == n
        # each piece is one cell, laid out where the split cell began, in
        # order; the largest keeps the id c and the others' atoms come back
        ids = []
        for piece in pieces:
            d = cell[piece[0]]
            assert set(order[first : first + len(piece)]) == set(piece)
            assert size[d] == len(piece) and d not in ids
            ids.append(d)
            first += len(piece)
        assert ids[[len(piece) for piece in pieces].index(size[c])] == c
        assert sorted(splitters) == sorted(
            a for piece, d in zip(pieces, ids) if d != c for a in piece
        )
        # the pieces in key order: one key each, rising, or one key for
        # the whole stable cell when a tie-break splits off its atom
        if len(set().union(*keys)) > 1:
            assert all(len(ks) == 1 for ks in keys)
            assert [min(ks) for ks in keys] == sorted({min(ks) for ks in keys})
        else:
            assert [len(piece) for piece in below] == [1] and above == []
        splits.append(len(pieces))
        return splitters

    monkeypatch.setattr(canon._Partition, "_split", checked)
    monkeypatch.setattr(canon._Partition, "touched_by", snapshot_next)
    mol = parse_smiles(text)
    for m in (mol, parse_smiles(render_random(mol, random.Random(0)))):
        ranks.clear()
        assert canonical_ranks(m) == reference_canonical_ranks(m)
    assert splits


@pytest.mark.parametrize("shape", [_chain, _ring, _comb, _nested, _methanes])
def test_canonical_form_scales_near_linearly(shape, best_cpu_times):
    # refinement re-keys only the atoms next to a cell that split, and a
    # tie-break finds its atom without scanning the whole tied cell, so
    # twice the atoms cost about twice the CPU time, not four times
    texts = [shape(k) for k in (2500, 5000)]
    assert [len(parse_smiles(text)) for text in texts] == [2500, 5000]
    best = best_cpu_times(
        [lambda text=text: canonical_smiles(parse_smiles(text)) for text in texts], 5
    )
    assert best[1] / best[0] <= 2.5, best


def test_long_chain_self_scores_in_bounded_time():
    text = _chain(5000)
    start = time.process_time()
    score = reconstruction_score(text, text)
    assert time.process_time() - start < 2.0
    assert score.total == 4.0
