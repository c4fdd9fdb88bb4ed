"""Validity reports: valence table, charge shifts, kekulization."""

from __future__ import annotations

import random
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moltrip.chem import (
    PERMITTED_VALENCES,
    Bond,
    BondOrder,
    ValidityFailure,
    canonical_smiles,
    check_validity,
    parse_smiles,
    permitted_valences,
    render_random,
)
from moltrip.chem.model import neighbor_view
from moltrip.chem.valence import _kekulize
from moltrip.metrics import reconstruction_score
from oracles import CHARGED_VALENCES, reference_perfect_matching


@pytest.mark.parametrize(
    "text",
    [
        "CCO",
        "C",
        "O=C(O)c1ccccc1",
        "c1cc[nH]c1",
        "c1ccsc1",
        "C[n+]1ccccc1",
        "[NH4+]",
        "C[O-]",
        "OS(=O)(=O)O",
        "OP(=O)(O)O",
        "FS(F)(F)(F)(F)F",
        "[2H]O[2H]",
        "[Mg+2].[Cl-].[Cl-]",
        "CB(O)O",
        "CS(C)C",
        "C[P+](C)(C)C",
        "[Cl-]",
        "[H-]",
        "[o+]1ccccc1",
        "[cH-]1cccc1",
    ],
)
def test_valid_strings(text):
    report = check_validity(text)
    assert report.is_valid, (text, report.failures)
    assert report.failures == ()


def test_pentavalent_carbon_reported_at_atom():
    report = check_validity("C(C)(C)(C)(C)C")
    assert not report.is_valid
    assert report.failures[0].atom_index == 0
    assert report.failures[0].reason == "valence 5 > max 4 for C"


def test_parse_failure_maps_to_invalid():
    report = check_validity("abc")
    assert not report.is_valid
    assert report.failures[0].atom_index is None
    assert "UnknownToken" in report.failures[0].reason


@pytest.mark.parametrize(
    "text",
    [
        "N(C)(C)(C)C",      # tetravalent neutral N
        "O(C)(C)C",         # trivalent neutral O
        "O1=CC=CC=C1",      # neutral O holding a ring double bond
        "c1ccnc1",          # bare pyrrole nitrogen cannot kekulize
        "c",                 # lone aromatic atom
        "FF(F)F",           # hypervalent fluorine
        "[CH5]",            # bracket H overload
        "[CH2]",            # carbene: valence 2 not in {4}
        "C(C)(C)(C)(C)C",
    ],
)
def test_invalid_strings(text):
    assert not check_validity(text).is_valid, text


def test_charge_shifts_permitted_valence():
    assert check_validity("[NH4+]").is_valid          # N+ allows 4
    assert check_validity("[O-]C").is_valid           # O- allows 1
    assert not check_validity("N(C)(C)(C)C").is_valid
    assert check_validity("C[N+](C)(C)C").is_valid
    assert check_validity("C[O+](C)C").is_valid       # O+ allows 3
    assert check_validity("[CH3-]").is_valid          # C- allows 3


@pytest.mark.parametrize("text", [
    "F[B-](F)(F)F",            # tetrafluoroborate: B- takes carbon's 4
    "[BH4-]",                  # borohydride
    "[CH3+]",                  # carbocation: C+ takes boron's 3
    "[H+]",                    # a bare proton
    "F[P-](F)(F)(F)(F)F",      # hexafluorophosphate: P- takes sulfur's 6
])
def test_charged_atoms_take_their_isoelectronic_valences(text):
    report = check_validity(text)
    assert report.is_valid, (text, report.failures)


@pytest.mark.parametrize("salt", ["[Na+].F[B-](F)(F)F", "[Na+].F[P-](F)(F)(F)(F)F"])
def test_salt_with_a_charged_counter_ion_scores_four_against_itself(salt):
    assert reconstruction_score(salt, salt).total == 4.0


def test_ions_isoelectronic_with_beryllium_silicon_or_a_noble_gas(capsys):
    from moltrip.cli import main

    texts = ["[BH2+]", "[BH4+]", "[CH6+2]", "[SH4-2]", "[S-2]"]
    assert main(["validate", *texts]) == 1
    verdicts = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == ["VALID", "INVALID", "INVALID", "INVALID", "VALID"]
    assert permitted_valences("H", 2) == ()  # below hydrogen: no valence
    # the neutral elements themselves stay outside the table, unconstrained
    for element in ("Be", "Si", "He", "Ne", "Ar", "Kr", "Xe", "Rn"):
        assert permitted_valences(element, 0) is None
        assert check_validity(f"[{element}H6]").is_valid


def test_permitted_valences_of_every_charged_table_element():
    cases = [(e, q) for e in PERMITTED_VALENCES for q in (-2, -1, 1, 2)]
    assert sorted(cases) == sorted(CHARGED_VALENCES)
    for (element, charge), expected in CHARGED_VALENCES.items():
        assert permitted_valences(element, charge) == expected, (element, charge)
        sign = "+" if charge > 0 else "-"
        for total in range(9):  # the bracket atom's hydrogens are its valence
            text = f"[{element}H{total}{sign}{abs(charge)}]"
            assert check_validity(text).is_valid == (total in expected), text
    for element, valences in PERMITTED_VALENCES.items():
        assert permitted_valences(element, 0) == valences


def test_charge_shift_exact_membership():
    # N+ permits exactly 4: two bonds plus one H is 3, not permitted
    assert not check_validity("C[NH+]C").is_valid
    report = check_validity("[N+](C)(C)(C)(C)C")
    assert not report.is_valid
    assert "valence 5 > max 4 for N" in report.failures[0].reason


def test_every_violating_atom_listed():
    report = check_validity("C(C)(C)(C)(C)C(C)(C)(C)(C)C")
    assert not report.is_valid
    indices = {f.atom_index for f in report.failures}
    assert {0, 5} <= indices


def test_all_corpus_molecules_valid(corpus):
    for text in corpus:
        report = check_validity(text)
        assert report.is_valid, (text, report.failures)


def test_aromatic_rings_longer_than_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        report = check_validity("c1" + "c" * 398 + "c1")
    finally:
        sys.setrecursionlimit(limit)
    assert report.is_valid, report.failures


# ---------------------------------------------------------------------------
# kekulization: an exact verdict in bounded time

@pytest.mark.parametrize(
    "width,height,unmatched",
    [
        (11, 9, [30, 31, 56, 77, 80, 91, 92, 93, 94, 95, 98]),
        (11, 11, [46, 47, 54, 67, 84, 85, 86, 87, 110, 115, 118, 119, 120]),
        (11, 13, [56, 57, 60, 119, 136, 137, 140]),
    ],
)
def test_odd_aromatic_sheet_fails_kekulization_quickly(
    brick_walls, width, height, unmatched
):
    # an odd pi system has no perfect matching; the report lists the atoms
    # the greedy matching left over, as the full search once did after 5 to
    # 90 s
    text = brick_walls([(width, height)])
    start = time.process_time()
    report = check_validity(text)
    assert time.process_time() - start < 2.0
    assert report.failures == tuple(
        ValidityFailure(i, "aromatic system cannot be kekulized") for i in unmatched
    )


def test_even_aromatic_system_without_kekule_structure_reports_greedy_leftovers(
    brick_walls,
):
    # three odd sheets and one joining carbon: 190 atoms in one even pi
    # system, which a backtracking search could not settle within 100 s
    text = brick_walls([(9, 7)] * 3, joined=True)
    start = time.process_time()
    report = check_validity(text)
    assert time.process_time() - start < 2.0
    expected = tuple(
        ValidityFailure(i, "aromatic system cannot be kekulized")
        for i in [18, 95, 96, 97, 98, 99, 104, 105, 162, 163, 174, 181, 186,
                  187, 188, 189]
    )
    assert report.failures == expected
    assert parse_smiles(text).failures == expected


# C62H22, a benzenoid flake of 21 rings, in a spelling that a bounded
# backtracking search (100,000 choices) gave up on
C62H22 = (
    "c12c3c4c5c6c7c8c9c%10c(cc%11c%12c%10c7c7c%10c%12c(ccc%10c%10ccc(c%12c1c1"
    "c%13c(cc%14c%15c(c%16ccc(c6cc8)c4c%16c2c%13%15)ccc%14)ccc1cc%12)c3c%10c75"
    ")cc%11)ccc9"
)


def test_c62h22_spelling_is_valid_quickly():
    start = time.process_time()
    report = check_validity(C62H22)
    assert time.process_time() - start < 2.0
    assert report.is_valid, report.failures


def test_square_brick_wall_sheet_is_valid(brick_walls):
    report = check_validity(brick_walls([(20, 20)]))
    assert report.is_valid, report.failures


def test_large_shuffled_sheet_kekulizes_quickly(honeycomb, best_cpu_times):
    # 14,400 atoms labelled in a random order: the greedy matching leaves
    # about 1,500 atoms over, and each augmenting search stays near its root
    rng = random.Random(0)
    n = 120 * 120
    label = rng.sample(range(n), n)
    pairs = honeycomb(120, 120)
    rng.shuffle(pairs)
    bonds = tuple(Bond(label[a], label[b], BondOrder.AROMATIC) for a, b in pairs)
    view = neighbor_view(n, bonds)
    assert _kekulize(bonds, view, [1] * n) == set()
    [cpu] = best_cpu_times([lambda: _kekulize(bonds, view, [1] * n)], 3)
    assert cpu < 1.0


@settings(max_examples=25, deadline=None)
@given(
    width=st.sampled_from(range(4, 19, 2)),
    height=st.integers(2, 13),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4, unique=True),
)
def test_benzenoid_flakes_are_valid_in_every_spelling(
    benzenoid_flake, width, height, seeds
):
    # every flake of even width has a Kekule structure: its verdict and its
    # canonical form must not depend on the spelling
    mol = benzenoid_flake(width, height)
    assume(22 <= len(mol) <= 142)
    forms = set()
    for seed in seeds:
        text = render_random(mol, random.Random(seed))
        start = time.process_time()
        parsed = parse_smiles(text)
        forms.add(canonical_smiles(parsed))
        assert time.process_time() - start < 1.0, text
        assert parsed.failures == (), text
    assert forms == {canonical_smiles(mol)}


def _fused_pi_system(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Rings of 5 to 7 atoms, each after the first fused onto a bond between
    two atoms of two bonds each, and a few pendant atoms on such atoms: up
    to 39 atoms of at most three bonds, odd rings fused to even ones."""
    size = rng.randint(5, 7)
    pairs = [(i, (i + 1) % size) for i in range(size)]
    degree = [2] * size
    for _ in range(rng.randint(0, 6)):
        free = [(a, b) for a, b in pairs if degree[a] == degree[b] == 2]
        if not free:
            break
        a, b = rng.choice(free)
        path = [a, *range(len(degree), len(degree) + rng.randint(3, 5)), b]
        pairs += zip(path, path[1:])
        degree += [2] * (len(path) - 2)
        degree[a] = degree[b] = 3
    for atom in rng.sample(range(len(degree)), rng.randint(0, 2)):
        if degree[atom] == 2:
            pairs.append((atom, len(degree)))
            degree.append(1)
            degree[atom] = 3
    return len(degree), pairs


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
# a five-membered ring fused to a six-membered one, with a pendant atom:
# the greedy leftover reaches its mate only once both halves of a blossom
# are contracted
@example(seed=6759)
def test_kekulization_verdict_matches_backtracking(seed):
    rng = random.Random(seed)
    n, pairs = _fused_pi_system(rng)
    rng.shuffle(pairs)
    bonds = tuple(Bond(a, b, BondOrder.AROMATIC) for a, b in pairs)
    # some atoms donate a lone pair, and leave the pi system
    pi = [int(rng.random() > 0.1) for _ in range(n)]
    left = _kekulize(bonds, neighbor_view(n, bonds), pi)
    donors = [i for i in range(n) if pi[i]]
    index = {atom: k for k, atom in enumerate(donors)}
    adj = [[] for _ in donors]
    for a, b in pairs:
        if pi[a] and pi[b]:
            adj[index[a]].append(index[b])
            adj[index[b]].append(index[a])
    assert (left == set()) == reference_perfect_matching(adj)
    assert left <= set(donors)
