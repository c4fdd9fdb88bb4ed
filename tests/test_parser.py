"""Parser grammar, graph construction, and error taxonomy."""

from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltrip.chem import model, parser, rings, valence
from moltrip.chem import (
    AromaticBondMismatch,
    Bond,
    BondOrder,
    DanglingBond,
    EmptyInput,
    RingBondConflict,
    UnbalancedParenthesis,
    UnclosedRing,
    UnknownToken,
    build_molecule,
    canonical_smiles,
    parse_smiles,
    render_random,
    scan_smiles,
)
from moltrip.chem.model import Atom, Molecule
from moltrip.fingerprints import morgan_features, path_features
from oracles import _ref_cycle_mask, non_bridge_atoms, scan_structure


def test_minimal_chain():
    mol = parse_smiles("CCO")
    assert [a.element for a in mol.atoms] == ["C", "C", "O"]
    assert len(mol.bonds) == 2
    assert all(b.order is BondOrder.SINGLE for b in mol.bonds)
    assert [a.hydrogens for a in mol.atoms] == [3, 2, 1]


def test_benzene_graph():
    mol = parse_smiles("c1ccccc1")
    assert len(mol.atoms) == 6
    assert all(a.element == "C" and a.is_aromatic for a in mol.atoms)
    assert len(mol.rings) == 1 and len(mol.rings[0]) == 6
    assert all(b.order is BondOrder.AROMATIC for b in mol.bonds)
    assert all(a.hydrogens == 1 for a in mol.atoms)


def test_branches_and_orders():
    mol = parse_smiles("CC(=O)O")
    orders = {(min(b.a, b.b), max(b.a, b.b)): b.order for b in mol.bonds}
    assert orders[(1, 2)] is BondOrder.DOUBLE
    assert orders[(1, 3)] is BondOrder.SINGLE
    assert mol.atoms[1].hydrogens == 0


def test_bracket_atom_fields():
    mol = parse_smiles("[13CH3+2]")
    atom = mol.atoms[0]
    assert atom.isotope == 13
    assert atom.hydrogens == 3
    assert atom.formal_charge == 2
    mol = parse_smiles("[O--]")
    assert mol.atoms[0].formal_charge == -2


def test_ring_closure_percent():
    assert len(parse_smiles("C%12CCCC%12").rings[0]) == 5


def test_ring_bond_order_on_either_side():
    for text in ("C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"):
        mol = parse_smiles(text)
        closure = mol.bond_between(0, 5)
        assert closure.order is BondOrder.DOUBLE


def test_fragments_recorded():
    # bondless atoms are one-atom fragments, also beside a ring
    for text, fragments, ring_set in (
        ("[Na+].[Cl-]", ((0,), (1,)), ()),
        ("C.C.O", ((0,), (1,), (2,)), ()),
        ("[Xe]", ((0,),), ()),
        ("C1CC1.[Na+]", ((0, 1, 2), (3,)), ((0, 1, 2),)),
    ):
        mol = parse_smiles(text)
        assert (mol.fragments, mol.rings) == (fragments, ring_set), text


def test_stereo_discarded_into_notes():
    mol = parse_smiles("C[C@H](N)C(=O)O")
    assert any("stereo" in note for note in mol.parse_notes)
    mol = parse_smiles("C/C=C/C")
    assert sum("directional" in note for note in mol.parse_notes) == 2


def test_atom_map_noted():
    mol = parse_smiles("[CH3:7]O")
    assert any("atom map :7" in note for note in mol.parse_notes)
    assert mol.atoms[0].hydrogens == 3


@pytest.mark.parametrize(
    "text,error",
    [
        ("C1CC", UnclosedRing),
        ("C1CC2", UnclosedRing),
        ("C(C", UnbalancedParenthesis),
        (")C", UnbalancedParenthesis),
        ("(C)C", UnbalancedParenthesis),
        ("abc", UnknownToken),
        ("C$C", UnknownToken),
        ("[Xx]", UnknownToken),
        ("[C@@", UnknownToken),
        ("C%1", UnknownToken),
        ("", EmptyInput),
        ("   ", EmptyInput),
        ("C=", DanglingBond),
        ("=C", DanglingBond),
        ("C==C", DanglingBond),
        ("C(=)O", DanglingBond),
        ("C.", DanglingBond),
        (".C", DanglingBond),
        ("C.=C", DanglingBond),
        ("C11", RingBondConflict),
        ("C12CC12", RingBondConflict),
        ("C=1CCCCC#1", RingBondConflict),
        ("C:C", AromaticBondMismatch),
    ],
)
def test_grammar_errors(text, error):
    with pytest.raises(error):
        parse_smiles(text)


def test_error_positions_reported():
    with pytest.raises(UnknownToken) as info:
        parse_smiles("CC$C")
    assert info.value.position == 2


def test_implicit_hydrogen_fill_rules():
    # organic subset fills to the lowest permitted valence that fits
    cases = {
        "C": [4],
        "N": [3],
        "O": [2],
        "S": [2],
        "CS(C)C": [3, 1, 3, 3],  # S fills to the next valence (4)
        "c1ccsc1": [1, 1, 1, 0, 1],  # thiophene sulfur carries no H
        "c1cc[nH]c1": [1, 1, 1, 1, 1],
        "c1ccncc1": [1, 1, 1, 0, 1, 1],
    }
    for text, expected in cases.items():
        assert [a.hydrogens for a in parse_smiles(text).atoms] == expected, text


def test_bracket_hydrogens_are_explicit_only():
    assert parse_smiles("[CH2]").atoms[0].hydrogens == 2
    assert parse_smiles("[C]").atoms[0].hydrogens == 0


def test_kekule_ring_normalized_to_aromatic():
    mol = parse_smiles("C1=CC=CC=C1")
    assert all(a.is_aromatic for a in mol.atoms)
    assert all(b.order is BondOrder.AROMATIC for b in mol.bonds)


def test_quinone_not_aromatized():
    mol = parse_smiles("O=C1C=CC(=O)C=C1")
    assert not any(a.is_aromatic for a in mol.atoms)


def test_corpus_matches_independent_token_scan(corpus):
    for text in corpus:
        mol = parse_smiles(text)
        elements, atoms, bonds = scan_structure(text)
        assert len(mol.atoms) == atoms, text
        assert len(mol.bonds) == bonds, text
        got = {}
        for atom in mol.atoms:
            got[atom.element] = got.get(atom.element, 0) + 1
        assert got == dict(elements), text


def test_ring_count_equals_cyclomatic_number(corpus):
    from moltrip.chem import cyclomatic_number

    for text in corpus:
        mol = parse_smiles(text)
        assert len(mol.rings) == cyclomatic_number(len(mol.atoms), mol.bonds), text


def test_ring_atoms_are_the_atoms_on_non_bridge_bonds(corpus):
    for text in corpus + ["C1CC2CCC1CC2", "C12C3C4C1C5C2C3C45", "C1CC1CC.C1CC1"]:
        mol = parse_smiles(text)
        assert mol.ring_atoms == non_bridge_atoms(mol), text


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_ring_bonds_follow_each_ring_in_order(corpus, data, seed):
    text = data.draw(st.sampled_from(corpus))
    mol = parse_smiles(render_random(parse_smiles(text), random.Random(seed)))
    view = mol.neighbor_view
    for ring in mol.rings:
        bonds = rings.ring_bonds(ring, view)
        assert len(bonds) == len(ring)
        mask = 0
        for i, k in enumerate(bonds):
            ends = {ring[i], ring[(i + 1) % len(ring)]}
            assert {mol.bonds[k].a, mol.bonds[k].b} == ends
            mask |= 1 << k
        assert mask == _ref_cycle_mask(ring, view)


@pytest.mark.parametrize("atom", ["C", "c"])
def test_macrocycle_parses_in_bounded_time(atom):
    start = time.process_time()
    mol = parse_smiles(f"{atom}1" + atom * 598 + f"{atom}1")
    sizes = [len(ring) for ring in mol.rings]  # perceived on first read
    elapsed = time.process_time() - start
    assert not mol.failures
    assert sizes == [600]
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_ring_perception_scales_linearly_on_one_ring(best_cpu_times):
    # an isolated cycle is walked once, not searched once per bond, so
    # twice the ring costs about twice the CPU time, not four times
    texts = ["c1" + "c" * (k - 2) + "c1" for k in (1200, 2400)]
    # rings are perceived on first read, so the timed call reads them
    best = best_cpu_times([lambda text=text: parse_smiles(text).rings for text in texts], 7)
    assert best[1] / best[0] <= 2.5


def test_parse_builds_the_neighbour_view_once(monkeypatch):
    built = []
    original = model.neighbor_view

    def counting(n_atoms, bonds):
        built.append(n_atoms)
        return original(n_atoms, bonds)

    for module in (model, parser, rings, valence):
        if hasattr(module, "neighbor_view"):
            monkeypatch.setattr(module, "neighbor_view", counting)
    mol = parse_smiles("c1ccccc1C(=O)Nc1ccncc1")  # has pi donors
    canonical_smiles(mol)
    morgan_features(mol)
    path_features(mol)
    assert len(built) == 1
    direct = Molecule(  # builds its own
        atoms=mol.atoms, bonds=mol.bonds, rings=mol.rings, fragments=mol.fragments
    )
    assert direct.neighbor_view == mol.neighbor_view
    assert len(built) == 2


def test_atom_constructor_and_replace_still_validate():
    with pytest.raises(ValueError, match="unrecognized element"):
        Atom(element="Xx")
    atom = parse_smiles("CO").atoms[1]
    with pytest.raises(ValueError, match="unrecognized element"):
        atom._replace(element="Xx")


def test_atom_keeps_five_fields():
    assert list(Atom._fields) == [
        "element", "is_aromatic", "formal_charge", "isotope", "hydrogens",
    ]


_ATOM_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|[BCNOPSFIbcnops]")


def _bracket_every_bare_atom(text: str) -> str:
    """``text`` with each bare atom written in brackets with its hydrogen
    count (``C`` -> ``[CH3]``, ``c`` -> ``[cH]``)."""
    atoms = iter(parse_smiles(text).atoms)

    def spell(match: re.Match) -> str:
        token, h = match.group(), next(atoms).hydrogens
        if token.startswith("["):
            return token
        return f"[{token}{'H' if h else ''}{h if h > 1 else ''}]"

    return _ATOM_TOKEN.sub(spell, text)


def test_bare_atoms_spelled_in_brackets_parse_to_equal_molecules(corpus):
    # a molecule is its graph: how each atom's hydrogens were written is not
    # part of it, so equality, hash, verdict and canonical form all agree
    checked = 0
    for text in corpus:
        mol = parse_smiles(text)
        if mol.failures:
            continue
        spelled = _bracket_every_bare_atom(text)
        twin = parse_smiles(spelled)
        assert twin == mol, (text, spelled)
        assert hash(twin) == hash(mol), (text, spelled)
        assert twin.failures == mol.failures == ()
        assert canonical_smiles(twin) == canonical_smiles(mol), (text, spelled)
        checked += spelled != text
    assert checked >= 150


@pytest.mark.parametrize(
    "text,twin",
    [
        ("CC", "[CH3][CH3]"),
        ("c1ccccc1O", "[cH]1[cH][cH][cH][cH][c]1[OH]"),
        ("CC=CC", "C/C=C/C"),  # only the second has parse notes
        ("C[C@H](N)C", "CC(N)C"),
    ],
)
def test_spellings_of_one_graph_parse_to_equal_molecules(text, twin):
    one, two = parse_smiles(text), parse_smiles(twin)
    assert one == two
    assert hash(one) == hash(two)


def test_hand_built_molecule_without_fragments_or_rings_is_refused():
    mol = parse_smiles("C1CC1O")
    atoms, bonds = mol.atoms, mol.bonds
    with pytest.raises(ValueError, match="fragment sizes"):
        Molecule(atoms, bonds, rings=mol.rings)
    with pytest.raises(ValueError, match="fragment sizes"):
        Molecule(atoms, bonds, rings=mol.rings, fragments=((0, 1, 2),))
    with pytest.raises(ValueError, match="rings"):
        Molecule(atoms, bonds, rings=(), fragments=mol.fragments)
    derived = Molecule(atoms, bonds, fragments=mol.fragments)  # rings omitted
    assert derived.rings == mol.rings == ((0, 1, 2),)
    built = Molecule(atoms, bonds, rings=mol.rings, fragments=mol.fragments)
    assert built == mol
    assert canonical_smiles(built) == canonical_smiles(mol) != ""


def test_the_molecule_keeps_the_bond_records_the_scan_made():
    scan = scan_smiles("CC(=O)N")
    bonds = scan[1]
    assert bonds == [
        Bond(0, 1), Bond(1, 2, BondOrder.DOUBLE), Bond(1, 3, BondOrder.SINGLE),
    ]
    assert all(type(bond) is Bond for bond in bonds)
    mol = build_molecule(scan)  # no Kekule ring: aromatize rewrites no bond
    assert all(kept is bond for kept, bond in zip(mol.bonds, bonds, strict=True))


def test_hand_built_molecule_with_a_self_bond_is_refused():
    with pytest.raises(ValueError, match="bond endpoints must be distinct"):
        Molecule((Atom("C"),), (Bond(0, 0),), fragments=((0,),))
