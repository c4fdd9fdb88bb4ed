"""Dataset loading, splitting, dedupe, and diagnostic filtering."""

from __future__ import annotations

import json
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltrip.adapters import EchoAdapter
from moltrip.chem import (
    canon,
    canonical_smiles,
    canonicalize,
    check_validity,
    parse_smiles,
    render_random,
    scan_smiles,
)
from moltrip.dataset import (
    EmptyInput,
    FormatUnknown,
    IoFailure,
    PairRecord,
    SplitSpec,
    dedupe_overlap,
    diagnostic_filter,
    formula_key,
    load_pairs,
    split,
    write_pairs,
)
from oracles import reference_dedupe_overlap


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# loading

@pytest.mark.parametrize("lines", [
    [json.dumps({"smiles": "CCO", "caption": "ethanol"}),
     json.dumps({"smiles": "CC=O", "caption": "acetaldehyde"}),
     "\ufeff" + json.dumps({"smiles": "C", "caption": "methane"})],
    ["CCO\tethanol", "CC=O\tacetaldehyde", "\ufeffC\tmethane"],
], ids=["jsonl", "tsv"])
def test_load_skips_a_leading_byte_order_mark_only(lines, tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    result = load_pairs(str(path))
    assert [r.smiles for r in result.records][:2] == ["CCO", "CC=O"]
    assert result.records[0].caption == "ethanol"
    # a U+FEFF past the first character is kept, and fails where it lands
    if result.records[2:]:
        assert result.records[2].smiles == "\ufeffC"
    else:
        assert [e.line_no for e in result.sidecar] == [3]


def test_load_jsonl_three_lines(tmp_path):
    path = _write(tmp_path / "pairs.jsonl", [
        json.dumps({"smiles": "CCO", "caption": "ethanol"}),
        json.dumps({"smiles": "CC=O", "caption": "acetaldehyde", "id": "x1"}),
        json.dumps({"smiles": "C", "caption": "methane", "provenance": "manual"}),
    ])
    result = load_pairs(path)
    assert len(result.records) == 3
    assert result.sidecar == ()
    assert result.records[0] == PairRecord(smiles="CCO", caption="ethanol")
    assert result.records[1].id == "x1"
    assert result.records[2].provenance == "manual"


def test_load_tsv(tmp_path):
    path = _write(tmp_path / "pairs.tsv", [
        "CCO\tethanol",
        "CC=O\tacetaldehyde",
    ])
    result = load_pairs(path)
    assert [r.smiles for r in result.records] == ["CCO", "CC=O"]
    assert result.records[0].caption == "ethanol"


def test_load_malformed_lines_go_to_sidecar(tmp_path):
    path = _write(tmp_path / "pairs.jsonl", [
        json.dumps({"smiles": "CCO", "caption": "ethanol"}),
        "{not valid json",
        json.dumps({"caption": "missing smiles"}),
        json.dumps({"smiles": "CCN", "caption": "ethylamine"}),
    ])
    result = load_pairs(path)
    assert len(result.records) == 2
    assert len(result.sidecar) == 2
    assert [e.line_no for e in result.sidecar] == [2, 3]
    assert result.sidecar[0].content == "{not valid json"
    assert all(e.reason for e in result.sidecar)


def test_load_sets_aside_a_line_nested_too_deeply_to_decode(tmp_path):
    path = _write(tmp_path / "pairs.jsonl", [
        json.dumps({"smiles": "CCO", "caption": "ethanol"}),
        "[" * 200_000 + "]" * 200_000,
    ])
    result = load_pairs(path)
    assert [r.smiles for r in result.records] == ["CCO"]
    assert [e.line_no for e in result.sidecar] == [2]
    assert "nests too deeply" in result.sidecar[0].reason


@pytest.mark.parametrize("body", [
    {"smiles": 5, "caption": "x"},
    {"smiles": "CCO", "caption": 7},
])
def test_non_string_pair_fields_go_to_sidecar(tmp_path, body):
    with pytest.raises(ValueError, match="must be a string"):
        PairRecord(**body)
    path = _write(tmp_path / "pairs.jsonl", [
        json.dumps({"smiles": "CCO", "caption": "ethanol"}),
        json.dumps(body),
    ])
    result = load_pairs(path)
    assert [r.smiles for r in result.records] == ["CCO"]
    assert [e.line_no for e in result.sidecar] == [2]


def test_load_format_unknown(tmp_path):
    path = _write(tmp_path / "pairs.txt", ["CCO ethanol", "CC=O acetaldehyde"])
    with pytest.raises(FormatUnknown):
        load_pairs(path)


def test_load_missing_file_raises_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        load_pairs(str(tmp_path / "absent.jsonl"))


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    result = load_pairs(str(path))
    assert result.records == ()
    assert result.sidecar == ()


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
def test_write_load_round_trip(tmp_path, fmt):
    records = [
        PairRecord(smiles=f"{'C' * (i % 7 + 1)}", caption=f"chain {i}",
                   id=f"r{i}", provenance="synthetic")
        for i in range(1000)
    ]
    path = str(tmp_path / f"out.{fmt}")
    write_pairs(records, path, fmt=fmt)
    back = load_pairs(path)
    assert back.sidecar == ()
    assert [r.smiles for r in back.records] == [r.smiles for r in records]
    assert [r.caption for r in back.records] == [r.caption for r in records]
    if fmt == "jsonl":
        assert list(back.records) == records


@pytest.mark.parametrize("smiles, caption", [
    ("CCO", "a\tb"),
    ("CCO", "line\nbreak"),
    ("CCO", "carriage\rreturn"),
    ("CCO", "para\u2029graph"),
    ("CCO", " padded"),
    ("CCO ", "padded smiles"),
    ("{CCO", "reads as JSON"),
])
def test_tsv_write_refuses_records_that_would_not_read_back(tmp_path, smiles, caption):
    path = tmp_path / "out.tsv"
    path.write_text("CC\told\n", encoding="utf-8")
    records = [PairRecord(smiles="CCN", caption="fine"),
               PairRecord(smiles=smiles, caption=caption, id="bad")]
    with pytest.raises(ValueError, match="record 2 \\(id='bad'"):
        write_pairs(records, str(path), fmt="tsv")
    assert path.read_text(encoding="utf-8") == "CC\told\n"
    assert not (tmp_path / "out.tsv.tmp").exists()
    write_pairs(records, str(path), fmt="jsonl")
    assert load_pairs(str(path)).records == tuple(records)


_records = st.lists(st.builds(
    PairRecord,
    smiles=st.text(min_size=1) | st.text().map("{".__add__),
    caption=st.text(),
    id=st.none() | st.text(),
    provenance=st.text(),
), max_size=4)


@settings(max_examples=200, deadline=None)
@given(records=_records)
def test_written_pairs_read_back(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pairs.jsonl")
        write_pairs(records, path, fmt="jsonl")
        back = load_pairs(path)
        assert back.sidecar == ()
        assert back.records == tuple(records)
        path = os.path.join(tmp, "pairs.tsv")
        try:
            write_pairs(records, path, fmt="tsv")
        except ValueError:
            return
        back = load_pairs(path)
        assert back.sidecar == ()
        assert ([(r.smiles, r.caption) for r in back.records]
                == [(r.smiles, r.caption) for r in records])


# ---------------------------------------------------------------------------
# splitting

def _pairs(n):
    return [PairRecord(smiles="C" * (i % 9 + 1), caption=f"p{i}", id=str(i))
            for i in range(n)]


def test_split_ten_records():
    train, val, test = split(_pairs(10), SplitSpec(seed=3))
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_split_large_sizes():
    train, val, test = split(_pairs(33_010), SplitSpec(seed=0))
    assert (len(train), len(val), len(test)) == (26_408, 3_301, 3_301)


def test_split_is_seeded_and_deterministic():
    pairs = _pairs(100)
    a = split(pairs, SplitSpec(seed=7))
    b = split(pairs, SplitSpec(seed=7))
    assert a == b
    c = split(pairs, SplitSpec(seed=8))
    assert a != c


def test_split_partitions_without_loss():
    pairs = _pairs(101)
    train, val, test = split(pairs, SplitSpec(seed=1))
    ids = [r.id for r in train + val + test]
    assert sorted(ids, key=int) == [r.id for r in pairs]
    assert len(set(ids)) == len(pairs)


def test_split_empty_raises():
    with pytest.raises(EmptyInput):
        split([], SplitSpec())


def test_split_spec_validation():
    for ratios in (
        (0.5, 0.4, 0.2), (-0.1, 1.0, 0.1), (0.5, 0.3, 0.1, 0.1), (0.7, 0.3),
    ):
        with pytest.raises(ValueError):
            SplitSpec(ratios=ratios)


# ---------------------------------------------------------------------------
# dedupe

def test_dedupe_removes_canonical_duplicates():
    target = [PairRecord(smiles="OCC", caption="ethanol spelled backwards")]
    reference = [PairRecord(smiles="CCO", caption="ethanol")]
    result = dedupe_overlap(target, reference)
    assert result.kept == ()
    assert len(result.removed) == 1
    assert result.overlap_fraction == 1.0


def test_dedupe_disjoint_sets_unchanged():
    target = [PairRecord(smiles="CCN", caption="a"),
              PairRecord(smiles="CCC", caption="b")]
    reference = [PairRecord(smiles="CCO", caption="c")]
    result = dedupe_overlap(target, reference)
    assert result.kept == tuple(target)
    assert result.removed == ()
    assert result.overlap_fraction == 0.0


def test_dedupe_partial_overlap_fraction():
    target = [PairRecord(smiles="CCO", caption="a"),
              PairRecord(smiles="CCN", caption="b"),
              PairRecord(smiles="C(C)O", caption="c")]
    reference = [PairRecord(smiles="OCC", caption="z")]
    result = dedupe_overlap(target, reference)
    assert [r.caption for r in result.kept] == ["b"]
    assert [r.caption for r in result.removed] == ["a", "c"]
    assert result.overlap_fraction == pytest.approx(2 / 3)


def test_dedupe_is_idempotent():
    target = [PairRecord(smiles="CCO", caption="a"),
              PairRecord(smiles="CCN", caption="b")]
    reference = [PairRecord(smiles="OCC", caption="z")]
    once = dedupe_overlap(target, reference)
    twice = dedupe_overlap(list(once.kept), reference)
    assert twice.kept == once.kept
    assert twice.removed == ()


@pytest.mark.parametrize("mode,kept_count", [("drop", 0), ("keep", 1)])
def test_dedupe_parse_error_modes(mode, kept_count):
    target = [PairRecord(smiles="C(", caption="broken")]
    reference = [PairRecord(smiles="CCO", caption="z")]
    result = dedupe_overlap(target, reference, on_parse_error=mode)
    assert len(result.kept) == kept_count
    assert len(result.sidecar) == 1
    assert "C(" in result.sidecar[0].content


def test_dedupe_reference_parse_error_recorded_not_fatal():
    target = [PairRecord(smiles="CCO", caption="a")]
    reference = [PairRecord(smiles="xyz", caption="junk")]
    result = dedupe_overlap(target, reference)
    assert result.kept == tuple(target)
    assert len(result.sidecar) == 1


def test_dedupe_sets_aside_a_molecule_too_large_to_canonicalise(snake_ladder):
    assert len(snake_ladder) == 798 and check_validity(snake_ladder).is_valid
    target = [PairRecord(smiles="OCC", caption="a"),
              PairRecord(smiles=snake_ladder, caption="ladder"),
              PairRecord(smiles="CCN", caption="b")]
    reference = [PairRecord(smiles="CCO", caption="z"),
                 PairRecord(smiles=snake_ladder, caption="ladder")]
    result = dedupe_overlap(target, reference, on_parse_error="keep")
    assert [r.caption for r in result.kept] == ["ladder", "b"]
    assert [r.caption for r in result.removed] == ["a"]
    assert [(e.line_no, e.content) for e in result.sidecar] == [
        (2, snake_ladder), (2, snake_ladder)
    ]
    assert "99 ring closures" in result.sidecar[0].reason


def test_dedupe_sidecar_falls_back_to_record_position():
    target = [
        PairRecord(smiles="CCO", caption="a"),
        PairRecord(smiles="C(", caption="b"),
    ]
    result = dedupe_overlap(target, [PairRecord(smiles="CCN", caption="z")])
    assert [e.line_no for e in result.sidecar] == [2]


# Strings whose keys collide without a duplicate (isomers, charge and
# isotope variants), respellings (Kekule and aromatic, explicit [H]), a ring
# closure across a dot, and strings that fail the grammar.
_HOSTILE = (
    "CCO", "COC", "OCC", "CCCC", "CC(C)C", "[NH4+]", "N", "[13CH4]", "C",
    "[CH4]", "C1=CC=CC=C1", "c1ccccc1", "[H]C([H])([H])[H]", "[H][H]",
    "[H]", "C1.C1", "CC", "C(", "c1cc", " ", "[Xx]", "C1CC", "[0CH4]",
    "CC1=CC=C(C=C1)O", "Cc1ccc(O)cc1", "C1=CC=C2C=CC=CC2=C1", "c1ccc2ccccc2c1",
)


def _molgen_sets(molgen, rng):
    """Reference and target strings from molgen: the targets mix respelled
    references, molecules built apart, and malformed spellings."""
    graphs = [molgen.build(molgen.blueprint(rng.randint(15, 30), rng), rng)
              for _ in range(rng.randint(1, 4))]
    refs = [molgen.write_smiles(g, rng) for g in graphs]
    targets = [molgen.respell(g, rng, text) for g, text in zip(graphs, refs)]
    for _ in range(rng.randint(0, 3)):
        g = molgen.build(molgen.blueprint(rng.randint(15, 30), rng), rng)
        text = molgen.write_smiles(g, rng)
        targets.append(molgen.malformed(text, rng) if rng.random() < 0.3 else text)
    return refs, targets


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ref_extra=st.lists(st.sampled_from(_HOSTILE), max_size=6),
    target_extra=st.lists(st.sampled_from(_HOSTILE), max_size=6),
    ladder=st.sampled_from(["none", "reference", "target", "both"]),
)
def test_dedupe_matches_the_canonicalise_everything_reference(
    workloads, snake_ladder, seed, ref_extra, target_extra, ladder
):
    rng = random.Random(seed)
    refs, targets = _molgen_sets(workloads.molgen, rng)
    refs += ref_extra
    targets += target_extra + ref_extra[:2]
    if ladder in ("reference", "both"):
        refs.append(snake_ladder)
    if ladder in ("target", "both"):
        targets.append(snake_ladder)
    rng.shuffle(refs)
    rng.shuffle(targets)
    reference = [PairRecord(smiles=s, caption=f"r{k}") for k, s in enumerate(refs)]
    target = [PairRecord(smiles=s, caption=f"t{k}") for k, s in enumerate(targets)]
    for mode in ("drop", "keep"):
        got = dedupe_overlap(target, reference, on_parse_error=mode)
        want = reference_dedupe_overlap(target, reference, on_parse_error=mode)
        assert got.kept == want.kept
        assert got.removed == want.removed
        assert got.overlap_fraction == want.overlap_fraction
        assert got.sidecar == want.sidecar


def test_dedupe_matches_the_reference_on_every_hostile_pair(snake_ladder):
    records = [PairRecord(smiles=s, caption=f"h{k}") for k, s in enumerate(_HOSTILE)]
    ladder = PairRecord(smiles=snake_ladder, caption="ladder")
    cases = [(records + [ladder], records[::-1] + [ladder])]
    cases += [([t], [r]) for t in records for r in records]
    for mode in ("drop", "keep"):
        for target, reference in cases:
            assert dedupe_overlap(target, reference, mode) == (
                reference_dedupe_overlap(target, reference, mode)
            ), (mode, target, reference)


def _key(text: str) -> str:
    return formula_key(scan_smiles(text))


def _assert_spellings_share_a_key(text: str, rng: random.Random) -> None:
    mol = parse_smiles(text)
    key = _key(text)
    assert _key(canonical_smiles(mol)) == key, text
    for _ in range(3):
        assert _key(render_random(mol, rng)) == key, text


def test_every_corpus_spelling_shares_its_formula_key(corpus):
    rng = random.Random(0)
    for text in corpus + [s for s in _HOSTILE if check_validity(s).is_valid]:
        _assert_spellings_share_a_key(text, rng)


@settings(max_examples=12, deadline=None)
@given(atoms=st.integers(15, 45), seed=st.integers(0, 2**32 - 1))
def test_every_molgen_spelling_shares_its_formula_key(workloads, atoms, seed):
    molgen = workloads.molgen
    rng = random.Random(seed)
    graph = molgen.build(molgen.blueprint(atoms, rng), rng)
    text = molgen.write_smiles(graph, rng)
    assert _key(molgen.respell(graph, rng, text)) == _key(text)
    _assert_spellings_share_a_key(text, rng)


@pytest.fixture
def canonical_forms(monkeypatch):
    """A list that grows by one molecule per canonical form computed."""
    seen = []
    ranks = canon.canonical_ranks

    def counted(mol):
        seen.append(mol)
        return ranks(mol)

    monkeypatch.setattr(canon, "canonical_ranks", counted)
    return seen


def test_dedupe_canonicalises_nothing_for_targets_whose_key_misses(
    workloads, snake_ladder, canonical_forms
):
    refs, lines, _ = workloads.dedupe_sets(0)
    reference = [PairRecord(smiles=s, caption="r") for s in refs]
    keys = {_key(s) for s in refs}
    texts = [json.loads(line)["smiles"] for line in lines if line.endswith("}")]
    misses = [s for s in texts + list(_HOSTILE)
              if check_validity(s).is_valid and _key(s) not in keys]
    assert len(misses) > 100
    target = [PairRecord(smiles=s, caption="t") for s in misses]
    result = dedupe_overlap(target, reference)
    assert result.kept == tuple(target) and canonical_forms == []
    # a spelling with 100 or more ring closures is canonicalised as it is
    # read, on either side
    result = dedupe_overlap(
        target + [PairRecord(smiles=snake_ladder, caption="ladder")],
        reference + [PairRecord(smiles=snake_ladder, caption="ladder")],
    )
    assert len(canonical_forms) == 2 and len(result.sidecar) == 2


def test_dedupe_canonicalises_each_molecule_at_most_once_when_every_key_collides(
    workloads, canonical_forms
):
    refs, _, _ = workloads.dedupe_sets(1)
    rng = random.Random(1)
    respelled = [render_random(parse_smiles(s), rng) for s in refs]
    reference = [PairRecord(smiles=s, caption="r") for s in refs + refs[:20]]
    target = [PairRecord(smiles=s, caption="t") for s in refs + respelled]
    result = dedupe_overlap(target, reference)
    assert result.kept == () and result.overlap_fraction == 1.0
    # every key is hit, so each string is canonicalised, and only once
    assert len(canonical_forms) == len(target) + len(reference)


def test_loaded_records_keep_their_file_line(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("CCO\ta\n\n\nCCN\tb\n")
    records = load_pairs(str(path)).records
    assert [r.line_no for r in records] == [1, 4]
    assert records[1] == PairRecord(smiles="CCN", caption="b")


# ---------------------------------------------------------------------------
# diagnostic filter

def _clean_pair(smiles):
    return PairRecord(smiles=smiles, caption=canonicalize(smiles))


def test_filter_echo_keeps_canonical_captions():
    pairs = [_clean_pair(s) for s in ("CCO", "CCN", "c1ccccc1", "CC(=O)O")]
    result = diagnostic_filter(pairs, EchoAdapter(), tau=4.0)
    assert result.kept == tuple(pairs)
    assert result.rejected == ()
    assert all(s.score == 4.0 for s in result.scores)


def test_filter_scrambled_half_recovered_exactly():
    clean_smiles = ["CCO", "CCCC", "c1ccccc1", "CC(=O)O", "CCN"]
    # captions point at a structurally unrelated molecule, so the echo
    # reconstruction scores well under the threshold
    scrambled = [
        PairRecord(smiles="CCO", caption=canonicalize("c1ccc(Cl)cc1")),
        PairRecord(smiles="CCCC", caption=canonicalize("[NH4+].[Cl-]")),
        PairRecord(smiles="c1ccccc1", caption=canonicalize("CCO")),
        PairRecord(smiles="CC(=O)O", caption=canonicalize("CCCCCCCC")),
        PairRecord(smiles="CCN", caption=canonicalize("OS(=O)(=O)O")),
    ]
    clean = [_clean_pair(s) for s in clean_smiles]
    result = diagnostic_filter(clean + scrambled, EchoAdapter(), tau=2.0)
    assert set(result.kept) == set(clean)
    assert set(result.rejected) == set(scrambled)


def test_filter_failing_adapter_rejects_with_reason():
    class Exploding:
        def generate(self, caption, n, temperature=1.0):
            raise RuntimeError("backend offline")

    pairs = [_clean_pair("CCO")]
    result = diagnostic_filter(pairs, Exploding(), tau=1.0)
    assert result.kept == ()
    assert len(result.rejected) == 1
    assert "RuntimeError" in result.scores[0].reason


def test_filter_partitions_input():
    pairs = [_clean_pair("CCO"),
             PairRecord(smiles="CCN", caption=canonicalize("c1ccccc1"))]
    result = diagnostic_filter(pairs, EchoAdapter(), tau=3.0)
    assert set(result.kept) | set(result.rejected) == set(pairs)
    assert len(result.kept) + len(result.rejected) == len(pairs)


def test_filter_tau_zero_keeps_valid_reconstructions():
    pairs = [_clean_pair("CCO")]
    result = diagnostic_filter(pairs, EchoAdapter(), tau=0.0)
    assert result.kept == tuple(pairs)


def test_filter_working_memory_stays_flat_over_the_pair_count(corpus):
    # largest molecules first, so both runs meet the same largest
    # single-pair working set and only the number of pairs differs
    ordered = sorted(corpus, key=lambda s: -len(parse_smiles(s).atoms))
    pairs = [_clean_pair(s) for s in ordered]

    def working_peak(records):
        """Peak traced bytes above what the returned result still holds."""
        tracemalloc.start()
        try:
            result = diagnostic_filter(records, EchoAdapter(), tau=4.0, m=2)
            held, peak = tracemalloc.get_traced_memory()
            assert len(result.kept) == len(records)
            return peak - held
        finally:
            tracemalloc.stop()

    fifty = working_peak(pairs[:50])
    assert working_peak(pairs) < 1.5 * fifty


def test_filter_validates_arguments():
    with pytest.raises(ValueError):
        diagnostic_filter([_clean_pair("C")], EchoAdapter(), tau=4.5)
    with pytest.raises(ValueError):
        diagnostic_filter([_clean_pair("C")], EchoAdapter(), tau=1.0, m=0)
