"""Pair ingestion, seeded splitting, overlap removal, diagnostic filtering.

Input files are either line-delimited JSON records with smiles/caption/id
fields or two-column tab-separated text.  Malformed lines are never silently
dropped: every loader and filter returns a sidecar naming the line or record
and the reason it was set aside.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
from typing import Iterator, NamedTuple, TextIO

from .chem import (
    SmilesError,
    build_molecule,
    canonical_smiles,
    canonicalize,
    scan_smiles,
)
from .chem.parser import Scan
from .metrics import ScoreCache
from .records import Checked


class IoFailure(OSError):
    """The underlying file could not be read or written."""


class FormatUnknown(ValueError):
    """The input file matches neither supported pair format."""


class EmptyInput(ValueError):
    """An operation needs at least one record."""


class _PairFields(NamedTuple):
    smiles: str
    caption: str
    id: str | None = None
    provenance: str = ""
    # 1-based line of the file the record was loaded from; None when built
    # in memory.  Not part of the record's identity.
    line_no: int | None = None


class PairRecord(Checked, _PairFields):
    """One molecule-caption pair.  Equality and hashing ignore ``line_no``."""

    __slots__ = ()

    def _check(self) -> None:
        for name in ("smiles", "caption"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if not self.smiles:
            raise ValueError("smiles must be non-empty")

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    def __ne__(self, other: object) -> bool:  # tuple's own would see line_no
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])


class _SplitFields(NamedTuple):
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0


class SplitSpec(Checked, _SplitFields):
    __slots__ = ()

    def _check(self) -> None:
        if len(self.ratios) != 3:
            raise ValueError(
                f"ratios needs 3 values (train, val, test), got {len(self.ratios)}"
            )
        if any(r < 0 for r in self.ratios):
            raise ValueError("ratios must be non-negative")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios sum to {sum(self.ratios)!r}, not 1")


class SidecarEntry(NamedTuple):
    line_no: int
    content: str
    reason: str


class LoadResult(NamedTuple):
    records: tuple[PairRecord, ...]
    sidecar: tuple[SidecarEntry, ...]


# ---------------------------------------------------------------------------
# loading and writing

@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """Text handle on a temporary sibling of ``path``, renamed into place
    when the block completes and removed when it raises, so a failed write
    leaves neither a partial file nor the temporary one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_pairs(path: str) -> LoadResult:
    """Parse a pair file; malformed lines land in the sidecar with numbers.
    A leading UTF-8 byte-order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    first = next((line for line in lines if line.strip()), None)
    if first is None:
        return LoadResult(records=(), sidecar=())
    if first.lstrip().startswith("{"):
        reader = _read_json_line
    elif "\t" in first:
        reader = _read_tsv_line
    else:
        raise FormatUnknown(
            f"{path}: first data line is neither a JSON record nor tab-separated"
        )
    records: list[PairRecord] = []
    sidecar: list[SidecarEntry] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(reader(line, number))
        except (ValueError, KeyError) as exc:
            sidecar.append(SidecarEntry(number, line, str(exc)))
    return LoadResult(records=tuple(records), sidecar=tuple(sidecar))


def _read_json_line(line: str, line_no: int) -> PairRecord:
    try:
        body = json.loads(line)
    except RecursionError:
        raise ValueError("record nests too deeply to decode") from None
    if not isinstance(body, dict):
        raise ValueError("record is not an object")
    return PairRecord(
        smiles=body["smiles"],
        caption=body.get("caption", ""),
        id=body.get("id"),
        provenance=body.get("provenance", ""),
        line_no=line_no,
    )


def _read_tsv_line(line: str, line_no: int) -> PairRecord:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError(f"expected 2 tab-separated columns, found {len(parts)}")
    return PairRecord(
        smiles=parts[0].strip(), caption=parts[1].strip(), line_no=line_no
    )


def check_readable(records: list[PairRecord], fmt: str) -> None:
    """Raise ValueError naming the first record that load_pairs could not
    read back from a ``fmt`` file.

    JSON lines escape every character.  A TSV line cannot hold a tab or a
    line break in a field, the reader strips whitespace around each field,
    and a file whose first line starts with '{' reads as JSON lines.
    """
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "jsonl":
        return
    for position, record in enumerate(records, start=1):
        # any str.splitlines boundary inside text splits "text."
        if record.smiles.startswith("{") or any(
            "\t" in text or len(f"{text}.".splitlines()) > 1 or text != text.strip()
            for text in (record.smiles, record.caption)
        ):
            raise ValueError(
                f"record {position} (id={record.id!r}, line={record.line_no})"
                " would not read back from TSV: a field holds a tab, a line"
                " break or surrounding whitespace, or the smiles starts with '{'"
            )


def write_pairs(records: list[PairRecord], path: str, fmt: str = "jsonl") -> None:
    """Write records as JSON lines or two-column TSV, atomically; raise
    ValueError before writing anything if a record would not read back."""
    check_readable(records, fmt)
    try:
        with atomic_writer(path) as handle:
            for record in records:
                if fmt == "jsonl":
                    body = {"smiles": record.smiles, "caption": record.caption}
                    if record.id is not None:
                        body["id"] = record.id
                    if record.provenance:
                        body["provenance"] = record.provenance
                    handle.write(json.dumps(body) + "\n")
                else:
                    handle.write(f"{record.smiles}\t{record.caption}\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# splitting

Partition = tuple[
    tuple[PairRecord, ...], tuple[PairRecord, ...], tuple[PairRecord, ...]
]


def split(pairs: list[PairRecord], spec: SplitSpec) -> Partition:
    """Seeded shuffle, floor-sized val/test, remainder records to train."""
    if not pairs:
        raise EmptyInput("cannot split zero pairs")
    shuffled = list(pairs)
    random.Random(spec.seed).shuffle(shuffled)
    n = len(shuffled)
    # the epsilon guards floors of products like 10 * 0.8 = 7.999...
    sizes = [int(math.floor(n * r + 1e-9)) for r in spec.ratios]
    remainder = n - sum(sizes)
    train_size = sizes[0] + remainder
    train = shuffled[:train_size]
    val = shuffled[train_size:train_size + sizes[1]]
    test = shuffled[train_size + sizes[1]:]
    return tuple(train), tuple(val), tuple(test)


# ---------------------------------------------------------------------------
# overlap removal

class DedupeResult(NamedTuple):
    kept: tuple[PairRecord, ...]
    removed: tuple[PairRecord, ...]
    overlap_fraction: float
    sidecar: tuple[SidecarEntry, ...]


def dedupe_overlap(
    target: list[PairRecord],
    reference: list[PairRecord],
    on_parse_error: str = "drop",
) -> DedupeResult:
    """Drop target records whose canonical SMILES occurs in the reference.

    Every string is scanned and keyed by its formula key (see
    ``formula_key``): its bond count and the sorted ``(element, charge,
    isotope)`` of its atoms.  Two strings with one canonical form share
    their key, since the canonical writer spells one token per atom that
    carries the element (case-folded), the charge and the isotope, and the
    string fixes the bond count: atoms minus fragments plus ring-closure
    pairs.  So a target whose key no reference has is kept unbuilt.  A
    reference holds only its key until a target first hits that key; then
    the key's references are parsed again and canonicalised, once each,
    and the colliding target is built from its own scan and canonicalised.
    The canonical form reads ring membership, not the rings, so a build
    finds the SSSR only for a molecule whose Kekule rings might aromatize
    (see ``build_molecule``).

    The one error the canonical writer can raise, ``MoleculeTooLarge``,
    needs more than 99 ring closures open at once, so a cyclomatic number
    of at least 100, which is at most the ring-closure pairs of any
    spelling.  A string with 100 or more closures is canonicalised as it
    is read, so its sidecar entry keeps its place.

    Sidecar entries carry each record's file line, or its 1-based position
    in its list when it was built in memory.
    """
    if on_parse_error not in ("drop", "keep"):
        raise ValueError("on_parse_error must be 'drop' or 'keep'")
    # per formula key, its references not yet canonicalised
    pending: dict[str, list[str]] = {}
    reference_forms: set[str] = set()
    sidecar: list[SidecarEntry] = []
    for i, record in enumerate(reference):
        try:
            scan = scan_smiles(record.smiles)
            key = formula_key(scan)
            if _closures(record.smiles, scan) < 100:
                pending.setdefault(key, []).append(record.smiles)
                continue
            reference_forms.add(canonical_smiles(build_molecule(scan)))
            pending.setdefault(key, [])
        except SmilesError as exc:
            sidecar.append(SidecarEntry(
                record.line_no or i + 1, record.smiles, f"reference: {exc}"
            ))
    kept: list[PairRecord] = []
    removed: list[PairRecord] = []
    overlap = 0
    for i, record in enumerate(target):
        try:
            scan = scan_smiles(record.smiles)
            refs = pending.get(formula_key(scan))
            if refs is None and _closures(record.smiles, scan) < 100:
                kept.append(record)  # no reference shares its key
                continue
            form = canonical_smiles(build_molecule(scan))
        except SmilesError as exc:
            sidecar.append(SidecarEntry(
                record.line_no or i + 1, record.smiles, f"target: {exc}"
            ))
            if on_parse_error == "keep":
                kept.append(record)
            else:
                removed.append(record)
            continue
        if refs:
            reference_forms.update(canonicalize(smiles) for smiles in refs)
            refs.clear()
        if form in reference_forms:
            overlap += 1
            removed.append(record)
        else:
            kept.append(record)
    fraction = overlap / len(target) if target else 0.0
    return DedupeResult(
        kept=tuple(kept),
        removed=tuple(removed),
        overlap_fraction=fraction,
        sidecar=tuple(sidecar),
    )


def formula_key(scan: Scan) -> str:
    """A ``scan_smiles`` result's bond count and sorted atom formula
    tokens: the element, and for a charged or isotope-labelled atom its
    charge and isotope.  Every spelling of a molecule has the same key."""
    atoms, bonds, _ = scan
    tokens = sorted([
        atom.element if atom.formal_charge == 0 and atom.isotope is None
        else f"{atom.element}{atom.formal_charge:+d}/{atom.isotope}"
        for atom in atoms
    ])
    return f"{len(bonds)}:{','.join(tokens)}"


def _closures(text: str, scan: Scan) -> int:
    """The ring-closure pairs of a scanned string: its bonds beyond the
    atoms less one per dot-separated piece."""
    atoms, bonds, _ = scan
    return len(bonds) - len(atoms) + text.count(".") + 1


# ---------------------------------------------------------------------------
# round-trip diagnostic filter

class PairScore(NamedTuple):
    record: PairRecord
    score: float | None
    kept: bool
    reason: str = ""


class FilterResult(NamedTuple):
    kept: tuple[PairRecord, ...]
    rejected: tuple[PairRecord, ...]
    scores: tuple[PairScore, ...]


def diagnostic_filter(
    pairs: list[PairRecord],
    generator,
    tau: float,
    m: int = 1,
    temperature: float = 1.0,
) -> FilterResult:
    """Keep pairs whose caption reconstructs with mean score >= tau.

    Each caption is handed to the generator adapter for m samples; the mean
    total reconstruction score against the pair's own molecule decides.
    Adapter failures reject the pair with the failure recorded, never raise.
    """
    if not 0.0 <= tau <= 4.0:
        raise ValueError("tau must lie in [0, 4]")
    if m < 1:
        raise ValueError("m must be >= 1")
    kept: list[PairRecord] = []
    rejected: list[PairRecord] = []
    scores: list[PairScore] = []
    for record in pairs:
        cache = ScoreCache()  # per record, so memory stays flat over the file
        try:
            samples = generator.generate(record.caption, m, temperature)
            total = 0.0
            for breakdown in cache.score_all(
                record.smiles, [sample.text for sample in samples]
            ):
                total += breakdown.total
            mean_score = total / m
        except Exception as exc:  # adapter failures reject, never raise
            rejected.append(record)
            scores.append(PairScore(
                record, None, False, f"{type(exc).__name__}: {exc}"
            ))
            continue
        if mean_score >= tau:
            kept.append(record)
            scores.append(PairScore(record, mean_score, True))
        else:
            rejected.append(record)
            scores.append(PairScore(record, mean_score, False, "below threshold"))
    return FilterResult(
        kept=tuple(kept), rejected=tuple(rejected), scores=tuple(scores)
    )
