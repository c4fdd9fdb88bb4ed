"""Reconstruction scoring, the round-trip rate, and textual metrics.

The composite score rewards a reconstruction for being parseable and
chemically valid, for matching the reference exactly (canonical equality),
and for fingerprint similarity under three families.  The round-trip rate is
the fraction of samples whose reconstruction is canonically identical to the
original; it is read off the exact flags the scores already hold, so each
string is parsed once and canonicalised at most once per evaluation, and
tests/oracles.py keeps the version that recomputes it from the raw strings
as a cross-check.  BLEU (corpus) and a dependency-free METEOR variant cover
the text side.

Scoring is split in two.  prepare() parses a string once and keeps its
validity verdict; a valid string's canonical form and three fingerprints
are computed on first read and kept on the Prepared record.
score_prepared() compares two records, and reconstruction_score() is the
two steps together.  ScoreCache prepares each distinct string once while
it stays among its PREPARED_CACHE_SIZE most recently used strings, so a
training run stops re-parsing the same candidates.  Only the training run
keeps one cache across groups; the filter and annotate commands take a
fresh cache per pair, so their memory stays flat over a file.  A fully
fingerprinted drug-like molecule of 15 to 45 atoms holds about 42 KiB and
an invalid string about 0.2 KiB (tracemalloc), so a full cache of
drug-like molecules could hold about 340 MiB; the toy task's short strings
hold far less.  Apart from any cache, the fingerprints module keeps two
process-wide caches of feature ids, together capped at STATE_MEMO_SIZE =
8,192 entries: scoring the 24 drug-like pairs of one benchmark round fills
3,584 path entries and 861 Morgan entries (0.86 MiB), and at the cap they
hold 1.6 MiB (tracemalloc, after the molecules of ten rounds).
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple

from .chem import Molecule, SmilesError, canonical_smiles, parse_smiles
from .errors import EmptyCollection, LengthMismatch
from .fingerprints import (
    MoleculeTooLarge,
    morgan_features,
    path_features,
    structural_keys,
    tanimoto,
)
from .records import Frozen

_BLEU_EPSILON = 1e-9
_TOKEN_RE = re.compile(r"[a-z0-9]+")


class InvalidReference(ValueError):
    """The reference side of a score must itself be valid."""


class ScoreBreakdown(NamedTuple):
    """Components of the reconstruction score; total is their combination."""

    valid: bool
    exact: bool
    t_keys: float
    t_path: float
    t_morgan: float
    s_sim: float
    total: float


class RoundTripSample(NamedTuple):
    original: str
    caption: str
    reconstruction: str
    score: ScoreBreakdown


_ZERO_SCORE = ScoreBreakdown(
    valid=False, exact=False, t_keys=0.0, t_path=0.0, t_morgan=0.0,
    s_sim=0.0, total=0.0,
)


class Prepared(Frozen):
    """One string made ready to score: its molecule, which it keeps only
    when valid, or else the reason it failed.

    canonical, keys, path and morgan are computed from the molecule on
    first read and kept in their slots, so a later read is a slot read; a
    training run keeps thousands of these records, so they hold no
    instance dict.  canonical raises MoleculeTooLarge past 99 open ring
    closures, and path past MAX_PATHS paths, on every read.
    """

    __slots__ = ("reason", "mol", "canonical", "keys", "path", "morgan")

    def __init__(self, reason: str = "", mol: Molecule | None = None) -> None:
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "mol", mol)

    def __getattr__(self, name: str):
        """The lazy getter, reached only while a lazy value's slot is
        empty; a compute that raises leaves the slot empty."""
        if name == "canonical":
            value = canonical_smiles(self.mol)
        elif name == "keys":
            value = structural_keys(self.mol)
        elif name == "path":
            value = path_features(self.mol)
        elif name == "morgan":
            value = morgan_features(self.mol)
        else:
            raise AttributeError(f"'Prepared' object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @property
    def valid(self) -> bool:
        return self.mol is not None

    def __repr__(self) -> str:  # the molecule is left out
        return f"Prepared(valid={self.valid!r}, reason={self.reason!r})"

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return Prepared, (self.reason, self.mol)


def prepare(smiles: str) -> Prepared:
    """Parse once; the verdict is the parse's ``failures``."""
    try:
        mol = parse_smiles(smiles)
    except SmilesError as exc:
        return Prepared(reason=f"does not parse: {exc}")
    if mol.failures:
        return Prepared(reason=f"is not valid: {mol.failures[0].reason}")
    return Prepared(mol=mol)


def score_prepared(reference: Prepared, candidate: Prepared) -> ScoreBreakdown:
    """Score a prepared candidate against a prepared, valid reference.

    Invalid candidates gate the whole score to zero.  Otherwise the total is
    the sum of the three Tanimoto similarities plus 1 for an exact canonical
    match, so the identity case scores exactly 4.0.  A molecule too large
    for its canonical form or its paths (MoleculeTooLarge) scores zero as a
    candidate and raises InvalidReference as the reference; the reference's
    canonical form and fingerprints are computed only once the candidate
    passes the validity gate.
    """
    if not reference.valid:
        raise InvalidReference(f"reference {reference.reason}")
    if not candidate.valid:
        return _ZERO_SCORE

    try:
        reference_canonical = reference.canonical
        reference_paths = reference.path
    except MoleculeTooLarge as exc:
        raise InvalidReference(f"reference is too large: {exc}") from exc
    try:
        candidate_canonical = candidate.canonical
        candidate_paths = candidate.path
    except MoleculeTooLarge:
        return _ZERO_SCORE
    exact = reference_canonical == candidate_canonical
    t_keys = tanimoto(reference.keys, candidate.keys)
    t_path = tanimoto(reference_paths, candidate_paths)
    t_morgan = tanimoto(reference.morgan, candidate.morgan)
    s_sim = t_keys + t_path + t_morgan
    return ScoreBreakdown(
        valid=True,
        exact=exact,
        t_keys=t_keys,
        t_path=t_path,
        t_morgan=t_morgan,
        s_sim=s_sim,
        total=s_sim + (1.0 if exact else 0.0),
    )


def reconstruction_score(x: str, x_prime: str) -> ScoreBreakdown:
    """Score a candidate string against a valid reference SMILES, uncached."""
    return score_prepared(prepare(x), prepare(x_prime))


PREPARED_CACHE_SIZE = 8192


class ScoreCache:
    """Scores pairs through a per-cache LRU of prepared strings.

    Each distinct string is parsed, canonicalised and fingerprinted once
    while it stays among the PREPARED_CACHE_SIZE most recently used; see
    the module docstring for what a full cache can hold.
    """

    def __init__(self) -> None:
        self._prepare = lru_cache(maxsize=PREPARED_CACHE_SIZE)(prepare)

    def score(self, reference: str, candidate: str) -> ScoreBreakdown:
        return score_prepared(self._prepare(reference), self._prepare(candidate))

    def score_all(
        self, reference: str, candidates: list[str]
    ) -> list[ScoreBreakdown]:
        """Each candidate's breakdown in input order, each distinct one
        scored once."""
        scored: dict[str, ScoreBreakdown] = {}
        for text in candidates:
            if text not in scored:
                scored[text] = self.score(reference, text)
        return [scored[text] for text in candidates]


def round_trip_rate(samples: list[RoundTripSample]) -> float:
    """Fraction of samples reconstructed to the same canonical form, read
    off their exact flags.

    The flags say all a recomputation from the raw strings would: equal
    canonical forms mean one graph and so one validity verdict, and a
    candidate that is invalid, unparseable or too large for its canonical
    form or paths is a miss either way.  tests/oracles.py keeps the
    recomputing version as reference_round_trip_rate, and tier-1 checks
    that the two agree.
    """
    if not samples:
        raise EmptyCollection("round_trip_rate over zero samples")
    return sum(1 for sample in samples if sample.score.exact) / len(samples)


# ---------------------------------------------------------------------------
# aggregate evaluation report

class EvalReport(NamedTuple):
    """Per-corpus means in the standard column order.

    Similarity means run over valid pairs only; bleu and meteor are None
    unless reference captions were supplied to aggregate_report.
    """

    samples: int
    exact_pct: float
    validity_pct: float
    sim_keys: float
    sim_path: float
    sim_morgan: float
    bleu: float | None = None
    meteor: float | None = None

    def to_record(self) -> dict:
        """The fields in order, bleu and meteor only when computed."""
        record = self._asdict()
        for name in ("bleu", "meteor"):
            if record[name] is None:
                del record[name]
        return record


def aggregate_report(
    samples: list[RoundTripSample],
    references: list[str] | None = None,
) -> EvalReport:
    """Mean components across samples, plus text metrics given references."""
    if not samples:
        raise EmptyCollection("aggregate_report over zero samples")
    n = len(samples)
    valid = [s for s in samples if s.score.valid]
    exact_pct = 100.0 * sum(1 for s in samples if s.score.exact) / n
    validity_pct = 100.0 * len(valid) / n

    def valid_mean(component) -> float:
        if not valid:
            return 0.0
        return sum(component(s.score) for s in valid) / len(valid)

    bleu_score = None
    meteor_score = None
    if references is not None:
        if len(references) != n:
            raise LengthMismatch(
                f"{n} samples but {len(references)} references"
            )
        captions = [s.caption for s in samples]
        bleu_score = bleu(captions, references)
        meteor_score = sum(
            meteor_lite(c, r) for c, r in zip(captions, references)
        ) / n
    return EvalReport(
        samples=n,
        exact_pct=exact_pct,
        validity_pct=validity_pct,
        sim_keys=valid_mean(lambda s: s.t_keys),
        sim_path=valid_mean(lambda s: s.t_path),
        sim_morgan=valid_mean(lambda s: s.t_morgan),
        bleu=bleu_score,
        meteor=meteor_score,
    )


# ---------------------------------------------------------------------------
# textual metrics

def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def bleu(candidates: list[str], references: list[str]) -> float:
    """Corpus BLEU, n-grams 1..4, uniform weights, add-epsilon smoothing."""
    if len(candidates) != len(references):
        raise LengthMismatch(
            f"{len(candidates)} candidates but {len(references)} references"
        )
    if not candidates:
        raise EmptyCollection("bleu over zero pairs")
    matched = [0] * 4
    total = [0] * 4
    cand_len = 0
    ref_len = 0
    for cand_text, ref_text in zip(candidates, references):
        cand = _tokens(cand_text)
        ref = _tokens(ref_text)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            cand_grams: dict[tuple[str, ...], int] = {}
            for i in range(len(cand) - n + 1):
                gram = tuple(cand[i:i + n])
                cand_grams[gram] = cand_grams.get(gram, 0) + 1
            ref_grams: dict[tuple[str, ...], int] = {}
            for i in range(len(ref) - n + 1):
                gram = tuple(ref[i:i + n])
                ref_grams[gram] = ref_grams.get(gram, 0) + 1
            total[n - 1] += max(len(cand) - n + 1, 0)
            matched[n - 1] += sum(
                min(count, ref_grams.get(gram, 0))
                for gram, count in cand_grams.items()
            )
    if cand_len == 0:
        return 0.0
    log_precision = sum(
        0.25 * math.log((matched[k] + _BLEU_EPSILON) / (total[k] + _BLEU_EPSILON))
        for k in range(4)
    )
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_precision)


def meteor_lite(candidate: str, reference: str) -> float:
    """Unigram METEOR variant: greedy exact alignment, recall-weighted F,
    fragmentation penalty 0.5*(chunks/matches)^3 (zero for a single chunk)."""
    cand = _tokens(candidate)
    ref = _tokens(reference)
    if not cand or not ref:
        return 0.0
    taken = [False] * len(ref)
    alignment: list[tuple[int, int]] = []
    for ci, token in enumerate(cand):
        for ri, ref_token in enumerate(ref):
            if not taken[ri] and ref_token == token:
                taken[ri] = True
                alignment.append((ci, ri))
                break
    matches = len(alignment)
    if matches == 0:
        return 0.0
    precision = matches / len(cand)
    recall = matches / len(ref)
    f_mean = 10.0 * precision * recall / (9.0 * precision + recall)
    chunks = 1
    for (prev_c, prev_r), (cur_c, cur_r) in zip(alignment, alignment[1:]):
        if cur_c != prev_c + 1 or cur_r != prev_r + 1:
            chunks += 1
    penalty = 0.0 if chunks == 1 else 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)
