"""Traced mode: spans and counts recorded around moltrip's public functions.

The tracer wraps each function named in ``TIMED`` and ``COUNTED`` in the
module that defines it and in every ``moltrip`` module that bound it with
``from ... import``, and wraps methods on their class.  A timed call becomes
a span (name, start, end, parent); a counted call only bumps a counter
keyed by the span that was open, because those functions run hundreds of
thousands of times and a clock read per call would swamp them.  Spans stay
in memory until the run ends; self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute or Class.method, span name)
TIMED = (
    ("moltrip.chem.parser", "parse_smiles", "chem.parse_smiles"),
    ("moltrip.chem.parser", "check_validity", "chem.check_validity"),
    ("moltrip.chem.canon", "canonical_smiles", "chem.canonical_smiles"),
    ("moltrip.fingerprints", "path_features", "fingerprints.path_features"),
    ("moltrip.fingerprints", "morgan_features", "fingerprints.morgan_features"),
    ("moltrip.fingerprints", "structural_keys", "fingerprints.structural_keys"),
    ("moltrip.metrics", "reconstruction_score", "metrics.reconstruction_score"),
    ("moltrip.metrics", "round_trip_rate", "metrics.round_trip_rate"),
    ("moltrip.metrics", "aggregate_report", "metrics.aggregate_report"),
    ("moltrip.adapters", "TokenSequencePolicy.sample", "adapters.sample"),
    ("moltrip.adapters", "tabular_sample", "adapters.sample"),
    ("moltrip.adapters", "TabularPolicy.snapshot_old", "adapters.snapshot_old"),
    ("moltrip.adapters", "TokenSequencePolicy.snapshot_old", "adapters.snapshot_old.sequence"),
    ("moltrip.adapters", "TokenSequencePolicy.grpo_step", "adapters.grpo_step"),
    ("moltrip.adapters", "tabular_grpo_step", "adapters.grpo_step"),
    ("moltrip.adapters", "TokenSequencePolicy.gradient", "adapters.gradient"),
    ("moltrip.adapters", "tabular_gradient", "adapters.gradient"),
    ("moltrip.grpo", "fill_advantages", "grpo.fill_advantages"),
    ("moltrip.harness", "generator_phase", "harness.generator_phase"),
    ("moltrip.harness", "captioner_phase", "harness.captioner_phase"),
    ("moltrip.harness", "evaluate_round_trip", "harness.evaluate_round_trip"),
    ("moltrip.harness", "run_training", "harness.run_training"),
    ("moltrip.toy", "build_toy_task", "toy.build_toy_task"),
    ("moltrip.dataset", "load_pairs", "dataset.load_pairs"),
    ("moltrip.dataset", "write_pairs", "dataset.write_pairs"),
    ("moltrip.dataset", "dedupe_overlap", "dataset.dedupe_overlap"),
)
COUNTED = (
    ("moltrip.chem.valence", "analyze", "chem.analyze"),
    ("moltrip.fingerprints", "tanimoto", "fingerprints.tanimoto"),
    ("moltrip.fingerprints", "stable_hash", "fingerprints.stable_hash"),
    ("moltrip.harness", "ScoreCache.score", "harness.score_cache"),
)

# Per-layer metrics in print order, with their units.
PER_LAYER = (
    ("chem.parse_smiles.calls", "count"),
    ("chem.parse_smiles.us_per_call", "us"),
    ("chem.check_validity.calls", "count"),
    ("chem.check_validity.us_per_call", "us"),
    ("chem.analyze.calls", "count"),
    ("chem.canonical_smiles.calls", "count"),
    ("chem.canonical_smiles.us_per_call", "us"),
    ("fingerprints.path_features.calls", "count"),
    ("fingerprints.path_features.us_per_call", "us"),
    ("fingerprints.morgan_features.us_per_call", "us"),
    ("fingerprints.structural_keys.us_per_call", "us"),
    ("fingerprints.tanimoto.calls", "count"),
    ("fingerprints.stable_hash.calls", "count"),
    ("fingerprints.calls_per_distinct_molecule", "1/molecule"),
    ("metrics.reconstruction_score.calls", "count"),
    ("metrics.reconstruction_score.ms_per_call", "ms"),
    ("metrics.reconstruction_score.self_ms", "ms"),
    ("metrics.parses_per_score", "1/score"),
    ("metrics.round_trip_rate.ms", "ms"),
    ("metrics.aggregate_report.ms", "ms"),
    ("adapters.sample.calls", "count"),
    ("adapters.sample.ms_per_call", "ms"),
    ("adapters.snapshot_old.calls", "count"),
    ("adapters.snapshot_old.ms_per_call", "ms"),
    ("adapters.grpo_step.ms_per_call", "ms"),
    ("adapters.gradient.ms_per_call", "ms"),
    ("adapters.stable_hash_per_token", "1/token"),
    ("grpo.fill_advantages.calls", "count"),
    ("grpo.fill_advantages.us_per_call", "us"),
    ("grpo.degenerate_groups", "count"),
    ("harness.generator_phase.ms_per_step", "ms"),
    ("harness.captioner_phase.ms_per_step", "ms"),
    ("harness.evaluate_round_trip.ms", "ms"),
    ("harness.snapshots_per_step", "1/step"),
    ("harness.score_cache.hit_ratio", "ratio"),
    ("harness.self_ms", "ms"),
    ("toy.build_toy_task.ms", "ms"),
    ("dataset.load_pairs.ms", "ms"),
    ("dataset.write_pairs.ms", "ms"),
    ("dataset.dedupe_overlap.self_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.import.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

_HARNESS_PHASES = ("harness.generator_phase", "harness.captioner_phase",
                   "harness.evaluate_round_trip")


class Tracer:
    """Spans as [name, start, end, parent index]; counts per open span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, dict[int, int]] = {}
        self.tokens = 0              # tokens drawn inside adapters.sample
        self.degenerate = 0          # groups fill_advantages marked degenerate
        self.fingerprinted: list = []  # molecules passed to path_features

    def timed(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        stack = self.stack
        counts = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1] if stack else -1
            counts[top] = counts.get(top, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _note(self, name: str):
        if name == "adapters.sample":
            def note(args, result):
                self.tokens += sum(len(s.logps) if s.logps else 1 for s in result)
            return note
        if name == "grpo.fill_advantages":
            def note(args, result):
                self.degenerate += bool(result.degenerate)
            return note
        if name == "fingerprints.path_features":
            return lambda args, result: self.fingerprinted.append(args[0])
        return None

    def install(self) -> None:
        """Replace every binding of each target across the moltrip modules."""
        replacements = {}
        for module, attr, name in TIMED + COUNTED:
            owner = sys.modules[module]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                fn = vars(cls)[meth]
                wrap = (self.timed(name, fn, self._note(name))
                        if (module, attr, name) in TIMED else self.counted(name, fn))
                setattr(cls, meth, wrap)
                continue
            fn = getattr(owner, attr)
            replacements[id(fn)] = (
                self.timed(name, fn, self._note(name))
                if (module, attr, name) in TIMED else self.counted(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "moltrip" or mod_name.startswith("moltrip.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"span": ["name", "start", "end", "parent"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counts": self.counts}) + "\n")

    def layer_metrics(self, canonical, import_ms: float) -> dict[str, float]:
        """Per-layer figures of one traced run (without the overhead ratio).

        ``canonical`` is the untraced canonical-form function, used after the
        run to tell apart the molecules path_features was given.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_total: dict[str, float] = {}
        for k, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_total[name] = self_total.get(name, 0.0) + (end - start - child_time[k])

        def n(name):
            return calls.get(name, 0)

        def per_call(name, scale):
            return total[name] / calls[name] * scale if calls.get(name) else 0.0

        def counted(name):
            return sum(self.counts.get(name, {}).values())

        def counted_under(name, parents):
            return sum(c for top, c in self.counts.get(name, {}).items()
                       if top >= 0 and spans[top][0] in parents)

        parses_in_scores = 0
        for name, _, _, parent in spans:
            if name != "chem.parse_smiles":
                continue
            while parent >= 0 and spans[parent][0] != "metrics.reconstruction_score":
                parent = spans[parent][3]
            parses_in_scores += parent >= 0
        misses = sum(1 for name, _, _, parent in spans
                     if name == "metrics.reconstruction_score" and parent >= 0
                     and spans[parent][0] in _HARNESS_PHASES)
        cache_calls = counted("harness.score_cache")
        steps = n("harness.generator_phase") + n("harness.captioner_phase")
        distinct = len({canonical(mol) for mol in self.fingerprinted})
        main = next((k for k, s in enumerate(spans) if s[0] == "cli.main"), None)
        ms = 1e3
        return {
            "chem.parse_smiles.calls": n("chem.parse_smiles"),
            "chem.parse_smiles.us_per_call": per_call("chem.parse_smiles", 1e6),
            "chem.check_validity.calls": n("chem.check_validity"),
            "chem.check_validity.us_per_call": per_call("chem.check_validity", 1e6),
            "chem.analyze.calls": counted("chem.analyze"),
            "chem.canonical_smiles.calls": n("chem.canonical_smiles"),
            "chem.canonical_smiles.us_per_call": per_call("chem.canonical_smiles", 1e6),
            "fingerprints.path_features.calls": n("fingerprints.path_features"),
            "fingerprints.path_features.us_per_call": per_call("fingerprints.path_features", 1e6),
            "fingerprints.morgan_features.us_per_call": per_call("fingerprints.morgan_features", 1e6),
            "fingerprints.structural_keys.us_per_call": per_call("fingerprints.structural_keys", 1e6),
            "fingerprints.tanimoto.calls": counted("fingerprints.tanimoto"),
            "fingerprints.stable_hash.calls": counted("fingerprints.stable_hash"),
            "fingerprints.calls_per_distinct_molecule":
                n("fingerprints.path_features") / distinct if distinct else 0.0,
            "metrics.reconstruction_score.calls": n("metrics.reconstruction_score"),
            "metrics.reconstruction_score.ms_per_call": per_call("metrics.reconstruction_score", ms),
            "metrics.reconstruction_score.self_ms": self_total.get("metrics.reconstruction_score", 0.0) * ms,
            "metrics.parses_per_score": parses_in_scores / n("metrics.reconstruction_score")
                if n("metrics.reconstruction_score") else 0.0,
            "metrics.round_trip_rate.ms": total.get("metrics.round_trip_rate", 0.0) * ms,
            "metrics.aggregate_report.ms": total.get("metrics.aggregate_report", 0.0) * ms,
            "adapters.sample.calls": n("adapters.sample"),
            "adapters.sample.ms_per_call": per_call("adapters.sample", ms),
            "adapters.snapshot_old.calls": n("adapters.snapshot_old"),
            "adapters.snapshot_old.ms_per_call": per_call("adapters.snapshot_old", ms),
            "adapters.grpo_step.ms_per_call": per_call("adapters.grpo_step", ms),
            "adapters.gradient.ms_per_call": per_call("adapters.gradient", ms),
            "adapters.stable_hash_per_token":
                counted_under("fingerprints.stable_hash", ("adapters.sample",)) / self.tokens
                if self.tokens else 0.0,
            "grpo.fill_advantages.calls": n("grpo.fill_advantages"),
            "grpo.fill_advantages.us_per_call": per_call("grpo.fill_advantages", 1e6),
            "grpo.degenerate_groups": self.degenerate,
            "harness.generator_phase.ms_per_step": per_call("harness.generator_phase", ms),
            "harness.captioner_phase.ms_per_step": per_call("harness.captioner_phase", ms),
            "harness.evaluate_round_trip.ms": total.get("harness.evaluate_round_trip", 0.0) * ms,
            "harness.snapshots_per_step":
                n("adapters.snapshot_old.sequence") / steps if steps else 0.0,
            "harness.score_cache.hit_ratio": 1.0 - misses / cache_calls if cache_calls else 0.0,
            "harness.self_ms": sum(v for k, v in self_total.items()
                                   if k.startswith("harness.")) * ms,
            "toy.build_toy_task.ms": total.get("toy.build_toy_task", 0.0) * ms,
            "dataset.load_pairs.ms": total.get("dataset.load_pairs", 0.0) * ms,
            "dataset.write_pairs.ms": total.get("dataset.write_pairs", 0.0) * ms,
            "dataset.dedupe_overlap.self_ms": self_total.get("dataset.dedupe_overlap", 0.0) * ms,
            "cli.main.ms": total.get("cli.main", 0.0) * ms,
            "cli.self_ms": (spans[main][2] - spans[main][1] - child_time[main]) * ms
                if main is not None else 0.0,
            "cli.import.ms": import_ms,
        }
