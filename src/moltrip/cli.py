"""Command-line entry point: every capability behind one executable.

Exit codes: 0 on success, 1 on domain errors (bad molecules, unusable
files, failing bounds), 2 on usage errors.  Output files are written to a
temporary sibling and renamed into place, so a failure never leaves a
partial file.  An optional config file in key = value format, with one
section per subcommand, overrides the flags and is parsed like them.

Start-up executes only what the command runs.  Importing this module
executes ``chem``, ``dataset``, ``errors`` and ``records``; ``adapters``,
``fingerprints``, ``grpo``, ``harness``, ``metrics`` and ``toy`` are
registered with a lazy loader, so each is in ``sys.modules`` and bound on
the package and here, but executes on the first read of one of its
names.  A command reads every such name through its module
(``metrics.ScoreCache``), so ``canon``, ``validate``, ``split``,
``dedupe`` and ``theory check`` execute none of the six, ``fp`` only
``fingerprints``, ``score`` only ``metrics`` and ``fingerprints``, and
``eval`` and ``filter`` all but ``harness`` and ``toy``.  ``score`` and
``eval`` call ``reconstruction_score`` as a global of this module, so
rebinding ``moltrip.cli.reconstruction_score`` changes what they call.
The thread pool of --workers, the config parser of --config and the
theory module are imported where they are used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import sys

from .chem import canonicalize, check_validity, parse_smiles
from .dataset import (
    PairRecord,
    SplitSpec,
    atomic_writer,
    check_readable,
    dedupe_overlap,
    diagnostic_filter,
    load_pairs,
    split,
    write_pairs,
)
from .errors import UnknownState


def _defer(modules) -> None:
    """Register each named module of the package that is not imported yet
    with a lazy loader: it is in sys.modules and bound on the package at
    once, and executes on its first attribute access."""
    package = sys.modules[__package__]
    for name in modules:
        full = f"{__package__}.{name}"
        if full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(package, name, module)
        spec.loader.exec_module(module)


_defer(("adapters", "fingerprints", "grpo", "harness", "metrics", "toy"))
from . import adapters, fingerprints, grpo, harness, metrics, toy


def reconstruction_score(reference: str, candidate: str):
    """metrics.reconstruction_score, read as a global of this module by
    `score` and `eval`, so rebinding it here changes what they call."""
    return metrics.reconstruction_score(reference, candidate)


class UsageError(Exception):
    """A flag combination argparse cannot check; exits 2 like its own errors."""


_DOMAIN_ERRORS = (
    ValueError,      # SmilesError, format and config problems, bad arguments
    OSError,         # IoFailure and anything the filesystem throws
    RuntimeError,    # adapter failures, auth, timeouts, bad remote payloads
    UnknownState,
)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    commands: dict[str, argparse.ArgumentParser] = {}
    parser = _build_parser(commands)
    args = parser.parse_args(argv)
    try:
        tokens = _config_tokens(args.config, args.command, commands[args.command])
        if tokens:  # argparse keeps the later value, so the config wins
            args = parser.parse_args(argv + tokens)
        return args.func(args)
    except UsageError as exc:
        commands[args.command].error(str(exc))
    except _DOMAIN_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# plumbing

def _pool_map(fn, items, workers: int) -> list:
    """Order-preserving map over a bounded thread pool, for calls that wait on I/O.

    Every deferred module that fn reaches must have executed before the
    pool starts: Python 3.11's LazyLoader is not thread-safe, and two
    threads could both execute one module.  fn calls an adapter's
    generate, and each command builds its adapter on the main thread,
    which executes ``adapters``, before it calls this."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _emit(args, text: str) -> None:
    """Print the summary; mirror it to --out atomically when requested."""
    print(text)
    out = getattr(args, "out", None)
    if out:
        _write_text(out, text + "\n")


def _write_text(path: str, text: str) -> None:
    with atomic_writer(path) as handle:
        handle.write(text)


# the characters str.splitlines breaks at, and the sidecar's field separator
_BREAKS = frozenset("\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029")


def _sidecar_field(text: str) -> str:
    """text, or its JSON string literal (ASCII, so no break) when it holds
    a tab or a line break."""
    return json.dumps(text) if _BREAKS.intersection(text) else text


def _load(path: str) -> list[PairRecord]:
    result = load_pairs(path)
    if result.sidecar:
        print(
            f"warning: {len(result.sidecar)} malformed lines set aside",
            file=sys.stderr,
        )
    return list(result.records)


def _config_tokens(path: str | None, section: str, command) -> list[str]:
    """The config file's [section] as flag tokens for the command's parser."""
    if not path:
        return []
    import configparser

    # values reach the parser as written: no %-interpolation
    config = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        if not config.read(path, encoding="utf-8-sig"):
            raise OSError(f"cannot read config {path}")
        items = config.items(section) if config.has_section(section) else []
    except configparser.Error as exc:
        raise ValueError(f"config {path}: {exc}") from exc
    # configparser would copy [DEFAULT] keys into every section
    if config.defaults():
        raise ValueError(f"config {path}: a [DEFAULT] section is not allowed")
    tokens: list[str] = []
    for key, value in items:
        flag = "--" + key.replace("_", "-")
        action = command._option_string_actions.get(flag)
        if action is None or action.dest in ("config", "help"):
            raise ValueError(f"config key {key!r} unknown for [{section}]")
        if action.nargs is None:
            tokens.append(f"{flag}={value}")  # one token, so spaces survive
        else:
            tokens += [flag, *value.replace(",", " ").split()]
    return tokens


# the flags that only --generator remote reads: EchoAdapter ignores them all
_REMOTE_FLAGS = (
    "base_url", "model", "prompts", "timeout", "max_retries", "temperature",
)


def _generator_adapter(args):
    """The --generator adapter; the echo generator reads none of the
    remote flags, so it refuses any that was given."""
    if args.generator == "remote":
        return _remote_adapter(args)
    for name in _REMOTE_FLAGS:
        if getattr(args, name) is not None:
            raise UsageError(
                f"--{name.replace('_', '-')} applies only to --generator remote"
            )
    return adapters.EchoAdapter()


def _check_workers(args) -> None:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, not {args.workers}")


def _remote_adapter(args) -> adapters.RemoteAdapter:
    temperature = args.temperature
    if temperature is not None and not (
        temperature == 0.0 or 0.0 < temperature < math.inf
    ):  # nan and inf are not JSON, and the samplers refuse the same
        raise UsageError(
            f"--temperature must be 0 or finite and positive, not {temperature}"
        )
    if not args.base_url or not args.model:
        raise ValueError("remote adapter needs --base-url and --model")
    limits = {  # a flag left out keeps the endpoint's default
        name: getattr(args, name) for name in ("timeout", "max_retries")
        if getattr(args, name) is not None
    }
    client = adapters.RemoteClient(adapters.RemoteEndpointConfig(
        base_url=args.base_url, model=args.model, **limits,
    ))
    return adapters.RemoteAdapter(client, adapters.load_prompts(args.prompts))


def _add_remote_flags(sub) -> None:
    defaults = adapters.RemoteEndpointConfig._field_defaults
    sub.add_argument("--base-url", default=None)
    sub.add_argument("--model", default=None)
    sub.add_argument("--timeout", type=float, default=None,
                     help=f"seconds (default {defaults['timeout']})")
    sub.add_argument("--max-retries", type=int, default=None,
                     help=f"default {defaults['max_retries']}")
    sub.add_argument("--prompts", default=None,
                     help="template file overriding the built-in prompts")


# ---------------------------------------------------------------------------
# subcommands

def cmd_canon(args) -> int:
    lines = [canonicalize(text) for text in args.smiles]
    _emit(args, "\n".join(lines))
    return 0


def cmd_validate(args) -> int:
    def verdict(text: str) -> tuple[bool, str]:
        report = check_validity(text)
        if report.is_valid:
            return True, f"VALID\t{text}"
        reasons = "; ".join(
            f.reason if f.atom_index is None else f"atom {f.atom_index}: {f.reason}"
            for f in report.failures
        )
        return False, f"INVALID\t{text}\t{reasons}"

    results = [verdict(text) for text in args.smiles]
    _emit(args, "\n".join(line for _, line in results))
    return 0 if all(ok for ok, _ in results) else 1


def cmd_fp(args) -> int:
    for flag, family in (("radius", "morgan"), ("max_path", "path")):
        if getattr(args, flag) is not None and args.family != family:
            raise UsageError(
                f"--{flag.replace('_', '-')} applies only to --family {family}"
            )

    def one(text: str) -> str:
        mol = parse_smiles(text)
        if args.family == "keys":
            fs = fingerprints.structural_keys(mol)
        elif args.family == "path":
            max_len = (fingerprints.DEFAULT_PATH_LENGTH if args.max_path is None
                       else args.max_path)
            fs = fingerprints.path_features(mol, max_len=max_len)
        else:
            radius = (fingerprints.DEFAULT_MORGAN_RADIUS if args.radius is None
                      else args.radius)
            fs = fingerprints.morgan_features(mol, radius=radius)
        return fingerprints.dump_features(fs)

    blocks = [one(text) for text in args.smiles]
    _emit(args, "\n\n".join(blocks))
    return 0


def cmd_score(args) -> int:
    breakdown = reconstruction_score(args.ref, args.hyp)
    lines = [f"total {breakdown.total}"]
    lines.append(f"valid {str(breakdown.valid).lower()}")
    lines.append(f"exact {str(breakdown.exact).lower()}")
    for name in ("t_keys", "t_path", "t_morgan", "s_sim"):
        lines.append(f"{name} {getattr(breakdown, name)}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_eval(args) -> int:
    _check_workers(args)
    adapter = _generator_adapter(args)
    temperature = 0.0 if args.temperature is None else args.temperature
    pairs = _load(args.pairs)
    texts = _pool_map(
        lambda pair: adapter.generate(pair.caption, 1, temperature)[0].text,
        pairs, args.workers,
    )
    samples = []
    for pair, text in zip(pairs, texts):
        try:
            score = reconstruction_score(pair.smiles, text)
        except metrics.InvalidReference as exc:
            raise metrics.InvalidReference(
                f"pair {pair.id or f'line {pair.line_no}'}: {exc}"
            ) from exc
        samples.append(metrics.RoundTripSample(
            original=pair.smiles,
            caption=pair.caption,
            reconstruction=text,
            score=score,
        ))
    report = metrics.aggregate_report(samples)
    rate = metrics.round_trip_rate(samples)
    lines = [f"samples {report.samples}"]
    for name in ("exact_pct", "validity_pct", "sim_keys", "sim_path", "sim_morgan"):
        lines.append(f"{name} {getattr(report, name)}")
    lines.append(f"round_trip {rate}")
    print("\n".join(lines))
    if args.out:
        _write_text(args.out, json.dumps(
            {"report": report.to_record(), "round_trip": rate}, indent=2,
        ) + "\n")
    return 0


def cmd_split(args) -> int:
    pairs = _load(args.pairs)
    spec = SplitSpec(ratios=tuple(args.ratios), seed=args.seed)
    parts = split(pairs, spec)
    check_readable(pairs, args.fmt)  # before any of the three files is written
    os.makedirs(args.out_dir, exist_ok=True)
    lines = []
    for name, part in zip(("train", "val", "test"), parts):
        path = os.path.join(args.out_dir, f"{name}.{args.fmt}")
        write_pairs(list(part), path, fmt=args.fmt)
        lines.append(f"{name} {len(part)} {path}")
    print("\n".join(lines))
    return 0


def cmd_dedupe(args) -> int:
    target = _load(args.target)
    reference = _load(args.reference)
    result = dedupe_overlap(target, reference, on_parse_error=args.on_parse_error)
    write_pairs(list(result.kept), args.out, fmt=args.fmt)
    if args.sidecar:
        _write_text(args.sidecar, "".join(
            f"{e.line_no}\t{_sidecar_field(e.content)}\t{e.reason}\n"
            for e in result.sidecar
        ))
    print(f"kept {len(result.kept)}")
    print(f"removed {len(result.removed)}")
    print(f"overlap_fraction {result.overlap_fraction}")
    return 0


def cmd_filter(args) -> int:
    adapter = _generator_adapter(args)
    temperature = 1.0 if args.temperature is None else args.temperature
    pairs = _load(args.pairs)
    result = diagnostic_filter(
        pairs, adapter, tau=args.tau, m=args.m, temperature=temperature,
    )
    write_pairs(list(result.kept), args.out, fmt=args.fmt)
    if args.rejected:
        write_pairs(list(result.rejected), args.rejected, fmt=args.fmt)
    print(f"kept {len(result.kept)}")
    print(f"rejected {len(result.rejected)}")
    return 0


def cmd_train_toy(args) -> int:
    result = toy.run_toy(
        seed=args.seed, max_steps=args.max_steps, reward_mode=args.reward_mode,
    )
    log = result.log
    lines = [
        f"steps {len(log.records)}",
        f"converged {str(log.converged).lower()}",
        f"round_trip {log.final_round_trip}",
        f"exact_pct {log.final_report.exact_pct}",
        f"validity_pct {log.final_report.validity_pct}",
    ]
    print("\n".join(lines))
    if args.out:
        _write_text(args.out, json.dumps(log.to_records(), indent=2) + "\n")
    return 0


def cmd_annotate(args) -> int:
    _check_workers(args)
    if args.n < 2:  # a group of one has no advantage; refuse before any call
        raise ValueError(f"--n must be >= 2, not {args.n}")
    adapter = _remote_adapter(args)
    pairs = _load(args.pairs)
    draws = _pool_map(
        lambda pair: adapter.generate(pair.caption, args.n, args.temperature),
        pairs, args.workers,
    )
    tagged: list[harness.TaggedGroup] = []
    for j, (pair, group_draws) in enumerate(zip(pairs, draws)):
        cache = metrics.ScoreCache()  # per pair, so memory stays flat over the file
        texts = [d.text for d in group_draws]
        completions = tuple(
            grpo.Completion(text=text, reward=breakdown.total)
            for text, breakdown in zip(texts, cache.score_all(pair.smiles, texts))
        )
        tagged.append(harness.TaggedGroup(
            group_id=f"annotate-{args.seed}-{pair.id or j}",
            phase="generator",
            reference=pair.smiles,
            group=grpo.fill_advantages(grpo.RolloutGroup(
                prompt_id=pair.caption, completions=completions,
            )),
        ))
    completions_total = sum(len(t.group.completions) for t in tagged)
    harness.export_rollouts(tagged, args.out)
    print(f"groups {len(tagged)}")
    print(f"completions {completions_total}")
    print(f"rollouts {args.out}")
    return 0


def cmd_theory_check(args) -> int:
    from .theory import MAX_SYMBOLS, check_mi_bound, random_system

    if not 2 <= args.max_size <= MAX_SYMBOLS:
        raise UsageError(
            f"--max-size must be in 2..{MAX_SYMBOLS}, not {args.max_size}"
        )
    if args.systems < 1:
        raise UsageError(f"--systems must be >= 1, not {args.systems}")
    rng = random.Random(args.seed)
    reports = [
        check_mi_bound(random_system(rng, args.max_size))
        for _ in range(args.systems)
    ]
    held = sum(1 for r in reports if r.holds)
    print(f"{held}/{args.systems} bounds hold")
    if args.out:
        _write_text(args.out, json.dumps([r._asdict() for r in reports], indent=2) + "\n")
    return 0 if held == args.systems else 1


# ---------------------------------------------------------------------------
# parser assembly

class _CommandParser(argparse.ArgumentParser):
    """A command's parser that adds its arguments when it first parses, so
    a run builds the arguments of the command it runs and of no other.
    Its help and usage are read only after a parse reached it."""

    def __init__(self, *args, add_arguments=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        add, self._add_arguments = self._add_arguments, None
        if add is not None:
            add(self)
        return super().parse_known_args(args, namespace)


def _build_parser(commands: dict | None = None) -> argparse.ArgumentParser:
    """The moltrip parser; each command's own parser is filed in `commands`.
    A command's arguments are added by the function named after it, when
    its parser first parses."""
    parser = argparse.ArgumentParser(
        prog="moltrip",
        description="Round-trip molecule-text alignment toolkit",
    )
    subs = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser,
    )

    def sub(name: str, func, add_arguments, group=subs,
            command: str | None = None, **kwargs) -> None:
        command = command or name

        def add(p) -> None:
            p.add_argument("--config", default=None,
                           help=f"key = value file; its [{command}] section overrides flags")
            add_arguments(p)

        p = group.add_parser(name, add_arguments=add, **kwargs)
        p.set_defaults(func=func, command=command)
        if commands is not None:
            commands[command] = p

    def canon(p) -> None:  # and validate
        p.add_argument("smiles", nargs="+")
        p.add_argument("--out", default=None)

    def fp(p) -> None:
        p.add_argument("smiles", nargs="+")
        p.add_argument("--family", choices=("keys", "path", "morgan"), required=True)
        p.add_argument("--radius", type=int, default=None, help=(
            f"morgan only (default {fingerprints.DEFAULT_MORGAN_RADIUS})"))
        p.add_argument("--max-path", type=int, default=None, help=(
            f"path only (default {fingerprints.DEFAULT_PATH_LENGTH})"))
        p.add_argument("--out", default=None)

    def score(p) -> None:
        p.add_argument("--ref", required=True)
        p.add_argument("--hyp", required=True)
        p.add_argument("--out", default=None)

    def eval_(p) -> None:
        p.add_argument("--pairs", required=True)
        p.add_argument("--generator", choices=("echo", "remote"), default="echo")
        p.add_argument("--temperature", type=float, default=None,
                       help="remote only (default 0.0)")
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=1)
        _add_remote_flags(p)

    def split_(p) -> None:
        p.add_argument("--pairs", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--ratios", type=float, nargs=3, default=[0.8, 0.1, 0.1])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--fmt", choices=("jsonl", "tsv"), default="jsonl")

    def dedupe(p) -> None:
        p.add_argument("--target", required=True)
        p.add_argument("--reference", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--sidecar", default=None)
        p.add_argument("--on-parse-error", choices=("drop", "keep"), default="drop")
        p.add_argument("--fmt", choices=("jsonl", "tsv"), default="jsonl")

    def filter_(p) -> None:
        p.add_argument("--pairs", required=True)
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--temperature", type=float, default=None,
                       help="remote only (default 1.0)")
        p.add_argument("--generator", choices=("echo", "remote"), default="echo")
        p.add_argument("--out", required=True)
        p.add_argument("--rejected", default=None)
        p.add_argument("--fmt", choices=("jsonl", "tsv"), default="jsonl")
        _add_remote_flags(p)

    def train_toy(p) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=200)
        p.add_argument("--reward-mode", choices=harness.REWARD_MODES,
                       default="shaped")
        p.add_argument("--out", default=None)

    def annotate(p) -> None:
        p.add_argument("--pairs", required=True)
        p.add_argument("--n", type=int, default=8)
        p.add_argument("--temperature", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.add_argument("--workers", type=int, default=1)
        _add_remote_flags(p)

    def theory_check(p) -> None:
        p.add_argument("--systems", type=int, default=100)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--max-size", type=int, default=6)
        p.add_argument("--out", default=None)

    sub("canon", cmd_canon, canon, help="canonicalize SMILES strings")
    sub("validate", cmd_validate, canon, help="run the validity gate")
    sub("fp", cmd_fp, fp, help="dump fingerprint features")
    sub("score", cmd_score, score, help="reconstruction score of hyp against ref")
    sub("eval", cmd_eval, eval_, help="batch round-trip evaluation report")
    sub("split", cmd_split, split_, help="seeded train/val/test split")
    sub("dedupe", cmd_dedupe, dedupe, help="drop canonical duplicates of a reference")
    sub("filter", cmd_filter, filter_, help="round-trip diagnostic filter")
    sub("train-toy", cmd_train_toy, train_toy, help="desk-scale coupled training run")
    sub("annotate", cmd_annotate, annotate,
        help="remote reward annotation and rollout export")
    theory = subs.add_parser("theory", help="bound verification")
    theory_subs = theory.add_subparsers(dest="theory_command", required=True)
    sub("check", cmd_theory_check, theory_check, group=theory_subs,
        command="theory-check", help="verify the bound chain on random systems")
    return parser


if __name__ == "__main__":
    sys.exit(main())
