"""Command-line entry point: every capability behind one executable.

Exit codes: 0 on success, 1 on domain errors (bad molecules, unusable
files, failing bounds), 2 on usage errors.  Output files are written to a
temporary sibling and renamed into place, so a failure never leaves a
partial file.  An optional config file in key = value format, with one
section per subcommand, overrides the flags and is parsed like them.
What only one command or option uses (the thread pool of --workers, the
config parser of --config, the theory module) is imported where it is
used, so start-up loads only what the command runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from .adapters import (
    EchoAdapter,
    RemoteAdapter,
    RemoteClient,
    RemoteEndpointConfig,
    UnknownState,
    load_prompts,
)
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
from .fingerprints import (
    DEFAULT_MORGAN_RADIUS,
    DEFAULT_PATH_LENGTH,
    dump_features,
    morgan_features,
    path_features,
    structural_keys,
)
from .grpo import Completion, RolloutGroup, fill_advantages
from .harness import REWARD_MODES, TaggedGroup, export_rollouts
from .metrics import (
    InvalidReference,
    RoundTripSample,
    ScoreCache,
    aggregate_report,
    reconstruction_score,
    round_trip_rate,
)
from .toy import run_toy


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
    """Order-preserving map over a bounded thread pool, for calls that wait on I/O."""
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
    return EchoAdapter()


def _check_workers(args) -> None:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, not {args.workers}")


def _remote_adapter(args) -> RemoteAdapter:
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
    client = RemoteClient(RemoteEndpointConfig(
        base_url=args.base_url, model=args.model, **limits,
    ))
    return RemoteAdapter(client, load_prompts(args.prompts))


_ENDPOINT_DEFAULTS = RemoteEndpointConfig._field_defaults


def _add_remote_flags(sub) -> None:
    sub.add_argument("--base-url", default=None)
    sub.add_argument("--model", default=None)
    sub.add_argument("--timeout", type=float, default=None,
                     help=f"seconds (default {_ENDPOINT_DEFAULTS['timeout']})")
    sub.add_argument("--max-retries", type=int, default=None,
                     help=f"default {_ENDPOINT_DEFAULTS['max_retries']}")
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
            fs = structural_keys(mol)
        elif args.family == "path":
            max_len = DEFAULT_PATH_LENGTH if args.max_path is None else args.max_path
            fs = path_features(mol, max_len=max_len)
        else:
            radius = DEFAULT_MORGAN_RADIUS if args.radius is None else args.radius
            fs = morgan_features(mol, radius=radius)
        return dump_features(fs)

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
        except InvalidReference as exc:
            raise InvalidReference(
                f"pair {pair.id or f'line {pair.line_no}'}: {exc}"
            ) from exc
        samples.append(RoundTripSample(
            original=pair.smiles,
            caption=pair.caption,
            reconstruction=text,
            score=score,
        ))
    report = aggregate_report(samples)
    rate = round_trip_rate(samples)
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
            f"{e.line_no}\t{e.content}\t{e.reason}\n" for e in result.sidecar
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
    result = run_toy(
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
    tagged: list[TaggedGroup] = []
    for j, (pair, group_draws) in enumerate(zip(pairs, draws)):
        cache = ScoreCache()  # per pair, so memory stays flat over the file
        texts = [d.text for d in group_draws]
        completions = tuple(
            Completion(text=text, reward=breakdown.total)
            for text, breakdown in zip(texts, cache.score_all(pair.smiles, texts))
        )
        tagged.append(TaggedGroup(
            group_id=f"annotate-{args.seed}-{pair.id or j}",
            phase="generator",
            reference=pair.smiles,
            group=fill_advantages(RolloutGroup(
                prompt_id=pair.caption, completions=completions,
            )),
        ))
    completions_total = sum(len(t.group.completions) for t in tagged)
    export_rollouts(tagged, args.out)
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
        _write_text(args.out, json.dumps([vars(r) for r in reports], indent=2) + "\n")
    return 0 if held == args.systems else 1


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser(commands: dict | None = None) -> argparse.ArgumentParser:
    """The moltrip parser; each command's own parser is filed in `commands`."""
    parser = argparse.ArgumentParser(
        prog="moltrip",
        description="Round-trip molecule-text alignment toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, func, group=subs, command: str | None = None, **kwargs):
        command = command or name
        p = group.add_parser(name, **kwargs)
        p.set_defaults(func=func, command=command)
        p.add_argument("--config", default=None,
                       help=f"key = value file; its [{command}] section overrides flags")
        if commands is not None:
            commands[command] = p
        return p

    p = sub("canon", cmd_canon, help="canonicalize SMILES strings")
    p.add_argument("smiles", nargs="+")
    p.add_argument("--out", default=None)

    p = sub("validate", cmd_validate, help="run the validity gate")
    p.add_argument("smiles", nargs="+")
    p.add_argument("--out", default=None)

    p = sub("fp", cmd_fp, help="dump fingerprint features")
    p.add_argument("smiles", nargs="+")
    p.add_argument("--family", choices=("keys", "path", "morgan"), required=True)
    p.add_argument("--radius", type=int, default=None,
                   help=f"morgan only (default {DEFAULT_MORGAN_RADIUS})")
    p.add_argument("--max-path", type=int, default=None,
                   help=f"path only (default {DEFAULT_PATH_LENGTH})")
    p.add_argument("--out", default=None)

    p = sub("score", cmd_score, help="reconstruction score of hyp against ref")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", default=None)

    p = sub("eval", cmd_eval, help="batch round-trip evaluation report")
    p.add_argument("--pairs", required=True)
    p.add_argument("--generator", choices=("echo", "remote"), default="echo")
    p.add_argument("--temperature", type=float, default=None,
                   help="remote only (default 0.0)")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    _add_remote_flags(p)

    p = sub("split", cmd_split, help="seeded train/val/test split")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratios", type=float, nargs=3, default=[0.8, 0.1, 0.1])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fmt", choices=("jsonl", "tsv"), default="jsonl")

    p = sub("dedupe", cmd_dedupe, help="drop canonical duplicates of a reference")
    p.add_argument("--target", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", default=None)
    p.add_argument("--on-parse-error", choices=("drop", "keep"), default="drop")
    p.add_argument("--fmt", choices=("jsonl", "tsv"), default="jsonl")

    p = sub("filter", cmd_filter, help="round-trip diagnostic filter")
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

    p = sub("train-toy", cmd_train_toy, help="desk-scale coupled training run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--reward-mode", choices=REWARD_MODES, default="shaped")
    p.add_argument("--out", default=None)

    p = sub("annotate", cmd_annotate,
            help="remote reward annotation and rollout export")
    p.add_argument("--pairs", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_remote_flags(p)

    theory = subs.add_parser("theory", help="bound verification")
    theory_subs = theory.add_subparsers(dest="theory_command", required=True)
    p = sub("check", cmd_theory_check, group=theory_subs, command="theory-check",
            help="verify the bound chain on random systems")
    p.add_argument("--systems", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--out", default=None)

    return parser


if __name__ == "__main__":
    sys.exit(main())
