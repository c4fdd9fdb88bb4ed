"""Command-line surface: exit codes, output shapes, config overrides."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from moltrip.chem import canonicalize, parse_smiles
from moltrip.cli import _build_parser, main
from moltrip.fingerprints import (
    DEFAULT_MORGAN_RADIUS,
    DEFAULT_PATH_LENGTH,
    dump_features,
    morgan_features,
    path_features,
)

SUBCOMMANDS = (
    ["canon"], ["validate"], ["fp"], ["score"], ["eval"], ["split"],
    ["dedupe"], ["filter"], ["train-toy"], ["annotate"], ["theory"],
    ["theory", "check"],
)


class FakeResponse:
    def __init__(self, body):
        self.status_code = 200
        self._body = body

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, script):
        self.script = list(script)

    def post(self, url, json=None, headers=None, timeout=None):
        return self.script.pop(0)


def _ok_body(texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


def write_pairs_file(path, smiles, captions=None):
    captions = captions or [canonicalize(s) for s in smiles]
    with open(path, "w", encoding="utf-8") as fh:
        for i, (s, c) in enumerate(zip(smiles, captions)):
            fh.write(json.dumps({"smiles": s, "caption": c, "id": f"p{i}"}) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# exit-code contract

@pytest.mark.parametrize("words", SUBCOMMANDS, ids=lambda w: "-".join(w))
def test_help_exits_zero(words, capsys):
    with pytest.raises(SystemExit) as err:
        main([*words, "--help"])
    assert err.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


_USAGE_PINS = json.loads(
    (Path(__file__).with_name("cli_usage_pins.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "case", _USAGE_PINS["cases"], ids=lambda case: " ".join(case["argv"]) or "bare",
)
def test_help_and_usage_errors_are_byte_identical(case, capsys, monkeypatch):
    """Building only the chosen command's arguments changes no help text
    and no usage error."""
    if list(sys.version_info[:2]) != _USAGE_PINS["python"]:
        pytest.skip("the pins hold Python 3.11's argparse formatting")
    monkeypatch.setenv("COLUMNS", str(_USAGE_PINS["columns"]))
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_only_the_chosen_command_gets_its_arguments():
    commands: dict = {}
    _build_parser(commands).parse_args(["canon", "C"])
    built = {
        name for name, p in commands.items()
        if any(a.dest == "config" for a in p._actions)
    }
    assert built == {"canon"}


def test_usage_errors_exit_two():
    for argv in (["canon"], ["no-such-command"], ["score", "--ref", "CCO"], []):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


# --workers runs I/O-bound generator calls on threads, so only eval and
# annotate take it; --seed is taken only where something reads it.
UNREAD_FLAGS = (
    (["canon", "CCO"], "--workers"),
    (["validate", "CCO"], "--workers"),
    (["fp", "CCO", "--family", "keys"], "--workers"),
    (["score", "--ref", "CCO", "--hyp", "CCO"], "--workers"),
    (["split", "--pairs", "p", "--out-dir", "d"], "--workers"),
    (["dedupe", "--target", "t", "--reference", "r", "--out", "o"], "--workers"),
    (["filter", "--pairs", "p", "--tau", "1", "--out", "o"], "--workers"),
    (["train-toy"], "--workers"),
    (["theory", "check"], "--workers"),
    (["eval", "--pairs", "p"], "--seed"),
    (["filter", "--pairs", "p", "--tau", "1", "--out", "o"], "--seed"),
)


@pytest.mark.parametrize(
    "argv, flag", UNREAD_FLAGS, ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_unread_flags_are_usage_errors(argv, flag):
    _build_parser().parse_args(argv)  # the command line is fine without it
    with pytest.raises(SystemExit) as err:
        main([*argv, flag, "2"])
    assert err.value.code == 2


def test_domain_error_exits_one_with_error_name(capsys):
    assert main(["canon", "notasmiles"]) == 1
    assert "UnknownToken" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# chemistry commands

def test_canon_spelling_invariance(capsys):
    assert main(["canon", "OCC"]) == 0
    first = capsys.readouterr().out
    assert main(["canon", "CCO"]) == 0
    assert capsys.readouterr().out == first


def test_validate_verdicts_and_exit(capsys):
    assert main(["validate", "CCO"]) == 0
    assert capsys.readouterr().out.startswith("VALID")
    assert main(["validate", "CCO", "c1ccnc1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("VALID")
    assert out[1].startswith("INVALID")


def test_score_identity_prints_total_and_components(capsys):
    assert main(["score", "--ref", "CCO", "--hyp", "CCO"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "total 4.0"
    keys = {line.split()[0] for line in lines}
    assert {"valid", "exact", "t_keys", "t_path", "t_morgan", "s_sim"} <= keys


def test_fp_dump_is_stable_and_parameterized(capsys):
    assert main(["fp", "--family", "morgan", "--radius", "1", "CCO"]) == 0
    first = capsys.readouterr().out
    assert "radius=1" in first
    assert main(["fp", "--family", "morgan", "--radius", "1", "CCO"]) == 0
    assert capsys.readouterr().out == first
    assert main(["fp", "--family", "morgan", "--radius", "2", "CCO"]) == 0
    assert capsys.readouterr().out != first


# each fingerprint parameter flag, given with a family that does not read it
FP_FLAGS_OF_OTHER_FAMILIES = (
    ("keys", "radius"), ("keys", "max_path"),
    ("path", "radius"), ("morgan", "max_path"),
)


@pytest.mark.parametrize("family, key", FP_FLAGS_OF_OTHER_FAMILIES)
def test_fp_refuses_a_parameter_its_family_does_not_read(family, key, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as err:
        main(["fp", "CCO", "--family", family, flag, "2"])
    assert err.value.code == 2
    assert f"{flag} applies only to" in capsys.readouterr().err
    config = tmp_path / "moltrip.cfg"
    config.write_text(f"[fp]\n{key} = 2\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["fp", "CCO", "--family", family, "--config", str(config)])
    assert err.value.code == 2


@pytest.mark.parametrize("family, function, default", [
    ("morgan", morgan_features, DEFAULT_MORGAN_RADIUS),
    ("path", path_features, DEFAULT_PATH_LENGTH),
])
def test_fp_parameter_defaults_to_the_library_default(
    family, function, default, capsys,
):
    assert main(["fp", "--family", family, "c1ccccc1O"]) == 0
    expected = dump_features(function(parse_smiles("c1ccccc1O"), default))
    assert capsys.readouterr().out == expected + "\n"


def test_dense_molecule_scores_zero_and_fp_fails_typed(dense_k10, capsys):
    assert main(["score", "--ref", "C", "--hyp", dense_k10]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["total 0.0", "valid false"]
    assert main(["fp", "--family", "path", dense_k10]) == 1
    assert capsys.readouterr().err.startswith("MoleculeTooLarge:")


# ---------------------------------------------------------------------------
# batch commands

def test_eval_echo_on_canonical_captions(tmp_path, capsys):
    pairs = write_pairs_file(
        tmp_path / "pairs.jsonl", ["CCO", "CCC", "c1ccccc1"],
    )
    out = tmp_path / "report.json"
    assert main(["eval", "--pairs", pairs, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "exact_pct 100.0" in stdout
    assert "validity_pct 100.0" in stdout
    body = json.loads(out.read_text())
    assert body["round_trip"] == 1.0
    assert body["report"]["sim_keys"] == 1.0


@pytest.mark.parametrize("bad", [
    {"smiles": 5, "caption": "x"},
    {"smiles": "CCO", "caption": 7},
])
def test_eval_sets_aside_non_string_fields(tmp_path, capsys, bad):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(body) + "\n" for body in (
        {"smiles": "CCO", "caption": "CCO"}, bad, {"smiles": "CCC", "caption": "CCC"},
    )), encoding="utf-8")
    assert main(["eval", "--pairs", str(pairs)]) == 0
    captured = capsys.readouterr()
    assert "1 malformed lines set aside" in captured.err
    assert "samples 2" in captured.out
    assert "exact_pct 100.0" in captured.out


def test_eval_sets_aside_a_line_nested_too_deeply_to_decode(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"smiles": "CCO", "caption": "CCO"}) + "\n"
        + "[" * 200_000 + "]" * 200_000 + "\n",
        encoding="utf-8",
    )
    assert main(["eval", "--pairs", str(pairs)]) == 0
    captured = capsys.readouterr()
    assert "1 malformed lines set aside" in captured.err
    assert "samples 1" in captured.out


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
def test_eval_names_the_pair_whose_reference_is_invalid(fmt, tmp_path, capsys):
    pairs = tmp_path / f"pairs.{fmt}"
    if fmt == "jsonl":  # named by its id
        pairs.write_text("".join(json.dumps(body) + "\n" for body in (
            {"smiles": "CCO", "caption": "CCO", "id": "good-1"},
            {"smiles": "C1CC", "caption": "CCC", "id": "bad-7"},
        )), encoding="utf-8")
        name = "pair bad-7"
    else:  # no id: named by its file line
        pairs.write_text("CCO\tCCO\n\nC1CC\tCCC\n", encoding="utf-8")
        name = "pair line 3"
    assert main(["eval", "--pairs", str(pairs)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"InvalidReference: {name}: reference does not parse: ring closure 1"
    )


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["eval"],
    ["annotate", "--base-url", "https://api.example.test/v1", "--model", "toy"],
], ids=lambda c: c[0])
def test_worker_count_below_one_is_a_usage_error(command, workers, tmp_path, capsys):
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as err:
        main([*command, "--pairs", pairs, "--out", str(out), "--workers", workers])
    assert err.value.code == 2
    assert f"--workers must be >= 1, not {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_worker_count_does_not_change_output(tmp_path, capsys):
    pairs = write_pairs_file(
        tmp_path / "pairs.jsonl", ["CCO", "CCC", "CCN", "CC(=O)O", "c1ccccc1"],
    )
    assert main(["eval", "--pairs", pairs, "--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["eval", "--pairs", pairs, "--workers", "4"]) == 0
    assert capsys.readouterr().out == serial


def test_eval_parses_each_string_once(workloads, tmp_path, monkeypatch, capsys):
    # every moltrip binding of the two is wrapped, so a second parse or
    # canonical form anywhere in the command is counted
    from moltrip.chem.canon import canonical_smiles as canonical
    from moltrip.chem.parser import parse_smiles as parse

    calls = {"parse_smiles": 0, "canonical_smiles": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "moltrip":
            continue
        for name, original in (("parse_smiles", parse), ("canonical_smiles", canonical)):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    pairs = workloads.eval_pairs(0)
    assert len(pairs) == 24
    path = write_pairs_file(
        tmp_path / "pairs.jsonl",
        [reference for reference, _, _ in pairs],
        [caption for _, caption, _ in pairs],
    )
    assert main(["eval", "--pairs", path]) == 0
    assert "samples 24" in capsys.readouterr().out
    # both sides of each pair parsed once; both sides of each of the 18
    # pairs with a valid candidate canonicalised once
    assert calls == {"parse_smiles": 48, "canonical_smiles": 36}


def test_split_sizes_and_reproducibility(tmp_path, capsys):
    smiles = ["C" * (i % 5 + 1) for i in range(10)]
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", smiles)
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert main([
            "split", "--pairs", pairs, "--out-dir", str(out_dir), "--seed", "3",
        ]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0].startswith("train 8 ")
        assert (out_dir / "val.jsonl").read_text().count("\n") == 1
        assert (out_dir / "test.jsonl").read_text().count("\n") == 1
    assert (tmp_path / "a" / "train.jsonl").read_text() == (
        tmp_path / "b" / "train.jsonl").read_text()


def test_dedupe_reports_overlap(tmp_path, capsys):
    target = write_pairs_file(tmp_path / "t.jsonl", ["OCC", "CCN"])
    reference = write_pairs_file(tmp_path / "r.jsonl", ["CCO"])
    out = tmp_path / "kept.jsonl"
    assert main([
        "dedupe", "--target", target, "--reference", reference,
        "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "kept 1" in stdout and "removed 1" in stdout
    assert "overlap_fraction 0.5" in stdout
    assert out.read_text().count("\n") == 1


def test_dedupe_sidecar_names_file_lines(tmp_path, capsys):
    target = tmp_path / "t.jsonl"
    target.write_text("\n".join([
        json.dumps({"smiles": "CCO", "caption": "a"}),
        "",
        "",
        json.dumps({"smiles": "C1CC", "caption": "b"}),
        json.dumps({"smiles": "CCN", "caption": "c"}),
    ]) + "\n")
    reference = tmp_path / "r.jsonl"
    reference.write_text("\n" + json.dumps({"smiles": "C(", "caption": "d"}) + "\n")
    sidecar = tmp_path / "sidecar.tsv"
    assert main([
        "dedupe", "--target", str(target), "--reference", str(reference),
        "--out", str(tmp_path / "kept.jsonl"), "--sidecar", str(sidecar),
    ]) == 0
    lines = sidecar.read_text().splitlines()
    assert [line.split("\t")[:2] for line in lines] == [["2", "C("], ["4", "C1CC"]]
    assert "kept 2" in capsys.readouterr().out


def test_dedupe_sidecar_keeps_each_entry_on_one_line(tmp_path):
    # a string holding a tab or a line break is written as its JSON string
    # literal; any other string as it is
    spelled = ["C\nC\tO", "C\u2028C", "C\rC\x85", "C1CC", "C(\u00e9"]
    target = tmp_path / "t.jsonl"
    target.write_text("".join(
        json.dumps({"smiles": smiles, "caption": "x"}) + "\n" for smiles in spelled
    ), encoding="utf-8")
    reference = write_pairs_file(tmp_path / "r.jsonl", ["CCO"])
    sidecar = tmp_path / "sidecar.tsv"
    assert main([
        "dedupe", "--target", str(target), "--reference", reference,
        "--out", str(tmp_path / "kept.jsonl"), "--sidecar", str(sidecar),
    ]) == 0
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    assert [line.count("\t") for line in lines] == [2] * 5
    assert [line.split("\t")[1] for line in lines] == [
        '"C\\nC\\tO"', '"C\\u2028C"', '"C\\rC\\u0085"', "C1CC", "C(\u00e9",
    ]
    assert [json.loads(line.split("\t")[1]) for line in lines[:3]] == spelled[:3]


def test_dedupe_and_score_answer_for_a_molecule_too_large_to_canonicalise(
    snake_ladder, tmp_path, capsys,
):
    target = write_pairs_file(
        tmp_path / "t.jsonl", ["OCC", snake_ladder, "CCN"], captions=["a", "b", "c"]
    )
    reference = write_pairs_file(tmp_path / "r.jsonl", ["CCO"])
    out, sidecar = tmp_path / "kept.jsonl", tmp_path / "sidecar.tsv"
    assert main([
        "dedupe", "--target", target, "--reference", reference,
        "--out", str(out), "--sidecar", str(sidecar),
    ]) == 0
    assert "kept 1" in capsys.readouterr().out
    assert [line.split("\t")[:2] for line in sidecar.read_text().splitlines()] == [
        ["2", snake_ladder]
    ]
    assert main(["score", "--ref", "CCC", "--hyp", snake_ladder]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["total 0.0", "valid false"]
    assert main(["canon", snake_ladder]) == 1
    assert capsys.readouterr().err.startswith("MoleculeTooLarge:")


def test_filter_separates_scrambled_pairs(tmp_path, capsys):
    pairs = write_pairs_file(
        tmp_path / "pairs.jsonl",
        ["CCO", "CCC"],
        captions=[canonicalize("CCO"), canonicalize("c1ccccc1")],
    )
    kept, rejected = tmp_path / "kept.jsonl", tmp_path / "rej.jsonl"
    assert main([
        "filter", "--pairs", pairs, "--tau", "2",
        "--out", str(kept), "--rejected", str(rejected),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "kept 1" in stdout and "rejected 1" in stdout
    assert json.loads(kept.read_text())["smiles"] == "CCO"
    assert json.loads(rejected.read_text())["smiles"] == "CCC"


def test_no_partial_output_on_failure(tmp_path, capsys):
    bad_dir = tmp_path / "missing" / "deep.jsonl"
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    assert main([
        "filter", "--pairs", pairs, "--tau", "1", "--out", str(bad_dir),
    ]) == 1
    assert not bad_dir.exists()
    assert not bad_dir.with_suffix(".jsonl.tmp").exists()


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(  # a lone surrogate cannot be encoded to the TSV file
        json.dumps({"smiles": "CCO", "caption": "\udc80"}) + "\n", encoding="utf-8",
    )
    out_dir = tmp_path / "parts"
    assert main([
        "split", "--pairs", str(pairs), "--out-dir", str(out_dir),
        "--fmt", "tsv", "--ratios", "1", "0", "0",
    ]) == 1
    assert not (out_dir / "train.tsv").exists()
    assert not (out_dir / "train.tsv.tmp").exists()


def test_split_refuses_nan_ratios(tmp_path, capsys):
    # nan once slipped past the ratio checks and died converting to a count
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO", "CCN"])
    out_dir = tmp_path / "parts"
    assert main([
        "split", "--pairs", pairs, "--out-dir", str(out_dir),
        "--ratios", "0.5", "0.5", "nan",
    ]) == 1
    assert "ratios must be non-negative numbers" in capsys.readouterr().err
    assert not out_dir.exists()


def test_split_refuses_tsv_that_would_not_read_back(tmp_path, capsys):
    pairs = write_pairs_file(
        tmp_path / "pairs.jsonl", ["CCO", "CCN", "CCC"],
        captions=["fine", "a\tb", "line\nbreak"],
    )
    out_dir = tmp_path / "parts"
    assert main([
        "split", "--pairs", pairs, "--out-dir", str(out_dir), "--fmt", "tsv",
        "--ratios", "0", "0", "1",  # train and val would be written first
    ]) == 1
    assert "would not read back" in capsys.readouterr().err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# training and theory

def test_train_toy_short_run(tmp_path, capsys):
    out = tmp_path / "log.json"
    assert main([
        "train-toy", "--seed", "0", "--max-steps", "2", "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "steps 2"
    body = json.loads(out.read_text())
    assert len(body["steps"]) == 2
    assert "final_round_trip" in body


def test_theory_check_seeded_and_exact_text(capsys):
    assert main(["theory", "check", "--systems", "20", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert first.strip() == "20/20 bounds hold"
    assert main(["theory", "check", "--systems", "20", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_theory_check_writes_one_lipschitz_key(tmp_path, capsys):
    out = tmp_path / "reports.json"
    assert main(["theory", "check", "--systems", "2", "--out", str(out)]) == 0
    for report in json.loads(out.read_text()):
        assert list(report) == [
            "mi", "entropy_x", "ba_bound", "lipschitz_L", "c_term", "mi_lower",
            "holds",
        ]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("flag, value, message", [
    ("--max-size", "9", "--max-size must be in 2..8, not 9"),
    ("--max-size", "1", "--max-size must be in 2..8, not 1"),
    ("--systems", "0", "--systems must be >= 1, not 0"),
    ("--systems", "-3", "--systems must be >= 1, not -3"),
])
def test_theory_check_refuses_bad_limits_before_any_draw(
    flag, value, message, via, tmp_path, capsys, monkeypatch,
):
    import moltrip.theory as theory

    def no_draw(*args):
        raise AssertionError("a system was drawn")

    # the command imports random_system from the theory module when it runs
    monkeypatch.setattr(theory, "random_system", no_draw)
    out = tmp_path / "reports.json"
    # one system, so a size checked only when a draw exceeds it would pass
    argv = ["theory", "check", "--systems", "1", "--out", str(out)]
    if via == "flag":
        argv += [flag, value]
    else:
        config = tmp_path / "moltrip.cfg"
        config.write_text(
            f"[theory-check]\n{flag[2:].replace('-', '_')} = {value}\n",
            encoding="utf-8",
        )
        argv += ["--config", str(config)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_theory_check_accepts_the_largest_size(capsys):
    assert main(["theory", "check", "--systems", "3", "--max-size", "8"]) == 0
    assert capsys.readouterr().out.strip() == "3/3 bounds hold"


# ---------------------------------------------------------------------------
# remote annotation (fake transport, no network)

HTTP_LIBRARIES = {"requests", "urllib3", "charset_normalizer", "idna", "certifi"}
# loaded only by the command or option that uses them: the HTTP stack by the
# remote transport, the thread pool by --workers above 1, configparser by
# --config, the theory module by theory check, string by the remote prompt
# check.  dataclasses and inspect by no command: the records are NamedTuples
# and plain classes, because the dataclass decorator compiles each class's
# methods and brings in inspect, which together cost a fresh process about
# a quarter of its set-up CPU
DEFERRED_MODULES = {
    "http.client", "urllib.request", "ssl", "email", "concurrent.futures",
    "logging", "configparser", "moltrip.theory", "dataclasses", "inspect",
    "string",
}
REPO = Path(__file__).parent.parent


def _fresh_python(code: str, *args: str, **env_extra: str) -> str:
    """Run code in a new interpreter that imports moltrip from src; its stdout."""
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(REPO / "src"), env.get("PYTHONPATH"),
    ]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def _perfbench_lookups() -> set[str]:
    """The moltrip modules the benchmark finds in sys.modules after it
    imports moltrip.cli, to mark the first item and to trace."""
    names: set[str] = set()
    for script in ("child.py", "tracing.py"):
        text = (REPO / "perfbench" / script).read_text(encoding="utf-8")
        names.update(re.findall(r'"(moltrip(?:\.\w+)*)"', text))
    return names


def test_cli_import_loads_no_third_party_http_library():
    # compared against the modules already loaded, not against absence: a
    # site hook may preload one of these into every interpreter
    loaded = set(_fresh_python(
        "import sys; before = set(sys.modules); import moltrip.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    ).split())
    assert "moltrip.cli" in loaded
    assert not {name.partition(".")[0] for name in loaded} & HTTP_LIBRARIES
    assert not loaded & DEFERRED_MODULES
    lookups = _perfbench_lookups()
    assert {"moltrip.toy", "moltrip.harness", "moltrip.chem.canon"} <= lookups
    assert lookups <= loaded


def test_theory_check_loads_neither_dataclasses_nor_inspect():
    # run as python -m moltrip.cli runs it; the modules loaded before it
    # (a site hook may preload some) are left out of the comparison
    out = _fresh_python(
        "import runpy, sys; before = set(sys.modules); "
        "sys.argv = ['moltrip', 'theory', 'check', '--systems', '2']\n"
        "try:\n"
        "    runpy.run_module('moltrip.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, *sorted(set(sys.modules) - before))\n"
    ).splitlines()
    assert out[0] == "2/2 bounds hold"
    code, *loaded = out[1].split()
    assert code == "0" and "moltrip.theory" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


# the modules importing moltrip.cli registers without executing them; a
# lazy module's type is a subclass of ModuleType until its first read
LAZY_MODULES = ("adapters", "fingerprints", "grpo", "harness", "metrics", "toy")

COMMAND_EXECUTES = """
import contextlib, io, sys, types
import moltrip.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = moltrip.cli.main(sys.argv[1:])
print(code, *(name for name in %r
              if type(sys.modules["moltrip." + name]) is types.ModuleType))
""" % (LAZY_MODULES,)


@pytest.mark.parametrize("argv, executed", [
    (["canon", "CCO"], set()),
    (["validate", "CCO"], set()),
    (["split", "--pairs", "{pairs}", "--out-dir", "{tmp}"], set()),
    (["dedupe", "--target", "{pairs}", "--reference", "{pairs}",
      "--out", "{tmp}/kept.jsonl"], set()),
    (["theory", "check", "--systems", "2"], set()),
    (["fp", "CCO", "--family", "morgan"], {"fingerprints"}),
    (["score", "--ref", "CCO", "--hyp", "CCN"], {"metrics", "fingerprints"}),
    (["eval", "--pairs", "{pairs}", "--workers", "2"],
     {"adapters", "fingerprints", "grpo", "metrics"}),
    (["filter", "--pairs", "{pairs}", "--tau", "1", "--out", "{tmp}/kept.jsonl"],
     {"adapters", "fingerprints", "grpo", "metrics"}),
    (["train-toy", "--max-steps", "1"], set(LAZY_MODULES)),
], ids=["canon", "validate", "split", "dedupe", "theory-check", "fp", "score",
        "eval", "filter", "train-toy"])
def test_each_command_executes_only_the_modules_it_runs(argv, executed, tmp_path):
    # one interpreter per command, so no other command's modules ran first
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO", "CCN", "c1ccccc1"])
    argv = [a.format(pairs=pairs, tmp=tmp_path) for a in argv]
    code, *ran = _fresh_python(COMMAND_EXECUTES, *argv).split()
    assert code == "0"
    assert set(ran) == executed


def test_each_deferred_module_is_one_object_that_import_does_not_run():
    # in a fresh interpreter: the module cli binds, the package attribute
    # and the sys.modules entry are one object, and it has not executed
    out = _fresh_python(
        "import sys, types, moltrip, moltrip.cli as cli\n"
        "for name in %r:\n"
        "    module = sys.modules['moltrip.' + name]\n"
        "    print(name, getattr(cli, name) is module is getattr(moltrip, name),\n"
        "          type(module) is types.ModuleType)\n" % (LAZY_MODULES,)
    ).splitlines()
    assert out == [f"{name} True False" for name in LAZY_MODULES]


POOL_AFTER_ADAPTERS = """
import contextlib, io, sys, types
import moltrip.cli as cli

pool_map, starts = cli._pool_map, []

def watched_pool_map(fn, items, workers):
    starts.append(type(sys.modules["moltrip.adapters"]) is types.ModuleType)
    return pool_map(fn, items, workers)

cli._pool_map = watched_pool_map
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, starts)
"""


def test_adapters_has_run_before_a_pool_starts(tmp_path):
    # 3.11's LazyLoader is not thread-safe: two pool threads reaching a
    # lazy module first could both execute it
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO", "CCN", "c1ccccc1"])
    out = _fresh_python(POOL_AFTER_ADAPTERS, "eval", "--pairs", pairs, "--workers", "2")
    assert out.strip() == "0 [True]"


FRESH_DEFERRED_PATHS = """
import contextlib, io, json, socket, sys
from moltrip.adapters import HttpStatus, RemoteClient, RemoteEndpointConfig
from moltrip.cli import main

config, canon_out, pairs = sys.argv[1:]
result = {}

def run(name, argv, module):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    result[name] = [rc, out.getvalue(), module in sys.modules]

run("theory", ["theory", "check", "--systems", "2"], "moltrip.theory")
run("config", ["canon", "OCC", "--config", config], "configparser")
run("serial", ["eval", "--pairs", pairs, "--workers", "1"], "concurrent.futures")
run("pooled", ["eval", "--pairs", pairs, "--workers", "2"], "concurrent.futures")
with socket.socket() as probe:  # a port nothing listens on once closed
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
client = RemoteClient(RemoteEndpointConfig(
    base_url=f"http://127.0.0.1:{port}/v1", model="m", timeout=2.0, max_retries=0,
))
try:
    client.complete("p", 1)
except HttpStatus as exc:
    result["transport"] = [exc.status, "http.client" in sys.modules]
print(json.dumps(result))
"""


def test_deferred_imports_load_on_their_paths_in_a_fresh_interpreter(tmp_path):
    # in-process tests share modules the test files already loaded, so
    # each deferred path runs here in an interpreter that loaded nothing
    config = tmp_path / "moltrip.cfg"
    canon_out = tmp_path / "canon.txt"
    config.write_text(f"[canon]\nout = {canon_out}\n", encoding="utf-8")
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO", "CCN", "c1ccccc1"])
    result = json.loads(_fresh_python(
        FRESH_DEFERRED_PATHS, str(config), str(canon_out), pairs,
        RTMOL_API_KEY="k", no_proxy="127.0.0.1",
    ))
    assert result["theory"] == [0, "2/2 bounds hold\n", True]
    assert result["config"] == [0, "CCO\n", True]
    assert canon_out.read_text(encoding="utf-8") == "CCO\n"
    serial_rc, serial_out, pooled_before = result["serial"]
    assert serial_rc == 0 and not pooled_before  # one worker starts no pool
    assert result["pooled"] == [0, serial_out, True]
    assert result["transport"] == [0, True]


def test_annotate_exports_rollouts(tmp_path, capsys, monkeypatch):
    import moltrip.adapters as adapters

    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    script = [
        FakeResponse(_ok_body(["CCO", "CCN", "xx"])),
        FakeResponse(_ok_body(["CCC", "CCC", "CCO"])),
    ]
    monkeypatch.setattr(adapters, "UrllibTransport", lambda: FakeSession(script))
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO", "CCC"])
    out = tmp_path / "rollouts.jsonl"
    assert main([
        "annotate", "--pairs", pairs, "--n", "3", "--out", str(out),
        "--base-url", "https://api.example.test/v1", "--model", "toy",
    ]) == 0
    stdout = capsys.readouterr().out
    assert "groups 2" in stdout and "completions 6" in stdout
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 6
    exact = [r for r in rows if r["completion"] == r["reference"]]
    assert all(r["reward"] == 4.0 for r in exact)
    assert {r["group"] for r in rows} == {"annotate-0-p0", "annotate-0-p1"}


class CaptionEchoSession:
    """Answers from the request itself, so any thread order gives one reply."""

    def post(self, url, json=None, headers=None, timeout=None):
        caption = json["messages"][0]["content"].rsplit(": ", 1)[-1]
        return FakeResponse(_ok_body([caption, caption + "C", "xx"][:json["n"]]))


def test_annotate_worker_count_does_not_change_rollouts(tmp_path, capsys, monkeypatch):
    import moltrip.adapters as adapters

    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    monkeypatch.setattr(adapters, "UrllibTransport", CaptionEchoSession)
    pairs = write_pairs_file(
        tmp_path / "pairs.jsonl", ["CCO", "CCC", "CCN", "CC(=O)O", "c1ccccc1"],
    )
    exports = []
    for workers in ("1", "3"):
        out = tmp_path / f"rollouts-{workers}.jsonl"
        assert main([
            "annotate", "--pairs", pairs, "--n", "3", "--out", str(out),
            "--workers", workers,
            "--base-url", "https://api.example.test/v1", "--model", "toy",
        ]) == 0
        exports.append(out.read_bytes())
    capsys.readouterr()
    assert exports[0] == exports[1]
    assert exports[0].count(b"\n") == 15


def test_annotate_without_key_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RTMOL_API_KEY", raising=False)
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    assert main([
        "annotate", "--pairs", pairs, "--out", str(tmp_path / "r.jsonl"),
        "--base-url", "https://api.example.test/v1", "--model", "toy",
    ]) == 1
    assert "AuthMissing" in capsys.readouterr().err


def test_annotate_requires_endpoint(tmp_path, capsys):
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    assert main([
        "annotate", "--pairs", pairs, "--out", str(tmp_path / "r.jsonl"),
    ]) == 1
    assert "base-url" in capsys.readouterr().err


class RecordingSession:
    def __init__(self):
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(json)
        return FakeResponse(_ok_body(["CCO"] * json["n"]))


@pytest.mark.parametrize("n", ["1", "0"])
def test_annotate_refuses_a_group_below_two_before_any_call(n, tmp_path, capsys, monkeypatch):
    import moltrip.adapters as adapters

    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    session = RecordingSession()
    monkeypatch.setattr(adapters, "UrllibTransport", lambda: session)
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO", "CCC"])
    out = tmp_path / "out.jsonl"
    assert main([
        "annotate", "--pairs", pairs, "--out", str(out), "--n", n,
        "--base-url", "https://api.example.test/v1", "--model", "toy",
    ]) == 1
    assert f"--n must be >= 2, not {n}" in capsys.readouterr().err
    assert not out.exists()
    assert session.calls == []


@pytest.mark.parametrize("timeout", ["nan", "inf", "1e300", "0"])
@pytest.mark.parametrize("command", [
    ["annotate"],
    ["eval", "--generator", "remote"],
    ["filter", "--tau", "1", "--generator", "remote"],
], ids=lambda c: c[0])
def test_unusable_timeout_fails_before_any_call(command, timeout, tmp_path, capsys, monkeypatch):
    # the socket would raise ValueError or OverflowError on the call itself,
    # and filter would then reject every pair and exit 0
    import moltrip.adapters as adapters

    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    session = RecordingSession()
    monkeypatch.setattr(adapters, "UrllibTransport", lambda: session)
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    out = tmp_path / "out.jsonl"
    assert main([
        *command, "--pairs", pairs, "--out", str(out), "--timeout", timeout,
        "--base-url", "https://api.example.test/v1", "--model", "toy",
    ]) == 1
    assert "timeout must be > 0" in capsys.readouterr().err
    assert not out.exists()
    assert session.calls == []


@pytest.mark.parametrize("command", [
    ["annotate", "--n", "2"],
    ["filter", "--tau", "1", "--generator", "remote"],
], ids=lambda c: c[0])
def test_bad_prompt_template_fails_before_any_call(command, tmp_path, capsys, monkeypatch):
    import moltrip.adapters as adapters

    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    session = RecordingSession()
    monkeypatch.setattr(adapters, "UrllibTransport", lambda: session)
    prompts = tmp_path / "prompts.cfg"
    prompts.write_text("generate_template = Make {smiles}\n", encoding="utf-8")
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    out = tmp_path / "out.jsonl"
    assert main([
        *command, "--pairs", pairs, "--out", str(out), "--prompts", str(prompts),
        "--base-url", "https://api.example.test/v1", "--model", "toy",
    ]) == 1
    err = capsys.readouterr().err
    assert "generate_template" in err and "{smiles}" in err
    assert not out.exists()
    assert session.calls == []


REMOTE_ONLY_FLAGS = (
    ("--base-url", "https://api.example.test/v1"),
    ("--model", "toy"),
    ("--prompts", "prompts.cfg"),
    ("--timeout", "5"),
    ("--max-retries", "1"),
    ("--temperature", "0.5"),
)


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("flag, value", REMOTE_ONLY_FLAGS, ids=lambda v: v)
@pytest.mark.parametrize("command", [["eval"], ["filter", "--tau", "1"]], ids=lambda c: c[0])
def test_echo_generator_refuses_remote_only_flags(command, flag, value, via, tmp_path, capsys):
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    out = tmp_path / "out.jsonl"
    argv = [*command, "--pairs", pairs, "--out", str(out)]
    if via == "flag":
        argv += [flag, value]
    else:
        config = tmp_path / "moltrip.cfg"
        key = flag[2:].replace("-", "_")
        config.write_text(f"[{command[0]}]\n{key} = {value}\n", encoding="utf-8")
        argv += ["--config", str(config)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"{flag} applies only to --generator remote" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, temperature", [
    pytest.param(["annotate"], 1.0, id="annotate"),
    pytest.param(["eval", "--generator", "remote"], 0.0, id="eval"),
    pytest.param(["filter", "--tau", "1", "--generator", "remote"], 1.0, id="filter"),
])
def test_remote_commands_keep_the_endpoint_defaults(command, temperature, tmp_path, monkeypatch):
    import moltrip.adapters as adapters

    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    session = RecordingSession()
    configs = []
    remote_client = adapters.RemoteClient  # the patch below replaces it

    def recording_client(config):
        configs.append(config)
        return remote_client(config, session=session)

    monkeypatch.setattr(adapters, "RemoteClient", recording_client)
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO"])
    endpoint = ["--base-url", "https://api.example.test/v1", "--model", "toy"]
    for limits in ([], ["--timeout", "5", "--max-retries", "1"]):
        assert main([
            *command, "--pairs", pairs, "--out", str(tmp_path / "out.jsonl"),
            *endpoint, *limits,
        ]) == 0
    assert [(c.timeout, c.max_retries) for c in configs] == [(30.0, 3), (5.0, 1)]
    # the flag left out, each command samples at its own default
    assert [call["temperature"] for call in session.calls] == [temperature] * 2


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("temperature", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [
    ["annotate"],
    ["eval", "--generator", "remote"],
    ["filter", "--tau", "1", "--generator", "remote"],
], ids=lambda c: c[0])
def test_unusable_remote_temperature_is_refused_before_the_pairs_are_read(
    command, temperature, via, tmp_path, capsys, monkeypatch,
):
    # json.dumps would post NaN or Infinity, which are not JSON
    import moltrip.adapters as adapters
    import moltrip.cli as cli

    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    session = RecordingSession()
    monkeypatch.setattr(adapters, "UrllibTransport", lambda: session)
    read = []
    monkeypatch.setattr(cli, "load_pairs", lambda path: read.append(path))
    out = tmp_path / "out.jsonl"
    argv = [
        *command, "--pairs", str(tmp_path / "pairs.jsonl"), "--out", str(out),
        "--base-url", "https://api.example.test/v1", "--model", "toy",
    ]
    if via == "flag":
        argv.append(f"--temperature={temperature}")
    else:
        config = tmp_path / "moltrip.cfg"
        config.write_text(
            f"[{command[0]}]\ntemperature = {temperature}\n", encoding="utf-8"
        )
        argv += ["--config", str(config)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--temperature must be 0 or finite and positive" in capsys.readouterr().err
    assert read == [] and session.calls == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# byte-order marks

@pytest.mark.parametrize("suffix", ["jsonl", "tsv"])
def test_eval_reads_a_pair_file_that_starts_with_a_byte_order_mark(
    suffix, tmp_path, capsys,
):
    path = tmp_path / f"pairs.{suffix}"
    if suffix == "jsonl":
        lines = [json.dumps({"smiles": s, "caption": s}) for s in ("CCO", "CCN")]
    else:
        lines = ["CCO\tCCO", "CCN\tCCN"]
    path.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    assert main(["eval", "--pairs", str(path)]) == 0
    out = capsys.readouterr().out
    assert "samples 2" in out and "exact_pct 100.0" in out


def test_config_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    out = tmp_path / "canon.txt"
    config = tmp_path / "moltrip.cfg"
    config.write_text(f"\ufeff[canon]\nout = {out}\n", encoding="utf-8")
    assert main(["canon", "OCC", "--config", str(config)]) == 0
    assert capsys.readouterr().out == "CCO\n"
    assert out.read_text(encoding="utf-8") == "CCO\n"


# ---------------------------------------------------------------------------
# config file

def test_config_section_overrides_flags(tmp_path, capsys):
    smiles = ["C" * (i % 5 + 1) for i in range(10)]
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", smiles)
    config = tmp_path / "moltrip.cfg"
    config.write_text("[split]\nseed = 9\n", encoding="utf-8")
    assert main([
        "split", "--pairs", pairs, "--out-dir", str(tmp_path / "flagged"),
        "--seed", "9",
    ]) == 0
    capsys.readouterr()
    assert main([
        "split", "--pairs", pairs, "--out-dir", str(tmp_path / "configured"),
        "--seed", "3", "--config", str(config),
    ]) == 0
    capsys.readouterr()
    assert (tmp_path / "flagged" / "train.jsonl").read_text() == (
        tmp_path / "configured" / "train.jsonl").read_text()


def test_config_unknown_key_is_a_domain_error(tmp_path, capsys):
    config = tmp_path / "moltrip.cfg"
    config.write_text("[canon]\nno_such_flag = 1\n", encoding="utf-8")
    assert main(["canon", "CCO", "--config", str(config)]) == 1
    assert "no_such_flag" in capsys.readouterr().err


def test_config_other_sections_are_ignored(tmp_path, capsys):
    config = tmp_path / "moltrip.cfg"
    config.write_text("[split]\nseed = 9\n", encoding="utf-8")
    assert main(["canon", "OCC", "--config", str(config)]) == 0
    assert capsys.readouterr().out.strip() == "CCO"


# each choices-bearing flag, given a value its choices refuse
BAD_CHOICES = (
    (["fp", "CCO", "--family", "keys"], "family", "bogus"),
    (["split", "--pairs", "p", "--out-dir", "d"], "fmt", "xml"),
    (["dedupe", "--target", "t", "--reference", "r", "--out", "o"],
     "on_parse_error", "maybe"),
    (["eval", "--pairs", "p"], "generator", "bogus"),
    (["train-toy"], "reward_mode", "dense"),
)


@pytest.mark.parametrize(
    "argv, key, value", BAD_CHOICES, ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_config_values_are_checked_like_flags(argv, key, value, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as err:
        main([*argv, flag, value])
    assert err.value.code == 2
    config = tmp_path / "moltrip.cfg"
    config.write_text(f"[{argv[0]}]\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main([*argv, "--config", str(config)])
    assert err.value.code == 2
    assert f"invalid choice: '{value}'" in capsys.readouterr().err


def test_config_type_errors_are_usage_errors(tmp_path):
    config = tmp_path / "moltrip.cfg"
    config.write_text("[eval]\nworkers = x\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["eval", "--pairs", "p", "--config", str(config)])
    assert err.value.code == 2


@pytest.mark.parametrize("key", ["smiles", "config", "help", "func", "command"])
def test_config_keys_that_are_not_flags_are_unknown(key, tmp_path, capsys):
    config = tmp_path / "moltrip.cfg"
    config.write_text(f"[canon]\n{key} = CCC\n", encoding="utf-8")
    assert main(["canon", "CCO", "--config", str(config)]) == 1
    assert f"config key '{key}' unknown for [canon]" in capsys.readouterr().err


def test_config_list_and_spaced_path_values(tmp_path, capsys):
    pairs = write_pairs_file(tmp_path / "pairs.jsonl", ["CCO", "CCC", "CCN"])
    out_dir = tmp_path / "dir with spaces, 100%"
    config = tmp_path / "moltrip.cfg"
    config.write_text(
        f"[split]\nratios = 0, 0,1\nout-dir = {out_dir}\n", encoding="utf-8",
    )
    assert main([
        "split", "--pairs", pairs, "--out-dir", str(tmp_path / "flagged"),
        "--config", str(config),
    ]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        f"test 3 {out_dir / 'test.jsonl'}"
    )
    assert not (tmp_path / "flagged").exists()


def test_config_reaches_the_nested_theory_check(tmp_path, capsys):
    config = tmp_path / "moltrip.cfg"
    config.write_text("[theory-check]\nsystems = 3\n", encoding="utf-8")
    assert main(["theory", "check", "--systems", "5", "--config", str(config)]) == 0
    assert capsys.readouterr().out.strip() == "3/3 bounds hold"


def test_malformed_config_is_a_domain_error(tmp_path, capsys):
    config = tmp_path / "moltrip.cfg"
    config.write_text("seed = 9\n", encoding="utf-8")  # no section header
    assert main(["canon", "CCO", "--config", str(config)]) == 1
    assert str(config) in capsys.readouterr().err


@pytest.mark.parametrize("argv, extra", [
    (["train-toy", "--max-steps", "1"], ""),
    (["canon", "CCO"], "\n[canon]\n"),
], ids=["train-toy", "canon-with-own-section"])
def test_config_default_section_is_refused(argv, extra, tmp_path, capsys):
    # configparser would copy [DEFAULT] keys into every section, or silently
    # drop them for a command with no section of its own
    config = tmp_path / "moltrip.cfg"
    config.write_text(
        "[DEFAULT]\nseed = 3\n\n[split]\nfmt = jsonl\n" + extra, encoding="utf-8",
    )
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and "[DEFAULT]" in err
    assert not out.exists()
