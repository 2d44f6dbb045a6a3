"""Command-line surface: exit codes, config merging, and artifact layout.

Everything drives ``cli.main`` in-process.  argparse reports its own usage
failures by raising SystemExit(2), which main() deliberately lets escape, so
the helper below normalizes both styles to a plain return code.
"""

import contextlib
import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import random
import re
import shutil
import sys
from pathlib import Path

import pytest

from heurlab import cli, evaluation, generation, models, oracle, pipeline, util
from heurlab.domains import Domain, stp
from heurlab.search import TieBreak
from heurlab.util import atomic_write, derive_seed, read_jsonl

from conftest import MASTER_SEED, make_boxoban_fixture
from test_acceptance import _normalized


def run_cli(argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def work(tmp_path_factory, maze_train_150):
    root = tmp_path_factory.mktemp("cli")
    generation.write_split(maze_train_150[:12], root / "mazes")
    return root


@pytest.fixture(scope="module")
def split_dir(work):
    return str(work / "mazes")


@pytest.fixture(scope="module")
def pool_file(work, split_dir):
    out = work / "pool.jsonl"
    assert cli.main(["extract", "--instances", split_dir, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def model_file(work, pool_file):
    out = work / "model.json"
    assert cli.main(["train", "--pool", pool_file, "--out", str(out), "--seed", "5"]) == 0
    return str(out)


# ---------------------------------------------------------------------------
# Parser shape and exit codes

def test_every_subcommand_is_registered():
    cli.build_parser()
    expected = {
        "generate", "solve", "oracle-study", "extract", "sample",
        "train", "eval", "pipeline", "export-prompts",
    }
    assert expected <= set(cli._SUBPARSERS)


def _option_table():
    cli.build_parser()
    return {
        name: [
            {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", None),
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required,
                "nargs": action.nargs,
                "help": action.help,
            }
            for action in parser._actions
        ]
        for name, parser in sorted(cli._SUBPARSERS.items())
    }


def test_every_option_matches_the_recorded_table(monkeypatch):
    # cli_options.json was recorded before the shared flags moved into
    # helpers. A flag declared through argparse `parents=` shares one Action
    # between commands, so one command's set_defaults would leak into the
    # other's default and show up here.
    monkeypatch.delenv("HEURLAB_SEED", raising=False)
    recorded = json.loads((Path(__file__).parent / "cli_options.json").read_text())
    assert json.loads(json.dumps(_option_table())) == recorded


def test_every_numeric_option_declares_a_rule():
    # --seed is exempt: any integer is a valid seed.
    cli.build_parser()
    undeclared = [
        (name, action.option_strings[0])
        for name, parser in sorted(cli._SUBPARSERS.items())
        for action in parser._actions
        if action.type in (int, float, cli._comma_floats) and action.dest != "seed" and not hasattr(action, "rule")
    ]
    assert undeclared == []


_RULE_CASES = [  # command, its other flags, config key, value, the usage error
    ("eval", [], "jobs", "0", "--jobs must be positive, got 0"),
    ("generate", [], "scale", "nan", "--scale must be finite and positive, got nan"),
    ("pipeline", [], "scale", "nan", "--scale must be finite and positive, got nan"),
    ("pipeline", [], "scale", "0", "--scale must be finite and positive, got 0.0"),
    ("pipeline", [], "scale", "-1", "--scale must be finite and positive, got -1.0"),
    ("sample", ["--strategy", "planner_aware"], "tau", "nan", "--tau must be positive, got nan"),
    ("sample", ["--strategy", "planner_aware"], "tau", "-1", "--tau must be positive, got -1.0"),
    ("sample", [], "budget", "0", "--budget must be positive, got 0"),
    ("sample", [], "per_problem_m", "0", "--per-problem-m must be positive, got 0"),
    ("sample", ["--strategy", "semdedup"], "clusters", "0", "--clusters must be positive, got 0"),
    ("sample", ["--strategy", "semdedup"], "threshold", "nan", "--threshold must be finite and at least -1, got nan"),
    ("sample", ["--strategy", "semdedup"], "threshold", "-1.5",
     "--threshold must be finite and at least -1, got -1.5"),
    ("oracle-study", [], "margin", "nan", "--margin must be finite, got nan"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, extra, key, value, message",
                         [pytest.param(*case, id=f"{case[0]}-{case[2]}={case[3]}") for case in _RULE_CASES])
def test_a_value_outside_its_rule_exits_2_before_any_output(tmp_path, capsys, source, command, extra, key, value,
                                                             message):
    out = tmp_path / "out"
    missing = tmp_path / "missing"  # refused before any input is read
    argv = {
        "eval": ["eval", "--instances", missing, "--out", out],
        "generate": ["generate", "--out", out],
        "pipeline": ["pipeline", "--workdir", out],
        "sample": ["sample", "--pool", missing, "--out", out],
        "oracle-study": ["oracle-study", "--instances", missing, "--out", out],
    }[command] + extra
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        argv += ["--config", _write_config(tmp_path / "cfg.ini", f"[{command}]\n{key} = {value}\n")]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert f"usage error: {message}\n" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sample_refuses_a_threshold_whose_dedup_ladder_never_ends(pool_file, tmp_path, capsys):
    # From -1e20 a 0.01 step is lost to rounding, so the ladder never rose.
    out = tmp_path / "s.jsonl"
    argv = ["sample", "--pool", pool_file, "--out", out, "--strategy", "semdedup", "--budget", "100"]
    assert run_cli(argv + ["--threshold=-1e20"]) == 2
    assert "usage error: --threshold must be finite and at least -1, got -1e+20\n" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(argv + ["--threshold=-1"]) == 0
    assert len(pipeline.read_pool(out)) == 100


def test_pipeline_refuses_a_nan_scale_before_writing_config(tmp_path, capsys):
    # A config.json written first would refuse the rerun with a valid --scale.
    wd = tmp_path / "wd"
    wd.mkdir()
    assert run_cli(["pipeline", "--workdir", wd, "--scale", "nan"]) == 2
    assert "usage error: --scale must be finite and positive, got nan" in capsys.readouterr().err
    assert list(wd.iterdir()) == []


def test_argparse_failures_exit_2():
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["solve"]) == 2
    assert run_cli(["sample", "--pool", "p", "--out", "o", "--strategy", "psychic"]) == 2


def test_exclusion_split_is_gone_for_section_split_selectors():
    # `--strategy section_split --section ~<s>` took its place.
    assert run_cli(["sample", "--pool", "p", "--out", "o", "--strategy", "exclusion_split", "--section", "end"]) == 2


def test_usage_errors_exit_2(split_dir, tmp_path, capsys):
    code = run_cli(["solve", "--instances", split_dir, "--out", str(tmp_path / "r.jsonl"),
                    "--heuristic", "learned"])
    assert code == 2
    assert "usage error:" in capsys.readouterr().err

    code = run_cli(["eval", "--instances", split_dir, "--out", str(tmp_path / "rep"),
                    "--heuristic", "learned"])
    assert code == 2

    code = run_cli(["generate", "--domain", "maze", "--splits", "bogus",
                    "--out", str(tmp_path / "g")])
    assert code == 2
    assert "unknown splits" in capsys.readouterr().err


def test_runtime_failures_exit_3(tmp_path, capsys):
    code = run_cli(["solve", "--instances", str(tmp_path / "nowhere"),
                    "--out", str(tmp_path / "r.jsonl")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_one_directory_per_split(tmp_path, capsys):
    out = tmp_path / "splits"
    argv = ["generate", "--domain", "maze", "--splits", "test_iid",
            "--out", out, "--scale", "0.004", "--seed", "9"]
    assert run_cli(argv) == 0
    assert "maze/test_iid: 2 instances" in capsys.readouterr().out
    split = out / "maze" / "test_iid"
    assert (split / "manifest.jsonl").exists()
    assert len(generation.read_split(split)) == 2

    # refuses to clobber an existing split unless forced
    assert run_cli(argv) == 3
    assert "error:" in capsys.readouterr().err
    assert run_cli(argv + ["--force"]) == 0


def test_sokoban_source_is_parsed_at_most_once_per_command(boxoban_file, tmp_path, monkeypatch):
    loads = []
    load = generation.load_boxoban
    monkeypatch.setattr(generation, "load_boxoban", lambda path: loads.append(path) or load(path))
    monkeypatch.setattr(generation, "build_sokoban_split", lambda split, seed, source, scale: source[:2])
    assert run_cli(["generate", "--domain", "sokoban", "--out", tmp_path / "g", "--boxoban", boxoban_file]) == 0
    assert len(loads) == 1

    def stop(*args, **kwargs):
        raise RuntimeError("stopped after the instance stages")

    monkeypatch.setattr(evaluation, "compute_references", stop)
    argv = ["pipeline", "--domain", "sokoban", "--workdir", tmp_path / "wd", "--boxoban", boxoban_file]
    loads.clear()
    assert run_cli(argv) == 3
    assert len(loads) == 1
    loads.clear()
    assert run_cli(argv) == 3  # every instance stage is up to date
    assert loads == []


def _unbuilt(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("no split is built for a refused name list")

    monkeypatch.setattr(generation, "build_split", build)


@pytest.mark.parametrize("splits, message", [
    ("train,train", "--splits names ['train'] more than once"),
    ("val, test_iid,val,test_iid", "--splits names ['val', 'test_iid'] more than once"),
    ("train,bogus", "unknown splits ['bogus']"),
], ids=["repeat", "two-repeats", "unknown"])
def test_generate_refuses_a_repeated_or_unknown_split(tmp_path, capsys, monkeypatch, splits, message):
    _unbuilt(monkeypatch)
    assert run_cli(["generate", "--splits", splits, "--out", tmp_path / "g"]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("strategies, message", [
    (",", "--strategies names nothing"),
    ("", "--strategies names nothing"),
    ("uniform,uniform", "--strategies names ['uniform'] more than once"),
    ("uniform,psychic", "unknown strategies ['psychic']"),
], ids=["comma", "blank", "repeat", "unknown"])
def test_pipeline_refuses_an_empty_repeated_or_unknown_strategy_list(tmp_path, capsys, monkeypatch, strategies,
                                                                      message):
    _unbuilt(monkeypatch)
    wd = tmp_path / "wd"
    assert run_cli(["pipeline", "--workdir", wd, "--scale", "0.01", "--strategies", strategies]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (wd / "config.json").exists()


def test_generate_names_an_empty_level_directory(tmp_path, capsys):
    (tmp_path / "levels").mkdir()
    argv = ["generate", "--domain", "sokoban", "--out", tmp_path / "g", "--boxoban", tmp_path / "levels"]
    assert run_cli(argv) == 3
    assert f"error: no .txt level files under {tmp_path / 'levels'}" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def _sokoban_instance_stages(monkeypatch):
    """Stop a Sokoban pipeline after its instance stages, which take two levels each."""
    def stop(*args, **kwargs):
        raise RuntimeError("stopped after the instance stages")

    monkeypatch.setattr(generation, "build_sokoban_split", lambda split, seed, source, scale: source[:2])
    monkeypatch.setattr(evaluation, "compute_references", stop)


def test_sokoban_pipeline_records_its_source(tmp_path, monkeypatch, capsys):
    _sokoban_instance_stages(monkeypatch)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    make_boxoban_fixture(a, count=3, n_boxes=4, seed=1)
    make_boxoban_fixture(b, count=3, n_boxes=4, seed=2)
    wd = tmp_path / "wd"
    argv = ["pipeline", "--domain", "sokoban", "--workdir", wd, "--boxoban"]

    assert run_cli(argv[:-1]) == 2  # no source: refused before config.json is written
    assert "usage error: Sokoban needs --boxoban" in capsys.readouterr().err
    assert not (wd / "config.json").exists()

    assert run_cli(argv + [a]) == 3
    capsys.readouterr()
    stored = json.loads((wd / "config.json").read_text())
    assert stored["config"]["boxoban"] == generation.source_hash(a)
    train = (wd / "instances" / "train" / "manifest.jsonl").read_bytes()

    # Another source is another configuration, refused before any stage runs.
    assert run_cli(argv + [b]) == 3
    captured = capsys.readouterr()
    assert "was built with a different configuration" in captured.err
    assert _stage_markers(captured.out) == []
    assert (wd / "instances" / "train" / "manifest.jsonl").read_bytes() == train

    # The same bytes under another name are the same source.
    shutil.copy(a, tmp_path / "renamed.txt")
    for source in (a, tmp_path / "renamed.txt"):
        assert run_cli(argv + [source]) == 3
        captured = capsys.readouterr()
        assert "resuming: configuration matches" in captured.out
        assert ("instances/test_ood", "up to date") in _stage_markers(captured.out)


# ---------------------------------------------------------------------------
# solve

def test_solve_reports_every_instance(split_dir, tmp_path, capsys):
    out = tmp_path / "runs.jsonl"
    assert run_cli(["solve", "--instances", split_dir, "--out", out]) == 0
    assert "solved 12/12" in capsys.readouterr().out
    rows = read_jsonl(out)
    assert len(rows) == 12
    assert all(r["status"] == "solution_found" for r in rows)
    assert all(r["plan_length"] > 20 for r in rows)
    assert [r["instance_id"] for r in rows] == sorted(r["instance_id"] for r in rows)
    # closed_length is the expansion count; no second column repeats it.
    fields = {"instance_id", "status", "plan_length", "closed_length", "heuristic_calls", "wall_time"}
    assert all(r.keys() == fields and r["closed_length"] > 0 for r in rows)


def test_solve_with_the_zero_heuristic_is_uniform_cost_search(split_dir, tmp_path):
    # Both heuristics are admissible, so the plans are equally short; the
    # uninformed search closes at least as many nodes.
    quick, zero = tmp_path / "quick.jsonl", tmp_path / "zero.jsonl"
    assert run_cli(["solve", "--instances", split_dir, "--out", quick]) == 0
    assert run_cli(["solve", "--instances", split_dir, "--out", zero, "--heuristic", "zero"]) == 0
    for q, z in zip(read_jsonl(quick), read_jsonl(zero), strict=True):
        assert z["status"] == "solution_found"
        assert z["plan_length"] == q["plan_length"]
        assert z["closed_length"] >= q["closed_length"]


def test_solve_learned_round_trip(split_dir, model_file, tmp_path):
    out = tmp_path / "runs.jsonl"
    argv = ["solve", "--instances", split_dir, "--out", out,
            "--heuristic", "learned", "--model", model_file]
    assert run_cli(argv) == 0
    assert all(r["status"] == "solution_found" for r in read_jsonl(out))


def test_solve_rejects_inconsistent_model_with_exit_3(split_dir, model_file, tmp_path, capsys):
    record = json.loads(Path(model_file).read_text())
    record["k"] = 0
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(record))
    out = tmp_path / "runs.jsonl"
    argv = ["solve", "--instances", split_dir, "--out", out, "--heuristic", "learned", "--model", bad]
    assert run_cli(argv) == 3
    assert "model field 'k' is 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("debug", [None, "1"])
def test_debug_env_prints_traceback_before_exit_3(split_dir, model_file, tmp_path, capsys, monkeypatch, debug):
    if debug is None:
        monkeypatch.delenv("HEURLAB_DEBUG", raising=False)
    else:
        monkeypatch.setenv("HEURLAB_DEBUG", debug)
    bad = tmp_path / "truncated_model.json"
    bad.write_text(Path(model_file).read_text()[:200])
    argv = ["solve", "--instances", split_dir, "--out", tmp_path / "runs.jsonl",
            "--heuristic", "learned", "--model", bad]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert ("Traceback (most recent call last)" in err) == (debug == "1")
    if debug:
        assert "JSONDecodeError" in err
        assert err.index("Traceback") < err.index("error:")


# ---------------------------------------------------------------------------
# extract / sample / train / eval / export-prompts

def test_extract_pool_counts(split_dir, tmp_path, capsys):
    out = tmp_path / "pool.jsonl"
    assert run_cli(["extract", "--instances", split_dir, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "from 12 instances (0 unsolved skipped)" in stdout
    pool = pipeline.read_pool(out)
    assert len(pool) > 12 * 20
    assert f"pool: {len(pool)} examples" in stdout


def test_sample_budget_and_determinism(pool_file, tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["sample", "--pool", pool_file, "--strategy", "planner_aware",
            "--budget", "10", "--tau", "2.0", "--seed", "3"]
    assert run_cli(argv + ["--out", a]) == 0
    assert run_cli(argv + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(pipeline.read_pool(a)) == 10
    assert "planner_aware: 10 of" in capsys.readouterr().out


def test_truncated_pool_line_names_its_file_and_line(pool_file, tmp_path, capsys):
    lines = Path(pool_file).read_text().splitlines(keepends=True)
    bad = tmp_path / "truncated.jsonl"
    bad.write_text(lines[0] + lines[1][:24] + "\n" + "".join(lines[2:]))
    out = tmp_path / "s.jsonl"
    assert run_cli(["sample", "--pool", bad, "--out", out, "--budget", "5"]) == 3
    assert f"error: {bad}:2: " in capsys.readouterr().err
    assert not out.exists()


def test_pool_record_missing_a_field_names_it(pool_file, tmp_path, capsys):
    lines = Path(pool_file).read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    del record["state_key"]
    bad = tmp_path / "short.jsonl"
    bad.write_text("".join(lines[:2]) + json.dumps(record) + "\n" + "".join(lines[3:]))
    assert run_cli(["train", "--pool", bad, "--out", tmp_path / "m.json"]) == 3
    assert f"error: {bad}: record 3 has no field 'state_key'" in capsys.readouterr().err


def test_reference_record_missing_a_field_names_it(split_dir, tmp_path, capsys):
    refs = tmp_path / "refs.jsonl"
    argv = ["eval", "--instances", split_dir, "--out", tmp_path / "rep", "--heuristic", "quick",
            "--references", refs]
    assert run_cli(argv) == 0
    records = read_jsonl(refs)
    del records[1]["plan_length"]
    util.write_jsonl(refs, records)
    assert run_cli(argv) == 3
    assert f"error: {refs}: record 2 has no field 'plan_length'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def references_file(work, split_dir):
    out = work / "references.jsonl"
    references, _ = evaluation.compute_references(generation.read_split(split_dir))
    util.write_jsonl(out, evaluation.reference_records(references))
    return out


def test_a_valid_references_file_loads_to_equal_references(references_file):
    records = read_jsonl(references_file)
    assert len(records) == 12
    assert cli._read_references(references_file) == {
        rec["instance_id"]: evaluation.ReferenceSolution(**rec) for rec in records
    }


_BAD_REFERENCE_VALUES = [  # field, value, the reason read_jsonl reports
    ("instance_id", 7, "instance_id must be a string, got 7"),
    ("instance_id", None, "instance_id must be a string, got None"),
    ("closed_length", "12", "closed_length must be a nonnegative integer, got '12'"),
    ("closed_length", -3, "closed_length must be a nonnegative integer, got -3"),
    ("closed_length", 2.0, "closed_length must be a nonnegative integer, got 2.0"),
    ("plan_length", -1, "plan_length must be a nonnegative integer, got -1"),
    ("plan_length", True, "plan_length must be a nonnegative integer, got True"),
    ("wall_time", float("nan"), "wall_time must be a finite, nonnegative number, got nan"),
    ("wall_time", float("inf"), "wall_time must be a finite, nonnegative number, got inf"),
    ("wall_time", -0.5, "wall_time must be a finite, nonnegative number, got -0.5"),
    ("wall_time", "0.1", "wall_time must be a finite, nonnegative number, got '0.1'"),
    ("wall_time", False, "wall_time must be a finite, nonnegative number, got False"),
]


@pytest.mark.parametrize("field, value, reason",
                         [pytest.param(*case, id=f"{case[0]}={case[1]!r}") for case in _BAD_REFERENCE_VALUES])
def test_reference_record_with_a_bad_value_names_it(split_dir, references_file, tmp_path, capsys, field, value,
                                                    reason):
    # Each would otherwise crash naming no file, or score a wrong table with exit 0.
    records = read_jsonl(references_file)
    records[2][field] = value
    refs = tmp_path / "refs.jsonl"
    util.write_jsonl(refs, records)
    out = tmp_path / "rep"
    argv = ["eval", "--instances", split_dir, "--out", out, "--heuristic", "quick", "--references", refs]
    assert run_cli(argv) == 3
    assert f"error: {refs}: record 3: {reason}\n" in capsys.readouterr().err
    assert not out.exists()


def test_eval_warns_when_the_references_file_lacks_instances(split_dir, references_file, tmp_path, capsys):
    # The scores would cover 2 of the 12 instances, with only error records
    # in the report to tell.
    refs = tmp_path / "refs.jsonl"
    util.write_jsonl(refs, read_jsonl(references_file)[:2])
    argv = ["eval", "--instances", split_dir, "--heuristic", "quick", "--references"]
    assert run_cli(argv + [refs, "--out", tmp_path / "part"]) == 0
    assert f"warning: 10 of 12 instances have no reference in {refs}\n" in capsys.readouterr().err
    errors = [rec for rec in read_jsonl(tmp_path / "part" / "eval_seed0_manifest.jsonl") if rec["kind"] == "error"]
    assert len(errors) == 10
    assert run_cli(argv + [references_file, "--out", tmp_path / "whole"]) == 0
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "solve", "eval"])
def test_manifest_repeating_an_instance_id_names_it(split_dir, tmp_path, capsys, command):
    # A repeated row would be solved, pooled and scored twice.
    split = shutil.copytree(split_dir, tmp_path / "split")
    manifest = split / "manifest.jsonl"
    records = read_jsonl(manifest)
    util.write_jsonl(manifest, records + records[:1])
    out = tmp_path / "out"
    heuristic = ["--heuristic", "quick"] if command == "eval" else []
    assert run_cli([command, "--instances", split, "--out", out, *heuristic]) == 3
    repeated = f"record {len(records) + 1}: instance id {records[0]['id']!r} is repeated"
    assert f"error: {manifest}: {repeated}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["id", "seed", "domain"])
def test_manifest_record_missing_a_field_names_it(split_dir, tmp_path, capsys, field):
    split = shutil.copytree(split_dir, tmp_path / "split")
    manifest = split / "manifest.jsonl"
    records = read_jsonl(manifest)
    del records[1][field]
    util.write_jsonl(manifest, records)
    assert run_cli(["solve", "--instances", split, "--out", tmp_path / "r.jsonl"]) == 3
    assert f"error: {manifest}: record 2 has no field '{field}'" in capsys.readouterr().err


def test_manifest_record_with_a_bad_value_names_it(split_dir, tmp_path, capsys):
    split = shutil.copytree(split_dir, tmp_path / "split")
    manifest = split / "manifest.jsonl"
    records = read_jsonl(manifest)
    records[1]["domain"] = "tiles"
    util.write_jsonl(manifest, records)
    assert run_cli(["solve", "--instances", split, "--out", tmp_path / "r.jsonl"]) == 3
    assert f"error: {manifest}: record 2: 'tiles' is not a valid Domain\n" in capsys.readouterr().err


def test_pool_record_with_a_bad_value_names_it(pool_file, tmp_path, capsys):
    lines = Path(pool_file).read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["state_key"] = "zz" + record["state_key"]
    bad = tmp_path / "nothex.jsonl"
    bad.write_text("".join(lines[:2]) + json.dumps(record) + "\n" + "".join(lines[3:]))
    assert run_cli(["train", "--pool", bad, "--out", tmp_path / "m.json"]) == 3
    err = capsys.readouterr().err
    assert f"error: {bad}: record 3: non-hexadecimal number found in fromhex() arg at position 0\n" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["train", "sample"])
def test_pool_of_mixed_feature_widths_names_the_first_record_that_differs(pool_file, tmp_path, capsys, command):
    lines = Path(pool_file).read_text().splitlines(keepends=True)
    width = len(json.loads(lines[0])["feature_vector"])
    record = json.loads(lines[3])
    record["feature_vector"] = record["feature_vector"][:5]
    bad = tmp_path / "mixed.jsonl"
    bad.write_text("".join(lines[:3]) + json.dumps(record) + "\n" + "".join(lines[4:]))
    out = tmp_path / "out"
    strategy = ["--strategy", "semdedup", "--budget", "5"] if command == "sample" else []
    assert run_cli([command, "--pool", bad, "--out", out, *strategy]) == 3
    assert f"error: {bad}: record 4 has 5 features, record 1 has {width}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sample"])
def test_pool_record_of_the_wrong_type_names_it(pool_file, tmp_path, capsys, command):
    lines = Path(pool_file).read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    record["state_key"] = 5
    bad = tmp_path / "badtype.jsonl"
    bad.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
    out = tmp_path / "out"
    budget = ["--budget", "5"] if command == "sample" else []
    assert run_cli([command, "--pool", bad, "--out", out, *budget]) == 3
    err = capsys.readouterr().err
    assert f"error: {bad}: record 2: fromhex() argument must be str, not int\n" in err
    assert not out.exists()


def _pool_edit(record, name):
    """One corruption of a valid maze pool record: (the edited record, the
    reason read_pool gives for it)."""
    g, plan_len, quick_h, features = record["g"], record["plan_len"], record["quick_h"], record["feature_vector"]
    other = "initial" if record["section"] == "end" else "end"
    edit, reason = {
        "nan_feature": ({"feature_vector": features[:2] + [math.nan] + features[3:]},
                        "feature_vector[2] is nan, not a finite number"),
        "infinite_feature": ({"feature_vector": features[:-1] + [-math.inf]},
                             f"feature_vector[{len(features) - 1}] is -inf, not a finite number"),
        "negative_d_star": ({"d_star": -1.0},
                            f"d_star -1.0 is not (plan_len - g) - quick_h = {record['d_star']}"),
        "g_past_plan": ({"g": plan_len + 1}, f"g {plan_len + 1} is outside 0 <= g < plan_len {plan_len}"),
        "negative_g": ({"g": -1}, f"g -1 is outside 0 <= g < plan_len {plan_len}"),
        "quick_h_not_feature_0": ({"quick_h": quick_h + 1}, f"quick_h {quick_h + 1} is not feature_vector[0]"),
        "wrong_section": ({"section": other},
                          f"section '{other}' is not '{record['section']}', the section of g {g} in plan_len {plan_len}"),
        "second_domain": ({"domain": "stp"}, "domain stp, record 1 has maze"),
    }[name]
    return {**record, **edit}, reason


_POOL_EDITS = ["nan_feature", "infinite_feature", "negative_d_star", "g_past_plan", "negative_g",
               "quick_h_not_feature_0", "wrong_section", "second_domain", "truncated_line"]


@pytest.mark.parametrize("command", ["train", "sample", "export-prompts"])
@pytest.mark.parametrize("edit", _POOL_EDITS)
def test_pool_record_that_no_solve_writes_names_it(pool_file, tmp_path, capsys, command, edit):
    # Each edit of one seeded record would otherwise train, select or export
    # with exit 0 from an example whose target or features are wrong.
    lines = Path(pool_file).read_text().splitlines(keepends=True)
    number = random.Random(derive_seed(MASTER_SEED, "pool-edit", edit)).randrange(2, len(lines) + 1)
    if edit == "truncated_line":
        line, where = lines[number - 1][:40] + "\n", f":{number}: "
    else:
        record, reason = _pool_edit(json.loads(lines[number - 1]), edit)
        line, where = json.dumps(record) + "\n", f": record {number}: {reason}\n"
    bad = tmp_path / "edited.jsonl"
    bad.write_text("".join(lines[: number - 1]) + line + "".join(lines[number:]))
    out = tmp_path / "out"
    flags = {"sample": ["--strategy", "semdedup", "--budget", "50"]}.get(command, [])
    assert run_cli([command, "--pool", bad, "--out", out, *flags]) == 3
    assert f"error: {bad}{where}" in capsys.readouterr().err
    assert not out.exists()


def test_board_that_does_not_parse_names_its_file(split_dir, tmp_path, capsys):
    split = shutil.copytree(split_dir, tmp_path / "split")
    board = split / f"{read_jsonl(split / 'manifest.jsonl')[3]['id']}.txt"
    lines = board.read_text().split("\n")
    lines[1] = lines[1][:2] + "?" + lines[1][3:]
    board.write_text("\n".join(lines))
    assert run_cli(["solve", "--instances", split, "--out", tmp_path / "r.jsonl"]) == 3
    assert f"error: {board}: unknown glyph '?' (line 2, column 3)" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tile_split_dir(work):
    tiles = [stp.make_instance([1, 0, 2, 3, 4, 5, 6, 7, 8], 3, id="stp-a"),
             stp.make_instance([3, 1, 2, 0, 4, 5, 6, 7, 8], 3, id="stp-b")]
    generation.write_split(tiles, work / "tiles")
    return str(work / "tiles")


def test_eval_rejects_a_model_of_another_domain_before_solving(tile_split_dir, model_file, tmp_path, capsys):
    refs = tmp_path / "r.jsonl"
    argv = ["eval", "--model", model_file, "--instances", tile_split_dir, "--references", refs,
            "--out", tmp_path / "rep"]
    assert run_cli(argv) == 3
    assert "model was trained for maze, not stp" in capsys.readouterr().err
    assert not refs.exists()
    assert not (tmp_path / "rep").exists()


def test_eval_names_a_model_file_missing_its_bias(split_dir, model_file, tmp_path, capsys):
    record = json.loads(Path(model_file).read_text())
    del record["bias"]
    bad = tmp_path / "no_bias.json"
    bad.write_text(json.dumps(record))
    argv = ["eval", "--model", bad, "--instances", split_dir, "--references", tmp_path / "r.jsonl",
            "--out", tmp_path / "rep"]
    assert run_cli(argv) == 3
    assert f"error: {bad}: model field 'bias' is missing" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_solve_rejects_a_model_of_another_domain(tile_split_dir, model_file, tmp_path, capsys):
    out = tmp_path / "runs.jsonl"
    argv = ["solve", "--heuristic", "learned", "--model", model_file, "--instances", tile_split_dir, "--out", out]
    assert run_cli(argv) == 3
    assert "model was trained for maze, not stp" in capsys.readouterr().err
    assert not out.exists()


# The heuristic's options are checked before the split is read, so the
# missing --instances folder below is never opened.
@pytest.mark.parametrize("flags, error", [
    (["--model", "m.json"], "--heuristic quick does not read --model"),
    (["--heuristic", "zero", "--model", "m.json"], "--heuristic zero does not read --model"),
    (["--heuristic", "learned"], "--heuristic learned needs --model"),
])
def test_solve_refuses_a_model_unless_learned(tmp_path, capsys, flags, error):
    out = tmp_path / "runs.jsonl"
    assert run_cli(["solve", "--instances", tmp_path / "no_split", "--out", out] + flags) == 2
    assert f"usage error: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, error", [
    (["--heuristic", "quick", "--model", "m.json"], "--heuristic quick does not read --model"),
    (["--heuristic", "zero", "--no-residual-floor"], "--heuristic zero does not read --no-residual-floor"),
    (["--heuristic", "quick", "--model", "m.json", "--no-residual-floor", "--round-predictions"],
     "--heuristic quick does not read --model, --no-residual-floor, --round-predictions"),
    (["--round-predictions"], "--heuristic learned needs --model"),
])
def test_eval_refuses_learned_options_unless_learned(tmp_path, capsys, flags, error):
    # Unread, --model would still change the report's config_hash.
    refs, out = tmp_path / "r.jsonl", tmp_path / "rep"
    argv = ["eval", "--instances", tmp_path / "no_split", "--references", refs, "--out", out] + flags
    assert run_cli(argv) == 2
    assert f"usage error: {error}" in capsys.readouterr().err
    assert not refs.exists() and not out.exists()


def test_sample_section_split_needs_section(pool_file, tmp_path, capsys):
    code = run_cli(["sample", "--pool", pool_file, "--out", str(tmp_path / "s.jsonl"),
                    "--strategy", "section_split", "--budget", "9"])
    assert code == 2
    assert "usage error: --strategy section_split needs --section" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--strategy", "semdedup"], "--strategy semdedup needs --budget"),
    (["--strategy", "section_split", "--budget", "5"], "--strategy section_split needs --section"),
    (["--strategy", "section_split"], "--strategy section_split needs --section and --budget"),
    (["--strategy", "uniform"], "--strategy uniform needs --budget or --per-problem-m"),
    (["--strategy", "planner_aware", "--tau", "2"], "--strategy planner_aware needs --budget or --per-problem-m"),
    (["--strategy", "section_split", "--budget", "5", "--section", "foo"],
     "--section must be all, initial, middle, end or ~<section>, got foo"),
], ids=["semdedup", "section_split-no-section", "section_split-neither", "uniform", "planner_aware", "bad-section"])
def test_sample_names_a_missing_or_bad_option_before_reading_the_pool(tmp_path, capsys, monkeypatch, flags, message):
    def unread(path):
        raise AssertionError("the pool is read only once the options are complete")

    monkeypatch.setattr(pipeline, "read_pool", unread)
    out = tmp_path / "s.jsonl"
    assert run_cli(["sample", "--pool", tmp_path / "missing.jsonl", "--out", out, *flags]) == 2
    assert f"usage error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_sample_section_shortfall_is_a_runtime_failure(pool_file, tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    argv = ["sample", "--pool", pool_file, "--out", out, "--strategy", "section_split", "--section", "end"]
    assert run_cli(argv + ["--budget", "100000"]) == 3
    assert re.search(r"error: section 'end' holds \d+ examples, \d+ short of 100000", capsys.readouterr().err)
    assert not out.exists()


def test_every_needed_sample_field_is_one_the_strategy_reads():
    for strategy, groups in pipeline.NEEDS.items():
        assert {field for group in groups for field in group} <= pipeline.READS[strategy], strategy
    assert set(pipeline.NEEDS) == set(pipeline.Strategy)


def test_every_sample_option_sets_a_field_some_strategy_reads():
    # Each option's dest is the SamplingSpec field it sets.
    cli.build_parser()
    own = {"help", "config", "seed", "jobs", "pool", "out", "strategy"}
    options = [a.dest for a in cli._SUBPARSERS["sample"]._actions if a.dest not in own]
    read = set().union(*pipeline.READS.values())
    assert sorted(options) == sorted(read)
    assert read <= {f.name for f in dataclasses.fields(pipeline.SamplingSpec)}


@pytest.mark.parametrize("flags, named", [
    (["--strategy", "uniform", "--section", "end"], ["--section"]),
    (["--tau", "1.0"], ["--tau"]),  # presence is refused, even at the spec's default
    (["--strategy", "semdedup", "--per-problem-m", "3", "--c-variant", "ratio"], ["--c-variant", "--per-problem-m"]),
    (["--strategy", "section_split", "--section", "end", "--clusters", "2", "--threshold", "0.5"],
     ["--clusters", "--threshold"]),
    (["--per-problem-m", "2"], ["--budget", "--per-problem-m"]),  # the budget would silently win
])
def test_sample_refuses_options_its_strategy_ignores(tmp_path, capsys, flags, named):
    # Refused before the pool is read: this one does not exist.
    out = tmp_path / "s.jsonl"
    assert run_cli(["sample", "--pool", tmp_path / "missing.jsonl", "--out", out, "--budget", "9", *flags]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in named), err
    assert not out.exists()


def test_sample_config_option_the_strategy_ignores_exits_2(pool_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[sample]\nstrategy = uniform\ntau = 2.0\nbudget = 7\n")
    out = tmp_path / "s.jsonl"
    assert run_cli(["sample", "--config", cfg, "--pool", pool_file, "--out", out]) == 2
    assert "--tau" in capsys.readouterr().err
    assert not out.exists()


def test_combined_honours_threshold_and_clusters(pool_file, tmp_path):
    def select(*flags):
        out = tmp_path / f"{'_'.join(flags)}.jsonl"
        assert run_cli(["sample", "--pool", pool_file, "--out", out, "--strategy", "combined",
                        "--budget", "60", "--seed", "1", *flags]) == 0
        return out.read_bytes()

    default = select()
    assert select("--threshold", "0.95") == default
    assert select("--threshold", "0.3") != default
    assert select("--clusters", "4") != default


@pytest.mark.parametrize("k", ["0", "-3"])
def test_train_refuses_a_k_below_one(pool_file, tmp_path, capsys, k):
    out = tmp_path / "m.json"
    assert run_cli(["train", "--pool", pool_file, "--out", out, "--k", k]) == 2
    assert f"usage error: --k must be positive, got {k}" in capsys.readouterr().err
    assert not out.exists()


def test_train_prints_fit_quality(pool_file, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_cli(["train", "--pool", pool_file, "--out", out, "--seed", "5"]) == 0
    assert "knn: train MAE" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["format"] == "heurlab-model"


def test_eval_writes_report_and_reuses_references(split_dir, model_file, tmp_path, capsys):
    out = tmp_path / "report"
    refs = tmp_path / "refs.jsonl"
    argv = ["eval", "--instances", split_dir, "--out", out, "--name", "cli",
            "--model", model_file, "--references", refs, "--seed", "0"]
    assert run_cli(argv) == 0
    for suffix in ("results.csv", "summary.csv", "manifest.jsonl"):
        assert (out / f"cli_seed0_{suffix}").exists()
    assert (out / "cli_aggregate.csv").exists()
    assert len(read_jsonl(refs)) == 12
    assert "cli: ILR-solved" in capsys.readouterr().out

    with open(out / "cli_seed0_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))[0]
    assert float(summary["optimal_pct"]) > 0.0

    # second run loads the saved references instead of re-solving
    before = refs.read_bytes()
    assert run_cli(argv) == 0
    assert refs.read_bytes() == before


def test_eval_reports_instances_without_a_reference(split_dir, references_file, tmp_path, capsys):
    # Under an iteration cap some reference solves fail: eval warns, saves
    # the references it has, and reports the rest as error records.
    closed = {rec["instance_id"]: rec["closed_length"] for rec in read_jsonl(references_file)}
    cap = sorted(closed.values())[6]
    unsolved = sorted(iid for iid, n in closed.items() if n > cap)  # the goal test comes before the cap
    assert 0 < len(unsolved) < 12
    out, refs = tmp_path / "rep", tmp_path / "refs.jsonl"
    argv = ["eval", "--instances", split_dir, "--out", out, "--heuristic", "quick", "--references", refs,
            "--max-iterations", cap]
    assert run_cli(argv) == 0
    assert f"warning: {len(unsolved)} instances had no reference solve\n" in capsys.readouterr().err
    assert sorted(rec["instance_id"] for rec in read_jsonl(refs)) == sorted(set(closed) - set(unsolved))
    errors = [rec for rec in read_jsonl(out / "eval_seed0_manifest.jsonl") if rec["kind"] == "error"]
    assert errors == [{"kind": "error", "instance_id": iid, "error": "missing_reference"} for iid in unsolved]


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_eval_refuses_no_timing_repeats(split_dir, model_file, tmp_path, capsys, repeats):
    out = tmp_path / "report"
    argv = ["eval", "--instances", split_dir, "--out", out, "--model", model_file, "--eval-seeds", repeats]
    assert run_cli(argv) == 2
    assert f"usage error: --eval-seeds must be positive, got {repeats}" in capsys.readouterr().err
    assert not out.exists()


def test_export_prompts_matches_pool(pool_file, tmp_path, capsys):
    out = tmp_path / "prompts.jsonl"
    assert run_cli(["export-prompts", "--pool", pool_file, "--out", out, "--seed", "1"]) == 0
    pool = pipeline.read_pool(pool_file)
    records = read_jsonl(out)
    assert len(records) == len(pool)
    assert f"{len(pool)} prompt records" in capsys.readouterr().out
    first = records[0]
    assert first["prompt"].startswith("import torch")
    assert 'puzzle_str = "' in first["prompt"]
    assert first["prompt"].endswith(f"get_improved_heuristic({int(pool[0].quick_h)},")
    assert first["target"] == pool[0].d_star
    assert first["instance_id"] == pool[0].instance_id


def _limit_argv(command, split_dir, model_file, out):
    return {
        "solve": ["solve", "--instances", split_dir, "--out", out],
        "oracle-study": ["oracle-study", "--instances", split_dir, "--out", out],
        "extract": ["extract", "--instances", split_dir, "--out", out],
        "eval": ["eval", "--instances", split_dir, "--out", out, "--model", model_file],
        "pipeline": ["pipeline", "--workdir", out, "--scale", "0.01", "--strategies", "uniform"],
    }[command]


@pytest.mark.parametrize("command", ["solve", "oracle-study", "extract", "eval", "pipeline"])
def test_search_limits_are_usage_errors_naming_their_flag(split_dir, model_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = _limit_argv(command, split_dir, model_file, out)
    for flag, value, reason in [("--max-iterations", "-1", "must be nonnegative")]:
        assert run_cli(argv + [flag, value]) == 2, (flag, value)
        assert f"usage error: {flag} {reason}, got {value}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "oracle-study", "extract", "eval", "pipeline"])
def test_no_command_takes_a_wall_time_limit(split_dir, model_file, tmp_path, capsys, command):
    # A search's outcome follows from its inputs alone, so no command lets
    # the clock stop one: not as a flag, nor as a config key.
    out = tmp_path / "out"
    argv = _limit_argv(command, split_dir, model_file, out)
    assert run_cli(argv + ["--max-wall-time", "5"]) == 2
    assert "unrecognized arguments: --max-wall-time 5" in capsys.readouterr().err
    config = _write_config(tmp_path / "cfg.ini", f"[{command}]\nmax_wall_time = 5\n")
    assert run_cli(argv + ["--config", config]) == 2
    assert f"usage error: config key 'max_wall_time' is not an option of '{command}'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# oracle-study

def test_oracle_study_table_and_assert_flag(split_dir, tmp_path, capsys):
    out = tmp_path / "study"
    argv = ["oracle-study", "--instances", split_dir, "--out", out,
            "--sigmas", "4.0", "--noise-seeds", "1", "--seed", "2"]
    assert run_cli(argv) == 0
    stdout = capsys.readouterr().out
    assert "ILR-solved" in stdout
    assert (out / "oracle_table.csv").exists()
    with open(out / "oracle_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["set"] for r in rows] == ["all", "initial", "middle", "end"]
    assert rows[0]["sigma"] == ""

    # an unachievable margin trips the ordering assertion
    assert run_cli(argv + ["--assert-ordering", "--margin", "99", "--out", tmp_path / "s2"]) == 1
    assert "ordering violated" in capsys.readouterr().err


@pytest.mark.parametrize("sigmas, error", [
    *[pytest.param(f"2.0,{sigma}", f"--sigmas must be finite and nonnegative, got {float(sigma)}", id=sigma)
      for sigma in ("-1", "nan", "inf")],
    # No sigma leaves the ordering nothing to compare; a repeated one would write its rows twice.
    pytest.param("", "--sigmas names nothing", id="empty"),
    pytest.param(" , ", "--sigmas names nothing", id="blank"),
    pytest.param("2,2", "--sigmas names [2.0] more than once", id="repeated"),
    pytest.param("4,2.0,4.0,2,6", "--sigmas names [4.0, 2.0] more than once", id="two-repeated"),
])
def test_oracle_study_refuses_a_bad_sigma_before_solving(split_dir, tmp_path, capsys, monkeypatch, sigmas, error):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --sigmas")

    monkeypatch.setattr(evaluation, "compute_references", no_solve)
    out = tmp_path / "study"
    # The iteration cap makes a regression fail rather than run away.
    argv = ["oracle-study", "--instances", split_dir, "--out", out, f"--sigmas={sigmas}", "--noise-seeds", "1",
            "--max-iterations", "50", "--assert-ordering"]
    assert run_cli(argv) == 2
    assert f"usage error: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_oracle_study_refuses_no_noise_seeds(split_dir, tmp_path, capsys, repeats):
    out = tmp_path / "study"
    argv = ["oracle-study", "--instances", split_dir, "--out", out, "--sigmas", "4.0", "--noise-seeds", repeats]
    assert run_cli(argv) == 2
    assert f"usage error: --noise-seeds must be positive, got {repeats}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ablation flags reach the library parameter they set

def _spy(monkeypatch, owner, name):
    """The arguments, defaults filled in, of every call to ``owner.name``; each call still runs."""
    calls = []
    original = getattr(owner, name)
    signature = inspect.signature(original)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("flags, tie_break", [
    ([], TieBreak.LARGER_G), (["--tie-break", "smaller_g"], TieBreak.SMALLER_G),
])
def test_solve_tie_break_reaches_every_search(split_dir, tmp_path, monkeypatch, flags, tie_break):
    searches = _spy(monkeypatch, evaluation, "astar")
    assert run_cli(["solve", "--instances", split_dir, "--out", tmp_path / "r.jsonl"] + flags) == 0
    assert len(searches) == 12
    assert all(call["tie_break"] is tie_break for call in searches)


@pytest.mark.parametrize("flags, tie_break, floor_at_zero, round_predictions", [
    ([], TieBreak.LARGER_G, True, False),
    (["--tie-break", "smaller_g"], TieBreak.SMALLER_G, True, False),
    (["--no-residual-floor"], TieBreak.LARGER_G, False, False),
    (["--round-predictions"], TieBreak.LARGER_G, True, True),
])
def test_eval_ablation_flags_reach_the_learned_heuristic_and_its_searches(
        split_dir, model_file, tmp_path, monkeypatch, flags, tie_break, floor_at_zero, round_predictions):
    solves = _spy(monkeypatch, evaluation, "solve_all")
    learned_searches = _spy(monkeypatch, evaluation, "astar_steps")  # the references are quick astar solves
    argv = ["eval", "--instances", split_dir, "--out", tmp_path / "rep", "--model", model_file]
    assert run_cli(argv + flags) == 0
    learned = [call["evaluator"] for call in solves if isinstance(call["evaluator"], models.LearnedHeuristic)]
    assert len(learned) == 1
    assert (learned[0].floor_at_zero, learned[0].round_predictions) == (floor_at_zero, round_predictions)
    assert len(learned_searches) == 12
    assert all(call["tie_break"] is tie_break for call in learned_searches)


@pytest.mark.parametrize("flags, clamp_at_zero", [([], True), (["--no-clamp"], False)])
def test_oracle_study_noise_flags_reach_every_noise_spec(split_dir, tmp_path, monkeypatch, flags, clamp_at_zero):
    specs = _spy(monkeypatch, oracle, "NoiseSpec")
    argv = ["oracle-study", "--instances", split_dir, "--out", tmp_path / "o", "--sigmas", "2", "--noise-seeds", "1"]
    assert run_cli(argv + flags) == 0
    noisy = [spec for spec in specs if spec["sigma"] > 0]
    assert len(noisy) == 3  # one per section
    assert all(spec["clamp_at_zero"] == clamp_at_zero for spec in noisy)


@pytest.mark.parametrize("kind", ["knn", "linear"])
def test_train_model_kind_reaches_the_model_file(pool_file, tmp_path, kind):
    out = tmp_path / "model.json"
    assert run_cli(["train", "--pool", pool_file, "--out", out, "--model-kind", kind]) == 0
    assert json.loads(out.read_text())["kind"] == kind
    assert models.load_model(out).kind is models.ModelKind(kind)


# ---------------------------------------------------------------------------
# config file and environment seed

def _write_config(path, text):
    path.write_text(text)
    return str(path)


def test_config_supplies_defaults_flags_override(pool_file, tmp_path):
    cfg = _write_config(tmp_path / "cfg.ini", (
        "[common]\n"
        "seed = 42\n"
        "[sample]\n"
        "strategy = planner_aware\n"
        "tau = 2.0\n"
        "budget = 7\n"
    ))
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert run_cli(["sample", "--config", cfg, "--pool", pool_file, "--out", a]) == 0
    assert run_cli(["sample", "--pool", pool_file, "--out", b, "--strategy", "planner_aware",
                    "--tau", "2.0", "--budget", "7", "--seed", "42"]) == 0
    assert a.read_bytes() == b.read_bytes()

    # an explicit flag beats the config value
    assert run_cli(["sample", "--config", cfg, "--pool", pool_file, "--out", c,
                    "--budget", "5"]) == 0
    assert len(pipeline.read_pool(c)) == 5


def test_config_given_with_an_equals_sign_is_read(pool_file, tmp_path):
    cfg = _write_config(tmp_path / "cfg.ini", "[sample]\nbudget = 7\n")
    out = tmp_path / "a.jsonl"
    assert run_cli(["sample", f"--config={cfg}", "--pool", pool_file, "--out", out]) == 0
    assert len(pipeline.read_pool(out)) == 7


def test_config_file_that_does_not_exist_exits_2(pool_file, tmp_path, capsys):
    missing, out = tmp_path / "missing.ini", tmp_path / "a.jsonl"
    assert run_cli(["sample", "--config", missing, "--pool", pool_file, "--out", out]) == 2
    assert f"usage error: config file {str(missing)!r} not found\n" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_unknown_keys(pool_file, tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.ini", "[sample]\nnonsense = 1\n")
    code = run_cli(["sample", "--config", cfg, "--pool", pool_file,
                    "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


def test_config_values_are_taken_literally(tmp_path, capsys):
    # A '%' is not interpolation syntax: the value reaches its option's own check.
    cfg = _write_config(tmp_path / "cfg.ini", "[generate]\nsplits = 5%\n")
    assert run_cli(["generate", "--config", cfg, "--out", tmp_path / "g"]) == 2
    assert "usage error: unknown splits ['5%']" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_config_boolean_flags(tmp_path):
    cli.build_parser()
    good = _write_config(tmp_path / "good.ini", "[generate]\nforce = yes\n")
    assert "--force" in cli._config_tokens(good, "generate")
    off = _write_config(tmp_path / "off.ini", "[generate]\nforce = 0\n")
    assert "--force" not in cli._config_tokens(off, "generate")
    bad = _write_config(tmp_path / "bad.ini", "[generate]\nforce = maybe\n")
    with pytest.raises(cli.UsageError):
        cli._config_tokens(bad, "generate")


def test_env_seed_fallback(pool_file, tmp_path, monkeypatch):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    monkeypatch.setenv("HEURLAB_SEED", "17")
    assert run_cli(["sample", "--pool", pool_file, "--out", a,
                    "--strategy", "planner_aware", "--budget", "8"]) == 0
    monkeypatch.delenv("HEURLAB_SEED")
    assert run_cli(["sample", "--pool", pool_file, "--out", b, "--seed", "17",
                    "--strategy", "planner_aware", "--budget", "8"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_explicit_seed_overrides_a_bad_env_seed(pool_file, tmp_path, monkeypatch):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["sample", "--pool", pool_file, "--strategy", "planner_aware", "--budget", "8", "--seed", "17"]
    monkeypatch.setenv("HEURLAB_SEED", "lucky")
    assert run_cli(argv + ["--out", a]) == 0
    monkeypatch.delenv("HEURLAB_SEED")
    assert run_cli(argv + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_must_be_an_integer(pool_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEURLAB_SEED", "lucky")
    code = run_cli(["sample", "--pool", pool_file, "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "HEURLAB_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline

def _benchmark_workloads():
    # The benchmark parses these markers; load its own list of them.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _stage_markers(out):
    return re.findall(r"^\[(.+)\] (running|up to date)$", out, flags=re.M)


def test_pipeline_builds_resumes_and_guards_config(tmp_path, capsys):
    wd = tmp_path / "wd"
    argv = ["pipeline", "--workdir", wd, "--scale", "0.01",
            "--strategies", "uniform", "--seed", "7"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert _stage_markers(first) == _benchmark_workloads().pipeline_markers(("uniform",))
    assert "comparison (maze, scale 0.01" in first

    assert (wd / "comparison.csv").exists()
    assert (wd / "models" / "uniform.json").exists()
    assert (wd / "selections" / "uniform.jsonl").exists()
    with open(wd / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["strategy"] for r in rows] == ["uniform"]
    for tag in ("iid", "ood"):
        for col in ("ilr_on_solved", "ilr_on_optimal", "swc", "optimal_pct"):
            assert rows[0][f"{tag}_{col}"] != ""

    # a second run reuses every stage
    before = (wd / "comparison.csv").read_bytes()
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert "resuming: configuration matches" in second
    assert _stage_markers(second) == [(label, "up to date") for label, _ in _stage_markers(first)]
    assert (wd / "comparison.csv").read_bytes() == before

    # changed settings must not silently mix with saved artifacts
    assert run_cli(argv + ["--budget", "999"]) == 3
    assert "different configuration" in capsys.readouterr().err


def test_pipeline_skips_the_evals_its_models_cannot_score(tmp_path, capsys):
    # Sliding-tile test_ood boards are wider than the training boards: each
    # such eval is a skip row naming the reason, and the comparison leaves
    # its ood cells empty. The benchmark's sliding-tile pipeline takes this path.
    wd = tmp_path / "wd"
    assert run_cli(["pipeline", "--workdir", wd, "--domain", "stp", "--scale", "0.01", "--strategies", "uniform"]) == 0
    reason = "feature dimensionality differs from training"
    assert f"  uniform_test_ood: skipped ({reason})\n" in capsys.readouterr().err
    summary = wd / "eval" / "uniform_test_ood_summary.csv"
    assert evaluation.read_rows_csv(summary) == [{"strategy": "uniform", "split": "test_ood", "skipped": reason}]
    assert sorted(p.name for p in summary.parent.glob("uniform_test_ood_*")) == [summary.name]
    [row] = evaluation.read_rows_csv(wd / "comparison.csv")
    for col in evaluation.HEADLINE_METRICS:
        assert row[f"iid_{col}"] != ""
        assert row[f"ood_{col}"] == ""


def test_pipeline_leaves_out_the_instances_a_capped_search_does_not_solve(tmp_path, capsys):
    # The references stage lists the unsolved instances of each eval split,
    # the pool skips the unsolved train instances, and each eval reports
    # its split's unsolved instances as error records.
    wd = tmp_path / "wd"
    argv = ["pipeline", "--workdir", wd, "--scale", "0.01", "--strategies", "uniform", "--seed", "3",
            "--max-iterations", "150"]
    assert run_cli(argv) == 0
    err = capsys.readouterr().err
    assert "  pool: 4 unsolved train instances skipped\n" in err
    pooled = {ex.instance_id for ex in pipeline.read_pool(wd / "pool.jsonl")}
    assert len(pooled) == len(generation.read_split(wd / "instances" / "train")) - 4
    for split, n in (("test_iid", 2), ("test_ood", 3)):
        assert f"  {split}: {n} instances had no reference solve; excluded\n" in err
        unsolved = [rec["instance_id"] for rec in read_jsonl(wd / "references" / f"{split}_unsolved.jsonl")]
        solved = [rec["instance_id"] for rec in read_jsonl(wd / "references" / f"{split}.jsonl")]
        assert len(unsolved) == n
        assert sorted(unsolved + solved) == [inst.id for inst in generation.read_split(wd / "instances" / split)]
        manifest = read_jsonl(wd / "eval" / f"uniform_{split}_manifest.jsonl")
        errors = [rec for rec in manifest if rec["kind"] == "error"]
        assert errors == [{"kind": "error", "instance_id": iid, "error": "missing_reference"} for iid in unsolved]


def test_pipeline_leaves_a_split_without_references_unscored(tmp_path, capsys):
    # At this cap no test_ood maze gets a reference solve, so that split has
    # nothing to score: its comparison cells stay empty, as for a skipped
    # eval, and do not read 0, the score of a model that solves nothing.
    wd = tmp_path / "wd"
    argv = ["pipeline", "--workdir", wd, "--domain", "maze", "--scale", "0.01", "--strategies", "uniform",
            "--max-iterations", "150", "--seed", "0"]
    assert run_cli(argv) == 0
    n_ood = len(generation.read_split(wd / "instances" / "test_ood"))
    assert f"  test_ood: {n_ood} instances had no reference solve; excluded\n" in capsys.readouterr().err
    [summary] = evaluation.read_rows_csv(wd / "eval" / "uniform_test_ood_summary.csv")
    assert summary["n_total"] == "0"
    [row] = evaluation.read_rows_csv(wd / "comparison.csv")
    for col in evaluation.HEADLINE_METRICS:
        assert row[f"iid_{col}"] != ""
        assert row[f"ood_{col}"] == ""


@pytest.mark.parametrize("flag, value", [
    ("--budget", "-5"), ("--budget", "0"), ("--tau", "0"), ("--tau", "nan"),
    ("--combined-tau", "-1.5"), ("--k", "0"),
])
def test_pipeline_refuses_a_bad_config_before_writing_it(tmp_path, capsys, flag, value):
    wd = tmp_path / "wd"
    argv = ["pipeline", "--workdir", wd, "--scale", "0.01", "--strategies", "uniform", flag, value]
    assert run_cli(argv) == 2
    assert f"usage error: {flag} must be positive" in capsys.readouterr().err
    assert not (wd / "config.json").exists()


def test_pipeline_refuses_a_bad_search_limit_before_writing_config(tmp_path, capsys):
    wd = tmp_path / "wd"
    argv = ["pipeline", "--workdir", wd, "--scale", "0.01", "--strategies", "uniform", "--max-iterations", "-1"]
    assert run_cli(argv) == 2
    assert "usage error: --max-iterations must be nonnegative, got -1" in capsys.readouterr().err
    assert not (wd / "config.json").exists()


def test_pipeline_config_bytes_are_unchanged(tmp_path):
    # A valid configuration is written as before the checks were added.
    args = cli.build_parser().parse_args(["pipeline", "--workdir", str(tmp_path), "--seed", "7", "--tau", "1.5"])
    cfg = cli._pipeline_config(args, Domain.MAZE)
    assert json.dumps(cfg) == (
        '{"domain": "maze", "scale": 0.1, "seed": 7, "strategies": ["full_data", "uniform", "planner_aware", '
        '"semdedup", "semdedup_planner"], "budget": 12000, "tau": 1.5, "combined_tau": 2.0, "model_kind": "knn", '
        '"k": 8, "max_iterations": null, "max_wall_time": null}'
    )


@pytest.mark.parametrize("domain, budget, tau, combined_tau", [
    (Domain.MAZE, 12000, 2.0, 2.0), (Domain.SOKOBAN, 8000, 0.8, 5.0), (Domain.STP, 8000, 5.0, 5.0),
])
def test_pipeline_domain_defaults(tmp_path, domain, budget, tau, combined_tau):
    levels = tmp_path / "levels.txt"
    levels.write_text("read, never parsed\n")
    argv = ["pipeline", "--workdir", str(tmp_path), "--domain", domain.value, "--boxoban", str(levels)]
    cfg = cli._pipeline_config(cli.build_parser().parse_args(argv), domain)
    assert list(cfg)[4:7] == ["budget", "tau", "combined_tau"]
    assert (cfg["budget"], cfg["tau"], cfg["combined_tau"]) == (budget, tau, combined_tau)
    assert ("boxoban" in cfg) == (domain is Domain.SOKOBAN)


@pytest.mark.parametrize("text, reason", [
    ('{\n  "config": {\n    "dom', "Unterminated string starting at: line 3 column 5"),  # a truncated write
    ("[]\n", "expected a JSON object, got list"),
], ids=["truncated", "list"])
def test_pipeline_names_an_unreadable_config_file(tmp_path, capsys, text, reason):
    wd = tmp_path / "wd"
    wd.mkdir()
    (wd / "config.json").write_text(text)
    assert run_cli(["pipeline", "--workdir", wd, "--scale", "0.01", "--strategies", "uniform"]) == 3
    captured = capsys.readouterr()
    assert f"error: {wd / 'config.json'}: {reason}" in captured.err
    assert _stage_markers(captured.out) == []
    assert sorted(p.name for p in wd.iterdir()) == ["config.json"]


def test_atomic_write_keeps_the_old_file_when_the_writer_fails(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    with atomic_write(path) as fh:
        fh.write("first\n")
    assert path.read_text() == "first\n"
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("sec")
            raise RuntimeError("cut")
    assert path.read_text() == "first\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]


def test_pipeline_resumes_after_a_failed_pool_write(tmp_path, monkeypatch, capsys):
    # A pool write that dies part way must leave no pool.jsonl for the
    # resume to accept; the resumed run then matches an uninterrupted one.
    argv = ["pipeline", "--scale", "0.01", "--strategies", "uniform,planner_aware", "--seed", "7"]
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    assert run_cli(argv + ["--workdir", run_a]) == 0

    real = util.write_jsonl

    def dies_half_way(path, records):
        if Path(path).name != "pool.jsonl":
            return real(path, records)
        records = list(records)

        def cut():
            yield from records[: len(records) // 2]
            raise OSError("no space left on device")

        return real(path, cut())

    monkeypatch.setattr(pipeline, "write_jsonl", dies_half_way)
    assert run_cli(argv + ["--workdir", run_b]) == 3
    assert "no space left on device" in capsys.readouterr().err
    assert not (run_b / "pool.jsonl").exists()
    assert not (run_b / "pool.jsonl.tmp").exists()
    monkeypatch.undo()

    # A killed writer would leave its temp file behind; the resume overwrites it.
    (run_b / "pool.jsonl.tmp").write_text((run_a / "pool.jsonl").read_text()[:500], encoding="utf-8")
    assert run_cli(argv + ["--workdir", run_b]) == 0
    out = capsys.readouterr().out
    assert "resuming: configuration matches" in out
    assert "[instances/train] up to date" in out
    assert "[pool] running" in out
    _assert_same_workdir(run_a, run_b)


def _assert_same_workdir(run_a, run_b):
    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert _normalized(run_a / rel) == _normalized(run_b / rel), rel
        board_file = rel.parts[0] == "instances" and rel.suffix == ".txt"
        if board_file or rel.parts[0] in ("selections", "models") or rel.name in ("pool.jsonl", "comparison.csv"):
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel


def test_pipeline_resumes_after_a_failed_model_write(tmp_path, monkeypatch, capsys):
    # A model write that dies half way leaves neither the model file nor its
    # temp file; the resumed run then matches an uninterrupted one.
    argv = ["pipeline", "--scale", "0.01", "--strategies", "uniform,planner_aware", "--seed", "7"]
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    assert run_cli(argv + ["--workdir", run_a]) == 0

    real = models.atomic_write
    partial = []

    class HalfWriter:
        def __init__(self, fh, tmp):
            self.fh, self.tmp = fh, tmp

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            partial.append(self.tmp.stat().st_size)
            raise OSError("no space left on device")

    @contextlib.contextmanager
    def dies_half_way(path):
        with real(path) as fh:
            path = Path(path)
            yield HalfWriter(fh, path.with_name(path.name + ".tmp")) if path.parent.name == "models" else fh

    monkeypatch.setattr(models, "atomic_write", dies_half_way)
    assert run_cli(argv + ["--workdir", run_b]) == 3
    assert "no space left on device" in capsys.readouterr().err
    assert len(partial) == 1 and partial[0] > 0
    assert (run_b / "selections" / "uniform.jsonl").exists()
    assert sorted((run_b / "models").iterdir()) == []
    monkeypatch.undo()

    assert run_cli(argv + ["--workdir", run_b]) == 0
    out = capsys.readouterr().out
    assert "resuming: configuration matches" in out
    assert "[selections/uniform] up to date" in out
    assert "[models/uniform] running" in out
    _assert_same_workdir(run_a, run_b)
