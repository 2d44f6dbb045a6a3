"""Command-line surface: exit codes, config merging, and artifact layout.

Everything drives ``cli.main`` in-process.  argparse reports its own usage
failures by raising SystemExit(2), which main() deliberately lets escape, so
the helper below normalizes both styles to a plain return code.
"""

import csv
import json
from pathlib import Path

import pytest

from heurlab import cli, generation, pipeline
from heurlab.util import read_jsonl


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


def test_argparse_failures_exit_2():
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["solve"]) == 2
    assert run_cli(["sample", "--pool", "p", "--out", "o", "--strategy", "psychic"]) == 2


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


def test_sample_section_split_needs_section(pool_file, tmp_path, capsys):
    code = run_cli(["sample", "--pool", pool_file, "--out", str(tmp_path / "s.jsonl"),
                    "--strategy", "section_split", "--budget", "9"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


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


def test_config_rejects_unknown_keys(pool_file, tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.ini", "[sample]\nnonsense = 1\n")
    code = run_cli(["sample", "--config", cfg, "--pool", pool_file,
                    "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


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


def test_env_seed_must_be_an_integer(pool_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEURLAB_SEED", "lucky")
    code = run_cli(["sample", "--pool", pool_file, "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "HEURLAB_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_builds_resumes_and_guards_config(tmp_path, capsys):
    wd = tmp_path / "wd"
    argv = ["pipeline", "--workdir", wd, "--scale", "0.01",
            "--strategies", "uniform", "--seed", "7"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert "[instances/train] running" in first
    assert "[eval/uniform_test_ood] running" in first
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
    assert "] running" not in second
    assert second.count("up to date") >= 7
    assert (wd / "comparison.csv").read_bytes() == before

    # changed settings must not silently mix with saved artifacts
    assert run_cli(argv + ["--budget", "999"]) == 3
    assert "different configuration" in capsys.readouterr().err
