"""Command outputs against digests recorded before the latest refactors.

Boards, pools, selections, models, the comparison table and the oracle
study's table must stay byte-identical when the code is restructured.
Criterion 11 compares two runs of the same code; this test compares one run
of each recorded command with the ``tree_digest`` that ``perfbench/digest.py``
gave for the same arguments when the digest was recorded, timing fields
excluded, and with the digest of each file (``sha256`` of ``normalized``), so
that a mismatch names the files that differ. It imports the digest module and
edits nothing under ``perfbench/``.

Each entry of ``golden_digests.json`` holds a command line without its
output option: a ``pipeline`` writes to ``--workdir``, and an ``oracle-study``
reads ``--instances`` from a split of another entry's workdir (its
``instances`` pair) and writes to ``--out``.

The digest also depends on the interpreter and numpy (float summation and
BLAS rounding), so ``golden_digests.json`` records both versions, and a
mismatch names the recorded environment and this one.

    PYTHONPATH=src python tests/test_golden_digests.py --record

prints the whole file: the argv of every entry, with the digests that the
running code gives. A new entry is recorded at the commit before the change
it is to guard; the maze oracle-study and sliding-tile entries, and the
per-file digests of the maze entry, were recorded that way at the commit
before the one that made every evaluator a pure function of (state,
instance, depth). Re-record only in a change that is meant to change the
outputs, with that change's code.
"""

import contextlib
import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from heurlab import cli, generation, pipeline
from heurlab.util import derive_seed

DIGEST = Path(__file__).resolve().parents[1] / "perfbench" / "digest.py"
GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json").read_text(encoding="utf-8"))


def _load_digest():
    spec = importlib.util.spec_from_file_location("perfbench_digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_all(root: Path) -> dict[str, Path]:
    """Run every entry's command, in file order, with its output at
    ``root/<name>``, so that an oracle study finds the workdir it reads."""
    outs = {}
    for name, entry in GOLDEN["workdirs"].items():
        out = outs[name] = root / name
        if entry["argv"][0] == "pipeline":
            extra = ["--workdir", str(out)]
        else:
            source, split = entry["instances"]
            extra = ["--instances", str(outs[source] / split), "--out", str(out)]
        code = cli.main(entry["argv"] + extra)
        assert code == cli.EXIT_OK, f"{name}: exit {code}"
    return outs


def file_digests(root: Path) -> dict[str, str]:
    """Each file's ``sha256(normalized(path))``, keyed by its path under ``root``."""
    normalized = _load_digest().normalized
    return {path.relative_to(root).as_posix(): hashlib.sha256(normalized(path)).hexdigest()
            for path in sorted(p for p in root.rglob("*") if p.is_file())}


def record() -> dict:
    """``golden_digests.json`` with every entry's digests as this code gives them."""
    tree_digest = _load_digest().tree_digest
    entries = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        for name, out in run_all(Path(tmp)).items():
            kept = {k: v for k, v in GOLDEN["workdirs"][name].items() if k not in ("tree_digest", "files")}
            entries[name] = {**kept, "tree_digest": tree_digest(out), "files": file_digests(out)}
    return {"environment": {"python": platform.python_version(), "numpy": np.__version__}, "workdirs": entries}


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


def _check(workdirs, name):
    want = GOLDEN["workdirs"][name]
    got = _load_digest().tree_digest(workdirs[name])
    if got == want["tree_digest"]:
        return
    files = file_digests(workdirs[name])
    differ = sorted(p for p in files.keys() | want["files"].keys() if files.get(p) != want["files"].get(p))
    recorded = GOLDEN["environment"]
    here = {"python": platform.python_version(), "numpy": np.__version__}
    pytest.fail(
        f"{name} digest {got}, recorded {want['tree_digest']}; files that differ: {differ}; "
        f"recorded under Python {recorded['python']} and numpy {recorded['numpy']}, "
        f"this run under Python {here['python']} and numpy {here['numpy']}"
    )


def test_maze_pipeline_matches_its_golden_digest(workdirs):
    _check(workdirs, "maze")


def test_maze_oracle_study_matches_its_golden_digest(workdirs):
    # The only recorded output of the noisy oracle: its deviates reach the
    # table through every noised search.
    _check(workdirs, "maze_oracle_study")


def test_stp_pipeline_matches_its_golden_digest(workdirs):
    _check(workdirs, "stp")


def test_a_selection_ignores_the_order_of_the_pool_records(workdirs, tmp_path):
    # The pipeline's pool lists each instance's path in depth order, so it
    # never shows whether selection depends on that order; the same pool read
    # backwards must select the same examples, in the same order.
    workdir = workdirs["maze"]
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))["config"]
    pool = pipeline.read_pool(workdir / "pool.jsonl")
    strategy, tau_key = cli.PIPELINE_ROWS["planner_aware"]
    spec = pipeline.SamplingSpec(strategy, total_budget=generation.scaled_count(cfg["budget"], cfg["scale"]),
                                 seed=derive_seed(cfg["seed"], "sample", "planner_aware"), tau=cfg[tau_key])
    out = tmp_path / "planner_aware.jsonl"
    pipeline.write_pool(pipeline.run_strategy(pool[::-1], spec), out)
    assert out.read_bytes() == (workdir / "selections" / "planner_aware.jsonl").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_digests.py --record")
    print(json.dumps(record(), indent=2))
