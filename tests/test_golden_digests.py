"""Pipeline outputs against digests recorded before the latest refactors.

Boards, pools, selections, models and the comparison table must stay
byte-identical when the code is restructured. Criterion 11 compares two runs
of the same code; this test compares one run with the ``tree_digest`` that
``perfbench/digest.py`` gave for the same arguments when the digest was
recorded, timing fields excluded. It imports the digest module and edits
nothing under ``perfbench/``.

The digest also depends on the interpreter and numpy (float summation and
BLAS rounding), so ``golden_digests.json`` records both versions, and a
mismatch names the recorded environment and this one. Re-record a digest
only for a change that is meant to change the outputs.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from heurlab import cli, generation, pipeline
from heurlab.domains import Domain
from heurlab.util import derive_seed

DIGEST = Path(__file__).resolve().parents[1] / "perfbench" / "digest.py"
GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json").read_text(encoding="utf-8"))


def _load_digest():
    spec = importlib.util.spec_from_file_location("perfbench_digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def maze_workdir(tmp_path_factory):
    """The workdir of the recorded maze pipeline run, and its config."""
    workdir = tmp_path_factory.mktemp("golden") / "maze"
    args = cli.build_parser().parse_args(GOLDEN["workdirs"]["maze"]["argv"] + ["--workdir", str(workdir)])
    cfg = cli._pipeline_config(args, Domain.MAZE)
    cli.run_pipeline(workdir, cfg, args.jobs, boards=None)
    return workdir, cfg


def test_maze_pipeline_matches_its_golden_digest(maze_workdir):
    workdir, _ = maze_workdir
    got = _load_digest().tree_digest(workdir)
    want = GOLDEN["workdirs"]["maze"]["tree_digest"]
    recorded = GOLDEN["environment"]
    here = {"python": platform.python_version(), "numpy": np.__version__}
    assert got == want, (
        f"maze workdir digest {got}, recorded {want}; recorded under "
        f"Python {recorded['python']} and numpy {recorded['numpy']}, "
        f"this run under Python {here['python']} and numpy {here['numpy']}"
    )


def test_a_selection_ignores_the_order_of_the_pool_records(maze_workdir, tmp_path):
    # The pipeline's pool lists each instance's path in depth order, so it
    # never shows whether selection depends on that order; the same pool read
    # backwards must select the same examples, in the same order.
    workdir, cfg = maze_workdir
    pool = pipeline.read_pool(workdir / "pool.jsonl")
    strategy, tau_key = cli.PIPELINE_ROWS["planner_aware"]
    spec = pipeline.SamplingSpec(strategy, total_budget=generation.scaled_count(cfg["budget"], cfg["scale"]),
                                 seed=derive_seed(cfg["seed"], "sample", "planner_aware"), tau=cfg[tau_key])
    out = tmp_path / "planner_aware.jsonl"
    pipeline.write_pool(pipeline.run_strategy(pool[::-1], spec), out)
    assert out.read_bytes() == (workdir / "selections" / "planner_aware.jsonl").read_bytes()
