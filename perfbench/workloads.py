"""The benchmark workloads: how each prepares its inputs from the seed, which
``heurlab`` commands it times, and what its outputs must satisfy.

A workload's timed commands run one at a time, each in a fresh process
(closed loop, one client, ``--jobs 1``). Every pass writes into an empty
directory, so a pipeline never resumes from an earlier pass.

There are two workloads. ``puzzle-pipelines`` runs every domain through
search, training and learned evaluation; ``maze-large-pool`` runs only
selection, so it bypasses search and the models. The speed of a shared
machine wanders by about 15% over tens of seconds, and a few long passes
average that out where more, shorter workloads could not within the time
the benchmark may take.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

INPUTS = str(Path(__file__).resolve().parent / "inputs.py")
PIPELINE_ROWS = ("full_data", "uniform", "planner_aware", "semdedup", "semdedup_planner")

# Stage of each pipeline marker ``[<label>] running``, by label prefix.
PIPELINE_STAGES = (
    ("instances/", "generate_s"),
    ("references/", "solve_s"),
    ("pool", "solve_s"),
    ("selections/", "select_s"),
    ("models/", "train_s"),
    ("eval/", "eval_s"),
    ("comparison", "report_s"),
)
RUNNING = "running"
UP_TO_DATE = "up to date"


def pipeline_markers(rows, splits=("test_iid", "test_ood"), instances: str = RUNNING) -> list[tuple[str, str]]:
    """The ``[<label>] <state>`` lines a fresh ``pipeline`` run prints, in order."""
    labels = [(f"instances/{s}", instances) for s in ("train", "test_iid", "test_ood")]
    labels += [(f"references/{s}", RUNNING) for s in ("test_iid", "test_ood")] + [("pool", RUNNING)]
    labels += [(f"selections/{row}", RUNNING) for row in rows]
    labels += [(f"models/{row}", RUNNING) for row in rows]
    labels += [(f"eval/{row}_{split}", RUNNING) for row in rows for split in splits]
    return labels + [("comparison", RUNNING)]


def stage_of(label: str, state: str) -> str:
    """The stage a marker's segment is timed under; a stage that was up to
    date only reads its outputs back."""
    if state == UP_TO_DATE:
        return "load_s"
    return next(stage for prefix, stage in PIPELINE_STAGES if label.startswith(prefix))


@dataclass
class Command:
    """One timed CLI call. ``markers`` lists the pipeline stage labels the
    command must print; a command without markers is one stage. Stage times
    are reported under ``<part>.<stage>``."""

    stage: str
    args: list[str]
    markers: list[tuple[str, str]] = field(default_factory=list)
    part: str = ""


class CheckFailed(Exception):
    pass


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_pool(path: Path) -> int:
    pool = _lines(path)
    _require(bool(pool), f"{path.name} is empty")
    _require(all(ex["d_star"] >= 0 for ex in pool), f"{path.name} has a negative residual target")
    return len(pool)


def _check_selection(path: Path, budget: int) -> None:
    picked = _lines(path)
    _require(0 < len(picked) <= budget, f"{path.name} holds {len(picked)} examples, budget {budget}")
    keys = {(ex["instance_id"], ex["g"]) for ex in picked}
    _require(len(keys) == len(picked), f"{path.name} selects an example twice")


def _check_summary(path: Path, n_instances: int) -> None:
    summary = _rows(path)[0]
    if "skipped" in summary:
        return
    _require(int(summary["n_total"]) == n_instances, f"{path.name} covers {summary['n_total']} of {n_instances}")
    _require(0.0 <= float(summary["swc"]) <= 1.0, f"{path.name} has SWC outside [0, 1]")


def _trim_split(split: Path, examples: int) -> None:
    """Keep the prefix of ``split`` (in id order) whose optimal plans add up
    to the number closest to ``examples``: one pool example per plan step."""
    rows = sorted(_lines(split / "manifest.jsonl"), key=lambda row: row["id"])
    keep, total = 0, 0
    for row in rows:
        if keep and total + row["plan_length"] / 2 > examples:
            break
        keep += 1
        total += row["plan_length"]
    for row in rows[keep:]:
        (split / f"{row['id']}.txt").unlink()
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows[:keep])
    (split / "manifest.jsonl").write_text(text, encoding="utf-8")


class Workload:
    name = ""
    why = ""
    setup_traced = False  # whether a traced run also traces the set-up's CLI calls

    def setup(self, bench, seed: int, inputs: Path) -> None:
        """Write the workload's inputs for ``seed`` into ``inputs``."""

    def prepare(self, inputs: Path, out: Path) -> None:
        """Fill a pass's empty output directory before its commands run."""

    def commands(self, seed: int, inputs: Path, out: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, seed: int, inputs: Path, out: Path) -> None:
        """Raise CheckFailed unless the outputs in ``out`` are plausible."""


def _check_pipeline(wd: Path, rows, budget: int) -> None:
    pool = _check_pool(wd / "pool.jsonl")
    for row in rows:
        _check_selection(wd / "selections" / f"{row}.jsonl", pool if row == "full_data" else budget)
        for split in ("test_iid", "test_ood"):
            solved = len(_lines(wd / "references" / f"{split}.jsonl"))
            _check_summary(wd / "eval" / f"{row}_{split}_summary.csv", solved)
    table = _rows(wd / "comparison.csv")
    _require([r["strategy"] for r in table] == list(rows), "comparison.csv rows differ from the strategies")


class MazePipeline(Workload):
    """The paper's maze pipeline and oracle noise study.

    Set-up generates the maze splits with the CLI and the timed pipeline
    resumes from them: generation rejects ~98% of its candidates, so at desk
    scale its cost swings by a third from seed to seed, and in set-up it
    cannot drown the stages after it. The train split is cut to a fixed pool
    size because the full-data model's memory grows with the square of it.
    """

    name = "maze"
    scale = "0.04"
    budget = 480
    pool = 800

    def setup(self, bench, seed, inputs):
        bench.heurlab(["generate", "--domain", "maze", "--splits", "train,test_iid,test_ood", "--scale", self.scale,
                       "--seed", str(seed), "--out", str(inputs)])
        _trim_split(inputs / "maze" / "train", self.pool)

    def prepare(self, inputs, out):
        shutil.copytree(inputs / "maze", out / "wd" / "instances")

    def commands(self, seed, inputs, out):
        wd = out / "wd"
        return [
            Command("pipeline", ["pipeline", "--workdir", str(wd), "--domain", "maze", "--scale", self.scale,
                                 "--seed", str(seed), "--jobs", "1"],
                    markers=pipeline_markers(PIPELINE_ROWS, instances=UP_TO_DATE)),
            Command("oracle_s", ["oracle-study", "--instances", str(wd / "instances" / "test_iid"),
                                 "--out", str(out / "oracle"), "--seed", str(seed)]),
        ]

    def check(self, seed, inputs, out):
        _check_pipeline(out / "wd", PIPELINE_ROWS, self.budget)
        exact = _rows(out / "oracle" / "oracle_table.csv")[0]
        _require(exact["set"] == "all", "oracle table does not start with the exact-oracle row")
        _require(float(exact["swc"]) == 1.0 and float(exact["optimal_pct"]) == 100.0,
                 "the exact oracle lost optimality")


class StpPipeline(Workload):
    """The sliding-tile pipeline, generation included, with two comparison rows."""

    name = "stp"
    scale = "0.06"
    rows = ("planner_aware", "semdedup_planner")
    budget = 480

    def commands(self, seed, inputs, out):
        # 4x4 and 5x5 test_ood boards have other feature dimensions than
        # the 3x3 training boards, so their eval stages are skipped.
        return [
            Command("pipeline", ["pipeline", "--workdir", str(out / "wd"), "--domain", "stp", "--scale", self.scale,
                                 "--seed", str(seed), "--jobs", "1", "--strategies", ",".join(self.rows)],
                    markers=pipeline_markers(self.rows)),
        ]

    def check(self, seed, inputs, out):
        _check_pipeline(out / "wd", self.rows, self.budget)


class SokobanChain(Workload):
    """Set-up writes reverse-pull levels in the boxoban layout and reads them
    back through ``generation.load_boxoban`` into instance folders.

    ``heurlab generate --domain sokoban`` is left out: its difficulty gate
    rejects box subsets that run into the 7000-node cap, and how many do
    swings its cost by half from seed to seed at desk scale.
    """

    name = "sokoban"
    budget = 400
    # Two models: how well one k-NN model fits swings the cost of the
    # learned solves from seed to seed, and two average that out.
    strategies = (("uniform", []), ("combined", ["--tau", "5.0"]))

    def setup(self, bench, seed, inputs):
        bench.script([INPUTS, "sokoban", "--seed", str(seed), "--out", str(inputs)])

    def commands(self, seed, inputs, out):
        s = str(seed)
        pool = str(out / "pool.jsonl")
        commands = [Command("solve_s", ["extract", "--instances", str(inputs / "train"), "--out", pool])]
        for name, flags in self.strategies:
            selection, model = str(out / f"{name}.jsonl"), str(out / f"{name}.json")
            commands += [
                Command("select_s", ["sample", "--pool", pool, "--out", selection, "--strategy", name, *flags,
                                     "--budget", str(self.budget), "--seed", s]),
                Command("train_s", ["train", "--pool", selection, "--out", model, "--seed", s]),
                Command("eval_s", ["eval", "--instances", str(inputs / "test_iid"), "--model", model,
                                   "--out", str(out / "report"), "--name", name,
                                   "--references", str(out / "references.jsonl")]),
            ]
        return commands

    def check(self, seed, inputs, out):
        _check_pool(out / "pool.jsonl")
        solved = len(_lines(out / "references.jsonl"))
        for name, _ in self.strategies:
            _check_selection(out / f"{name}.jsonl", self.budget)
            _check_summary(out / "report" / f"{name}_seed0_summary.csv", solved)


class PuzzlePipelines(Workload):
    """The maze, sliding-tile and Sokoban parts, one after another in each
    pass, each in its own subdirectory of the inputs and outputs."""

    name = "puzzle-pipelines"
    why = ("All three domains end to end: maze pipeline and oracle study, sliding-tile pipeline, Sokoban "
           "chain; A*, generation, Hungarian, k-NN training and learned evaluation.")
    parts = (MazePipeline(), StpPipeline(), SokobanChain())
    setup_traced = True

    def setup(self, bench, seed, inputs):
        for part in self.parts:
            (inputs / part.name).mkdir()
            part.setup(bench, seed, inputs / part.name)

    def prepare(self, inputs, out):
        for part in self.parts:
            (out / part.name).mkdir()
            part.prepare(inputs / part.name, out / part.name)

    def commands(self, seed, inputs, out):
        return [replace(command, part=part.name)
                for part in self.parts
                for command in part.commands(seed, inputs / part.name, out / part.name)]

    def check(self, seed, inputs, out):
        for part in self.parts:
            part.check(seed, inputs / part.name, out / part.name)


class MazeLargePool(Workload):
    """Semdedup with eight sampling seeds, then combined sampling, on one pool.

    k-means stops when its labels settle or after 50 iterations; from one
    initialisation to the next that is anywhere from 30 to 50 iterations,
    so one semdedup run's cost swings by a fifth. Eight runs average it out.
    """

    name = "maze-large-pool"
    why = ("Selection only, on an 8k-example maze pool: eight semdedup runs (k-means with its n x k x d "
           "array) and combined sampling; no search or models in the timed part.")
    budget = 4800
    semdedup_runs = 8

    def setup(self, bench, seed, inputs):
        bench.script([INPUTS, "maze-pool", "--seed", str(seed), "--out", str(inputs / "mazes")])
        bench.heurlab(["extract", "--instances", str(inputs / "mazes"), "--out", str(inputs / "pool.jsonl")])

    def commands(self, seed, inputs, out):
        pool = str(inputs / "pool.jsonl")
        budget = ["--budget", str(self.budget)]
        return [
            *(Command("select_s", ["sample", "--pool", pool, "--out", str(out / f"semdedup{i}.jsonl"),
                                   "--strategy", "semdedup", *budget, "--seed", str(self.semdedup_runs * seed + i)])
              for i in range(self.semdedup_runs)),
            Command("select_s", ["sample", "--pool", pool, "--out", str(out / "combined.jsonl"),
                                 "--strategy", "combined", "--tau", "2.0", *budget, "--seed", str(seed)]),
        ]

    def check(self, seed, inputs, out):
        _check_pool(inputs / "pool.jsonl")
        for name in [f"semdedup{i}" for i in range(self.semdedup_runs)] + ["combined"]:
            _check_selection(out / f"{name}.jsonl", self.budget)


WORKLOADS = {w.name: w for w in (PuzzlePipelines(), MazeLargePool())}
