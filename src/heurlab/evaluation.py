"""Reference solves, search-efficiency metrics, and report files.

Metrics compare a candidate heuristic's solves against quick-heuristic
references on the same instances:

  ILR        mean of S_ref / S_run (higher = fewer iterations than reference)
  SWC        mean of plan_ref / plan_run with unsolved instances scoring 0
  ITR        mean of wall_ref / wall_run
  Optimal%   share of instances solved at the reference plan length

ILR/ITR come in two flavours: on-solved averages over solved instances,
on-optimal restricts further to optimally solved ones. Each run's figures
come from its per-instance rows; ``mean_over_reports`` averages across runs.
"""

from __future__ import annotations

import csv
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

from .domains import PuzzleInstance
from .search import HeuristicEvaluator, QuickHeuristic, SearchResult, TieBreak, astar, astar_steps
from .util import atomic_write, content_hash, map_tasks, serial_sum, write_jsonl


@dataclass(frozen=True)
class ReferenceSolution:
    instance_id: str
    closed_length: int
    plan_length: int
    wall_time: float


# The headline figures of every table, in column order. ITR is averaged
# across runs too, but left out of the tables that must rerun to the same
# bytes (the pipeline comparison and the oracle table): it is a wall-time ratio.
HEADLINE_METRICS = ("ilr_on_solved", "ilr_on_optimal", "swc", "optimal_pct")
RUN_METRICS = HEADLINE_METRICS + ("itr_on_solved", "itr_on_optimal")


@dataclass
class MetricsReport:
    ilr_on_solved: float
    ilr_on_optimal: float
    swc: float
    optimal_pct: float
    itr_on_solved: float
    itr_on_optimal: float
    n_total: int
    n_solved: int
    n_optimal: int
    rows: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("rows", "errors")}


# Searches driven at once when the evaluator batches across instances. Each
# round makes one evaluator call for all of them; wider rounds mean fewer,
# larger model calls but more live search trees in memory. At 8 the learned
# sliding-tile evals raised the pipeline's peak RSS by about 2 MB; at 4 they
# kept most of the speed-up for a few hundred KB.
LOCKSTEP = 4


def lockstep(
    instances: Sequence[PuzzleInstance],
    evaluator: HeuristicEvaluator,
    max_iterations: int | None = None,
    tie_break: TieBreak = TieBreak.LARGER_G,
) -> list[tuple[str, SearchResult]]:
    """Solve ``instances`` with up to ``LOCKSTEP`` searches at a time: each
    round sends the states of every pending request, without their depths,
    to one ``evaluator.evaluate_pairs`` call. Each search is charged the time
    of its own steps plus the call's seconds in proportion to its rows. A
    finished search's place goes to the next instance. Returns (instance id,
    result) pairs in instance order."""
    clock = time.perf_counter
    queue = iter(enumerate(instances))
    active = []  # per live search: (position, instance, engine, (states, g) requested, seconds charged)
    results = [None] * len(instances)
    while True:
        for at, inst in islice(queue, LOCKSTEP - len(active)):
            engine = astar_steps(inst, evaluator.cacheable, max_iterations, tie_break)
            t = clock()
            active.append((at, inst, engine, next(engine), clock() - t))
        if not active:
            return [(inst.id, result) for inst, result in zip(instances, results)]
        states = [s for *_, (batch, _), _ in active for s in batch]
        owners = [inst for _, inst, _, (batch, _), _ in active for _ in batch]
        t = clock()
        values = evaluator.evaluate_pairs(states, owners) if states else []
        per_row = (clock() - t) / len(states) if states else 0.0
        row = 0
        live = []
        for at, inst, engine, (batch, _), charged in active:
            n = len(batch)
            charged += per_row * n
            t = clock()
            try:
                request = engine.send(values[row : row + n])
                live.append((at, inst, engine, request, charged + clock() - t))
            except StopIteration as done:
                results[at] = done.value
                done.value.wall_time = charged + clock() - t
            row += n
        active = live


def _solve_chunk(task):
    """The searches of a chunk of instances: in lockstep, or one astar each."""
    instances, evaluator, max_iterations, tie_break = task
    if hasattr(evaluator, "evaluate_pairs"):
        return lockstep(instances, evaluator, max_iterations, tie_break)
    return [(inst.id, astar(inst, evaluator, max_iterations, tie_break)) for inst in instances]


def solve_all(
    instances: Sequence[PuzzleInstance],
    evaluator: HeuristicEvaluator,
    max_iterations: int | None = None,
    tie_break: TieBreak = TieBreak.LARGER_G,
    jobs: int = 1,
) -> dict[str, SearchResult]:
    """Solve every instance with the one ``evaluator``; results keyed by
    instance id, in instance order. A chunk of instances (all of them at
    ``jobs`` 1) runs in ``lockstep`` when the evaluator defines
    ``evaluate_pairs``, else one search at a time through ``astar``."""
    # A worker task holds a few rounds' worth of searches, so the workers
    # share out the long searches rather than waiting on one worker's chunk.
    size = 4 * LOCKSTEP if jobs > 1 else max(len(instances), 1)
    chunks = [(instances[i : i + size], evaluator, max_iterations, tie_break) for i in range(0, len(instances), size)]
    return dict(pair for chunk in map_tasks(_solve_chunk, chunks, jobs, chunksize=1) for pair in chunk)


def compute_references(
    instances: Sequence[PuzzleInstance],
    max_iterations: int | None = None,
    jobs: int = 1,
) -> tuple[dict[str, ReferenceSolution], list[str]]:
    """Quick-heuristic reference solves, with the default larger-g tie-break.
    Returns (references, unsolved ids)."""
    results = solve_all(instances, QuickHeuristic(), max_iterations, jobs=jobs)
    references = {}
    failed = []
    for inst in instances:
        res = results[inst.id]
        if res.solved:
            references[inst.id] = ReferenceSolution(inst.id, res.closed_length, res.path_length, res.wall_time)
        else:
            failed.append(inst.id)
    return references, failed


def reference_records(references: Mapping[str, ReferenceSolution]) -> list[dict]:
    return [asdict(ref) for _, ref in sorted(references.items())]


def reference_from_record(rec: dict) -> ReferenceSolution:
    """A references-file record; a field of the wrong type or sign is a ``ValueError`` naming it."""
    ref = ReferenceSolution(*(rec[f.name] for f in fields(ReferenceSolution)))
    if not isinstance(ref.instance_id, str):
        raise ValueError(f"instance_id must be a string, got {ref.instance_id!r}")
    for name in ("closed_length", "plan_length"):
        value = getattr(ref, name)
        if type(value) is not int or value < 0:  # a bool is no count
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    if type(ref.wall_time) not in (int, float) or not 0 <= ref.wall_time < math.inf:
        raise ValueError(f"wall_time must be a finite, nonnegative number, got {ref.wall_time!r}")
    return ref



def _mean(values: Sequence[float]) -> float:
    return serial_sum(values) / len(values) if values else 0.0


def compute_metrics(results: Mapping[str, SearchResult], references: Mapping[str, ReferenceSolution]) -> MetricsReport:
    """Aggregate one run against references. Instances missing a reference are
    reported as error rows and excluded from every aggregate. Means over empty
    sets are reported as 0.0. A solved row is one with an ILR; an optimal row
    is a solved row flagged optimal."""
    rows = []
    errors = []
    for instance_id in sorted(results):
        result = results[instance_id]
        ref = references.get(instance_id)
        if ref is None:
            errors.append({"instance_id": instance_id, "error": "missing_reference"})
            continue
        row = {
            "instance_id": instance_id,
            "status": result.status.value,
            "s_ref": ref.closed_length,
            "s_run": result.closed_length,
            "plan_ref": ref.plan_length,
            "plan_run": result.path_length if result.solved else None,
            "wall_ref": ref.wall_time,
            "wall_run": result.wall_time,
            "ilr": None,
            "swc": 0.0,
            "itr": None,
            "optimal": False,
        }
        if result.solved:
            # Both solves share the goal-test-at-selection rule, so a zero
            # closed length means start == goal for the reference too.
            row.update(
                ilr=ref.closed_length / result.closed_length if result.closed_length else 1.0,
                itr=ref.wall_time / result.wall_time,
                swc=ref.plan_length / result.path_length if result.path_length else 1.0,
                optimal=result.path_length == ref.plan_length,
            )
        rows.append(row)

    solved = [row for row in rows if row["ilr"] is not None]
    optimal = [row for row in solved if row["optimal"]]
    n_total = len(rows)
    return MetricsReport(
        ilr_on_solved=_mean([row["ilr"] for row in solved]),
        ilr_on_optimal=_mean([row["ilr"] for row in optimal]),
        swc=_mean([row["swc"] for row in rows]),
        optimal_pct=100.0 * len(optimal) / n_total if n_total else 0.0,
        itr_on_solved=_mean([row["itr"] for row in solved]),
        itr_on_optimal=_mean([row["itr"] for row in optimal]),
        n_total=n_total,
        n_solved=len(solved),
        n_optimal=len(optimal),
        rows=rows,
        errors=errors,
    )


def solve_and_score(instances: Sequence[PuzzleInstance], references: Mapping[str, ReferenceSolution],
                    evaluator: HeuristicEvaluator, max_iterations: int | None, tie_break: TieBreak,
                    jobs: int) -> MetricsReport:
    """Solve every instance once and score the run against the references."""
    results = solve_all(instances, evaluator, max_iterations, tie_break, jobs)
    return compute_metrics(results, references)


def mean_over_reports(reports: Sequence[MetricsReport]) -> dict:
    """Mean and population std of each of ``RUN_METRICS`` across reports,
    keyed ``<metric>`` and ``<metric>_std``."""
    if not reports:
        raise ValueError("mean_over_reports got no reports to average")
    aggregate = {}
    for key in RUN_METRICS:
        values = [getattr(report, key) for report in reports]
        m = serial_sum(values) / len(values)
        var = serial_sum((v - m) ** 2 for v in values) / len(values)
        aggregate[key] = m
        aggregate[key + "_std"] = var**0.5
    return aggregate


def run_manifest(instances: Sequence[PuzzleInstance], config: dict, seeds: Sequence[int]) -> dict:
    """The manifest record of a report: what was run, on which inputs, where."""
    return {
        "config_hash": content_hash(config),
        "inputs_hash": content_hash([inst.id for inst in instances]),
        "n_instances": len(instances),
        "seeds": list(seeds),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Report files: per-instance rows, an aggregate summary, and a manifest.

def write_rows_csv(rows: Sequence[dict], path: str | Path) -> None:
    with atomic_write(path) as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


def read_rows_csv(path: str | Path) -> list[dict]:
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def write_report(report: MetricsReport, out_dir: str | Path, name: str, manifest: dict) -> None:
    """Rows, manifest, then the summary: the pipeline takes the summary's
    presence to mean the report is complete, so it is written last."""
    out_dir = Path(out_dir)
    write_rows_csv(report.rows, out_dir / f"{name}_results.csv")
    records = [{"kind": "manifest", **manifest}, {"kind": "summary", **report.summary()}]
    if report.errors:
        records.extend({"kind": "error", **err} for err in report.errors)
    write_jsonl(out_dir / f"{name}_manifest.jsonl", records)
    write_rows_csv([report.summary()], out_dir / f"{name}_summary.csv")
