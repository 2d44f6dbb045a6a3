"""Metric computation, reference solves, and experiment aggregation."""

import random

import pytest

from conftest import maze_bfs_distance

from heurlab.evaluation import (
    LOCKSTEP,
    MetricsReport,
    ReferenceSolution,
    compute_metrics,
    compute_references,
    mean_over_reports,
    read_rows_csv,
    reference_from_record,
    reference_records,
    run_manifest,
    solve_all,
    write_report,
    write_rows_csv,
)
from heurlab import cli, generation, models
from heurlab.models import LearnedHeuristic, predict_batch, train_residual_model
from heurlab.search import QuickHeuristic, SearchLimits, SearchResult, Status, TieBreak, ZeroHeuristic, astar
from heurlab.util import read_jsonl


def _ref(instance_id, closed, plan, wall=1.0):
    return ReferenceSolution(instance_id, closed, plan, wall)


def _run(closed, plan, wall=1.0, solved=True):
    if solved:
        return SearchResult(
            Status.SOLUTION_FOUND,
            path=[None] * (plan + 1),
            path_length=plan,
            closed_length=closed,
            wall_time=wall,
        )
    return SearchResult(Status.LIMIT_EXCEEDED, closed_length=closed, wall_time=wall)


def test_metric_closed_forms():
    references = {"a": _ref("a", 100, 10, wall=2.0), "b": _ref("b", 300, 30, wall=3.0)}
    results = {"a": _run(50, 10, wall=1.0), "b": _run(600, 36, wall=6.0)}
    report = compute_metrics(results, references)
    # a: ilr 2.0 itr 2.0 swc 1.0 optimal; b: ilr 0.5 itr 0.5 swc 30/36 suboptimal.
    assert abs(report.ilr_on_solved - (2.0 + 0.5) / 2) < 1e-12
    assert abs(report.ilr_on_optimal - 2.0) < 1e-12
    assert abs(report.itr_on_solved - (2.0 + 0.5) / 2) < 1e-12
    assert abs(report.itr_on_optimal - 2.0) < 1e-12
    assert abs(report.swc - (1.0 + 30 / 36) / 2) < 1e-12
    assert abs(report.optimal_pct - 50.0) < 1e-12
    assert (report.n_total, report.n_solved, report.n_optimal) == (2, 2, 1)


def test_unsolved_instances_score_zero_swc():
    references = {"a": _ref("a", 100, 10), "b": _ref("b", 100, 10)}
    results = {"a": _run(100, 10), "b": _run(500, 0, solved=False)}
    report = compute_metrics(results, references)
    assert report.n_solved == 1
    assert abs(report.swc - (1.0 + 0.0) / 2) < 1e-12
    # Unsolved runs contribute to no ILR/ITR average.
    assert abs(report.ilr_on_solved - 1.0) < 1e-12
    assert report.rows[1]["ilr"] is None
    assert report.rows[1]["swc"] == 0.0
    assert report.rows[1]["plan_run"] is None


def test_shorter_than_reference_plans_are_not_optimal():
    # A sub-reference plan length would mean the reference was not optimal;
    # the metrics still only credit exact matches.
    references = {"a": _ref("a", 100, 10)}
    report = compute_metrics({"a": _run(80, 9)}, references)
    assert report.n_optimal == 0
    assert report.optimal_pct == 0.0
    assert abs(report.swc - 10 / 9) < 1e-12


def test_missing_references_become_error_rows():
    references = {"a": _ref("a", 100, 10)}
    results = {"a": _run(100, 10), "ghost": _run(10, 5)}
    report = compute_metrics(results, references)
    assert report.n_total == 1
    assert report.errors == [{"instance_id": "ghost", "error": "missing_reference"}]
    assert [row["instance_id"] for row in report.rows] == ["a"]


def test_zero_closed_length_counts_as_parity():
    # start == goal on both sides: closed lengths are 0, ILR defined as 1.
    references = {"a": _ref("a", 0, 0)}
    report = compute_metrics({"a": _run(0, 0)}, references)
    assert report.ilr_on_solved == 1.0
    assert report.swc == 1.0
    assert report.optimal_pct == 100.0


def test_empty_inputs_mean_zero():
    report = compute_metrics({}, {})
    assert report.ilr_on_solved == 0.0
    assert report.swc == 0.0
    assert report.optimal_pct == 0.0
    assert report.n_total == 0


def test_mean_over_no_reports_is_refused():
    with pytest.raises(ValueError, match="no reports"):
        mean_over_reports([])


def test_compute_references_match_bfs(maze_train_150):
    subset = maze_train_150[:10]
    references, failed = compute_references(subset, jobs=2)
    assert failed == []
    for inst in subset:
        assert references[inst.id].plan_length == maze_bfs_distance(inst)[inst.goal_spec]
        assert references[inst.id].closed_length > 0
        assert references[inst.id].wall_time > 0


def test_compute_references_reports_failures(maze_train_150):
    subset = maze_train_150[:4]
    references, failed = compute_references(subset, limits=SearchLimits(max_iterations=1))
    assert references == {}
    assert failed == [inst.id for inst in subset]


def test_reference_records_round_trip(maze_train_150):
    references, _ = compute_references(maze_train_150[:5])
    records = reference_records(references)
    assert [r["instance_id"] for r in records] == sorted(references)
    assert {rec["instance_id"]: reference_from_record(rec) for rec in records} == references


def test_solve_all_parallel_matches_serial(maze_train_150):
    # More instances than one worker task holds, so jobs=4 fans out.
    subset = maze_train_150[: 4 * LOCKSTEP + 4]
    serial = solve_all(subset, QuickHeuristic(), jobs=1)
    parallel = solve_all(subset, QuickHeuristic(), jobs=4)
    assert sorted(serial) == sorted(parallel)
    for instance_id, result in serial.items():
        twin = parallel[instance_id]
        assert twin.path == result.path
        assert twin.closed_length == result.closed_length
        assert twin.heuristic_calls == result.heuristic_calls


@pytest.fixture(scope="module")
def maze_model(maze_pool_150):
    return train_residual_model(maze_pool_150[:500], kind="knn", k=8, seed=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_solve_all_of_no_instances_is_empty(maze_model, jobs):
    assert solve_all([], QuickHeuristic(), jobs=jobs) == {}
    assert solve_all([], LearnedHeuristic(maze_model), jobs=jobs) == {}


def test_learned_solve_all_matches_lone_searches_for_any_jobs(maze_train_150, maze_model):
    # Learned searches run in lockstep, in-process or one chunk per worker,
    # and each result equals the search driven alone.
    subset = maze_train_150[:40]
    serial = solve_all(subset, LearnedHeuristic(maze_model), jobs=1)
    parallel = solve_all(subset, LearnedHeuristic(maze_model), jobs=4)
    assert list(serial) == list(parallel) == [inst.id for inst in subset]
    for inst in subset:
        alone = astar(inst, LearnedHeuristic(maze_model))
        for res in (serial[inst.id], parallel[inst.id]):
            assert res.status is alone.status
            assert res.path == alone.path
            assert res.closed_length == alone.closed_length
            assert res.heuristic_calls == alone.heuristic_calls


def test_lockstep_shares_model_calls_across_searches(maze_train_150, maze_model, monkeypatch):
    # Alone, a search makes one predict_batch call per non-empty request; in
    # lockstep one call serves a round of requests from several searches.
    calls = []

    def counting(model, feats):
        calls.append(len(feats))
        return predict_batch(model, feats)

    monkeypatch.setattr(models, "predict_batch", counting)
    subset = maze_train_150[:20]
    alone = [astar(inst, LearnedHeuristic(maze_model)) for inst in subset]
    requests = len(calls)
    calls.clear()
    together = solve_all(subset, LearnedHeuristic(maze_model))
    assert len(calls) < requests
    assert sum(calls) == sum(res.heuristic_calls for res in alone)
    assert [res.heuristic_calls for res in together.values()] == [res.heuristic_calls for res in alone]


def test_self_comparison_is_exactly_one(maze_train_150):
    subset = maze_train_150[:10]
    references, _ = compute_references(subset)
    results = solve_all(subset, QuickHeuristic())
    report = compute_metrics(results, references)
    assert report.ilr_on_solved == 1.0
    assert report.swc == 1.0
    assert report.optimal_pct == 100.0


def test_eval_repeats_aggregate_across_seeds(maze_train_150, tmp_path):
    generation.write_split(maze_train_150[:6], tmp_path / "split")
    out = tmp_path / "report"
    argv = ["eval", "--instances", str(tmp_path / "split"), "--out", str(out), "--name", "unit",
            "--heuristic", "quick", "--eval-seeds", "3"]
    assert cli.main(argv) == 0
    for seed in range(3):
        for suffix in ("results.csv", "summary.csv", "manifest.jsonl"):
            assert (out / f"unit_seed{seed}_{suffix}").exists()
    # Identical evaluator per repeat: zero spread, mean equals each repeat.
    aggregate = {key: float(value) for key, value in read_rows_csv(out / "unit_aggregate.csv")[0].items()}
    for key, mean in (("ilr_on_solved", 1.0), ("swc", 1.0), ("optimal_pct", 100.0)):
        assert aggregate[key] == mean
        assert aggregate[key + "_std"] == 0.0
    manifest = run_manifest(generation.read_split(tmp_path / "split"),
                            {"heuristic": "quick", "model": None, "name": "unit"}, [0, 1, 2])
    assert list(manifest) == ["config_hash", "inputs_hash", "n_instances", "seeds", "python", "platform"]
    assert manifest["n_instances"] == 6
    assert manifest["seeds"] == [0, 1, 2]
    for seed in range(3):
        assert read_jsonl(out / f"unit_seed{seed}_manifest.jsonl")[0] == {"kind": "manifest", **manifest}


def test_uninformed_search_loses_ilr(maze_train_150):
    subset = maze_train_150[:6]
    references, _ = compute_references(subset)
    results = solve_all(subset, ZeroHeuristic())
    report = compute_metrics(results, references)
    # Uniform-cost closes at least as many nodes as guided search.
    assert report.ilr_on_solved < 1.0
    assert report.optimal_pct == 100.0


def test_rows_csv_round_trip(tmp_path):
    rows = [
        {"instance_id": "a", "ilr": 1.5, "optimal": True},
        {"instance_id": "b", "ilr": None, "optimal": False},
    ]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    back = read_rows_csv(path)
    assert back[0]["instance_id"] == "a"
    assert float(back[0]["ilr"]) == 1.5
    assert back[1]["ilr"] == ""  # None flattens to an empty cell
    empty = tmp_path / "empty.csv"
    write_rows_csv([], empty)
    assert empty.read_text() == ""


def test_write_report_layout(tmp_path, maze_train_150):
    subset = maze_train_150[:3]
    references, _ = compute_references(subset)
    results = solve_all(subset, QuickHeuristic())
    report = compute_metrics(results, references)
    write_report(report, tmp_path, "unit", manifest={"note": "x"})
    results_rows = read_rows_csv(tmp_path / "unit_results.csv")
    assert len(results_rows) == 3
    summary_rows = read_rows_csv(tmp_path / "unit_summary.csv")
    assert len(summary_rows) == 1
    assert float(summary_rows[0]["ilr_on_solved"]) == 1.0
    records = read_jsonl(tmp_path / "unit_manifest.jsonl")
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "manifest"
    assert "summary" in kinds


# ---------------------------------------------------------------------------
# Bit identity of the scoring path against the counter-based implementation
# it replaced: the same rows, column order and float operations, so every
# report, aggregate and oracle-table row compares equal with ``==``.

def _counter_metrics(results, references):
    rows = []
    errors = []
    ilr_solved = []
    ilr_optimal = []
    itr_solved = []
    itr_optimal = []
    swc_total = 0.0
    n_total = 0
    n_solved = 0
    n_optimal = 0
    for instance_id in sorted(results):
        result = results[instance_id]
        ref = references.get(instance_id)
        if ref is None:
            errors.append({"instance_id": instance_id, "error": "missing_reference"})
            continue
        n_total += 1
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
            n_solved += 1
            ilr = ref.closed_length / result.closed_length if result.closed_length else 1.0
            itr = ref.wall_time / result.wall_time
            swc = ref.plan_length / result.path_length if result.path_length else 1.0
            row.update(ilr=ilr, itr=itr, swc=swc)
            swc_total += swc
            ilr_solved.append(ilr)
            itr_solved.append(itr)
            if result.path_length == ref.plan_length:
                n_optimal += 1
                row["optimal"] = True
                ilr_optimal.append(ilr)
                itr_optimal.append(itr)
        rows.append(row)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return MetricsReport(
        ilr_on_solved=mean(ilr_solved),
        ilr_on_optimal=mean(ilr_optimal),
        swc=swc_total / n_total if n_total else 0.0,
        optimal_pct=100.0 * n_optimal / n_total if n_total else 0.0,
        itr_on_solved=mean(itr_solved),
        itr_on_optimal=mean(itr_optimal),
        n_total=n_total,
        n_solved=n_solved,
        n_optimal=n_optimal,
        rows=rows,
        errors=errors,
    )


def _counter_aggregate(reports):
    keys = ["ilr_on_solved", "ilr_on_optimal", "swc", "optimal_pct", "itr_on_solved", "itr_on_optimal"]
    aggregate = {}
    for key in keys:
        values = [getattr(report, key) for report in reports]
        m = sum(values) / len(values)
        var = sum((v - m) ** 2 for v in values) / len(values)
        aggregate[key] = m
        aggregate[key + "_std"] = var**0.5
    return aggregate


def _counter_oracle_row(set_name, sigma, reports):
    def mean(attr):
        vals = [getattr(r, attr) for r in reports]
        return sum(vals) / len(vals)

    return {
        "set": set_name,
        "sigma": sigma,
        "ilr_on_solved": mean("ilr_on_solved"),
        "ilr_on_optimal": mean("ilr_on_optimal"),
        "swc": mean("swc"),
        "optimal_pct": mean("optimal_pct"),
    }


SCORING_SETS = 320


def _random_run(rng, n_instances):
    """Seeded results and references: unsolved runs (some with a stray path
    length equal to the reference's), missing references, zero closed and
    plan lengths, suboptimal and shorter-than-reference plans."""
    results = {}
    references = {}
    for i in range(n_instances):
        instance_id = f"i{rng.randrange(1000):03d}"
        plan_ref = rng.choice([0, 0, 1, 5, 12, rng.randrange(40)])
        closed_ref = 0 if plan_ref == 0 else rng.randrange(plan_ref, 400)
        if rng.random() > 0.15:
            references[instance_id] = _ref(instance_id, closed_ref, plan_ref, wall=rng.uniform(1e-4, 3.0))
        closed_run = rng.choice([0, closed_ref, rng.randrange(1, 800)])
        wall_run = rng.uniform(1e-4, 3.0)
        if rng.random() < 0.3:
            status = rng.choice([Status.LIMIT_EXCEEDED, Status.FRONTIER_EXHAUSTED])
            stray = rng.choice([0, plan_ref])
            results[instance_id] = SearchResult(status, path_length=stray, closed_length=closed_run, wall_time=wall_run)
        else:
            plan_run = rng.choice([plan_ref, plan_ref, plan_ref + rng.randrange(1, 6), max(plan_ref - 1, 0)])
            results[instance_id] = _run(closed_run, plan_run, wall=wall_run)
    return results, references


def test_scoring_path_is_bit_identical_to_the_counter_implementation(monkeypatch):
    from heurlab import evaluation, oracle

    rng = random.Random(20261018)
    for _ in range(SCORING_SETS):
        runs = [_random_run(rng, rng.choice([0, 1, 2, 5, 9, 16])) for _ in range(rng.randint(1, 4))]
        new = [compute_metrics(results, references) for results, references in runs]
        old = [_counter_metrics(results, references) for results, references in runs]
        for a, b in zip(new, old):
            assert a == b
            assert [list(row.items()) for row in a.rows] == [list(row.items()) for row in b.rows]
            assert list(a.summary().items()) == list(b.summary().items())
        assert list(evaluation.mean_over_reports(new).items()) == list(_counter_aggregate(old).items())
        assert list(oracle._row("middle", 2.0, new).items()) == list(_counter_oracle_row("middle", 2.0, old).items())

        # eval solves once per repeat through evaluation.solve_all.
        queue = [results for results, _ in runs]
        monkeypatch.setattr(evaluation, "solve_all", lambda *args, **kwargs: queue.pop(0))
        merged = {}
        for _, references in runs:
            merged.update(references)
        reports = [evaluation.solve_and_score([], merged, None, SearchLimits(), TieBreak.LARGER_G, 1) for _ in runs]
        expected = [_counter_metrics(results, merged) for results, _ in runs]
        assert reports == expected
        assert list(evaluation.mean_over_reports(reports).items()) == list(_counter_aggregate(expected).items())
