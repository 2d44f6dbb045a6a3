"""Metric computation, reference solves, and experiment aggregation."""

import pytest

from conftest import maze_bfs_distance

from heurlab.evaluation import (
    MetricsReport,
    ReferenceSolution,
    compute_metrics,
    compute_references,
    read_rows_csv,
    reference_records,
    references_from_records,
    run_experiment,
    solve_all,
    write_report,
    write_rows_csv,
)
from heurlab.search import QuickHeuristic, SearchLimits, SearchResult, Status, ZeroHeuristic


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
    assert references_from_records(records) == references


def test_solve_all_parallel_matches_serial(maze_train_150):
    subset = maze_train_150[:8]
    serial = solve_all(subset, lambda inst: QuickHeuristic(), jobs=1)
    parallel = solve_all(subset, lambda inst: QuickHeuristic(), jobs=4)
    assert sorted(serial) == sorted(parallel)
    for instance_id, result in serial.items():
        twin = parallel[instance_id]
        assert twin.path == result.path
        assert twin.closed_length == result.closed_length
        assert twin.heuristic_calls == result.heuristic_calls


def test_self_comparison_is_exactly_one(maze_train_150):
    subset = maze_train_150[:10]
    references, _ = compute_references(subset)
    results = solve_all(subset, lambda inst: QuickHeuristic())
    report = compute_metrics(results, references)
    assert report.ilr_on_solved == 1.0
    assert report.swc == 1.0
    assert report.optimal_pct == 100.0


def test_run_experiment_aggregates_across_seeds(maze_train_150):
    subset = maze_train_150[:6]
    references, _ = compute_references(subset)
    outcome = run_experiment(
        subset,
        references,
        lambda inst: QuickHeuristic(),
        seeds=[0, 1, 2],
        config={"name": "unit"},
    )
    assert len(outcome.per_seed) == 3
    # Identical evaluator per seed: zero variance, mean equals each seed.
    assert outcome.aggregate["ilr_on_solved"] == 1.0
    assert outcome.aggregate["ilr_on_solved_std"] == 0.0
    assert outcome.aggregate["swc"] == 1.0
    assert outcome.aggregate["optimal_pct"] == 100.0
    for key in ("config_hash", "inputs_hash", "n_instances", "seeds", "python", "platform"):
        assert key in outcome.manifest
    assert outcome.manifest["n_instances"] == 6
    assert outcome.manifest["seeds"] == [0, 1, 2]


def test_uninformed_search_loses_ilr(maze_train_150):
    subset = maze_train_150[:6]
    references, _ = compute_references(subset)
    results = solve_all(subset, lambda inst: ZeroHeuristic())
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
    results = solve_all(subset, lambda inst: QuickHeuristic())
    report = compute_metrics(results, references)
    write_report(report, tmp_path, "unit", manifest={"note": "x"})
    results_rows = read_rows_csv(tmp_path / "unit_results.csv")
    assert len(results_rows) == 3
    summary_rows = read_rows_csv(tmp_path / "unit_summary.csv")
    assert len(summary_rows) == 1
    assert float(summary_rows[0]["ilr_on_solved"]) == 1.0
    from heurlab.util import read_jsonl

    records = read_jsonl(tmp_path / "unit_manifest.jsonl")
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "manifest"
    assert "summary" in kinds
