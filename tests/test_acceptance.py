"""Acceptance checks, one test per numbered criterion.

Each test states its tolerance inline; the terminal summary in conftest
prints a PASS/FAIL line per criterion number.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from heurlab import cli, evaluation, generation, models, oracle, pipeline
from heurlab.domains import Domain
from heurlab.domains.hungarian import hungarian_min_cost
from heurlab.search import QuickHeuristic, SearchLimits, TieBreak, astar
from heurlab.util import derive_seed

from conftest import MASTER_SEED, maze_bfs_distance, sokoban_bfs_optimal


def test_criterion_01_plans_match_bfs_oracles(maze_val_300, sokoban_100, stp_200, stp3_table):
    # Exact plan-length agreement with breadth-first oracles; target < 180 s.
    started = time.monotonic()

    mazes = maze_val_300[:200]
    assert len(mazes) == 200
    for inst in mazes:
        result = astar(inst, QuickHeuristic())
        assert result.solved
        oracle_dist = maze_bfs_distance(inst)[inst.goal_spec]
        assert result.path_length == oracle_dist, inst.id

    assert len(sokoban_100) == 100
    assert all(len(inst.start_state.boxes) == 2 for inst in sokoban_100)
    for inst in sokoban_100:
        result = astar(inst, QuickHeuristic())
        assert result.solved
        optimal = sokoban_bfs_optimal(inst, cap=10**6)
        assert optimal is not None, f"{inst.id}: oracle cap exceeded"
        assert result.path_length == optimal, inst.id

    stps = stp_200[:200]
    assert len(stps) == 200
    for inst in stps:
        result = astar(inst, QuickHeuristic())
        assert result.solved
        # Moves are reversible, so distance from the goal equals distance to it.
        assert result.path_length == stp3_table[tuple(inst.start_state.tiles)], inst.id

    assert time.monotonic() - started < 180.0


def test_criterion_02_exact_oracle_closes_plan_length_nodes(maze_val_300):
    instances = maze_val_300[:100]
    exact = oracle.exact_oracle(oracle.oracle_tables(instances))
    for inst in instances:
        result = astar(inst, exact, tie_break=TieBreak.LARGER_G)
        assert result.solved
        assert result.closed_length == result.path_length, inst.id


def test_criterion_03_noise_study_ordering(maze_val_300):
    # End > Middle > Initial by >= 0.05 at each sigma; All row exact; < 600 s.
    started = time.monotonic()
    assert len(maze_val_300) >= 300
    seeds = [derive_seed(MASTER_SEED, "noise", i) for i in range(3)]
    rows, _ = oracle.run_oracle_experiment(maze_val_300, sigmas=[2.0, 4.0, 6.0], seeds=seeds, jobs=4)

    all_row = rows[0]
    assert all_row["set"] == "all"
    assert all_row["swc"] == 1.0
    assert all_row["optimal_pct"] == 100.0
    assert all_row["ilr_on_solved"] == all_row["ilr_on_optimal"]

    by_sigma = {}
    for row in rows[1:]:
        by_sigma.setdefault(row["sigma"], {})[row["set"]] = row["ilr_on_solved"]
    assert set(by_sigma) == {2.0, 4.0, 6.0}
    for sigma, vals in by_sigma.items():
        assert vals["end"] >= vals["middle"] + 0.05, (sigma, vals)
        assert vals["middle"] >= vals["initial"] + 0.05, (sigma, vals)

    assert time.monotonic() - started < 600.0


def _fake_path_group(plan_len: int) -> list[pipeline.TrainingExample]:
    return [
        pipeline.TrainingExample(
            instance_id="synthetic",
            state_key=bytes([g]),
            text="",
            quick_h=0.0,
            d_star=float(plan_len - g),
            g=g,
            plan_len=plan_len,
            section=oracle.section_of(g, plan_len),
            feature_vector=(float(g),),
            domain=Domain.MAZE,
        )
        for g in range(plan_len)
    ]


def test_criterion_04_utility_and_softmax_draws():
    assert abs(pipeline.utility(20, 30) - math.log(3.0)) < 1e-12
    assert pipeline.utility(0, 30) == 0.0
    assert abs(pipeline.utility(20, 30, pipeline.CVariant.RATIO) - 3.0) < 1e-12
    assert abs(pipeline.utility(20, 30, pipeline.CVariant.LINEAR_DEPTH) - 2.0 / 3.0) < 1e-12

    group = _fake_path_group(30)
    probs = pipeline.planner_aware_probs(group, tau=1.0, c_variant=pipeline.CVariant.LOG_RATIO)
    rng = random.Random(derive_seed(MASTER_SEED, "tv-draws"))
    counts = [0] * 30
    trials = 100_000
    for _ in range(trials):
        first = pipeline.weighted_sample_without_replacement(group, probs, 1, rng)[0]
        counts[first.g] += 1
    tv = 0.5 * sum(abs(counts[i] / trials - probs[i]) for i in range(30))
    assert tv < 0.01, tv

    for plan_len in range(2, 201):
        for variant in pipeline.CVariant:
            utilities = [pipeline.utility(g, plan_len, variant) for g in range(plan_len)]
            assert all(b > a for a, b in zip(utilities, utilities[1:])), (plan_len, variant)
        first_draw = pipeline.planner_aware_probs(_fake_path_group(plan_len), tau=1.0,
                                                  c_variant=pipeline.CVariant.LOG_RATIO)
        assert all(b > a for a, b in zip(first_draw, first_draw[1:])), plan_len


def test_criterion_05_combination_weights():
    a, b, c = _fake_path_group(3)
    rng = random.Random(derive_seed(MASTER_SEED, "combine-draws"))
    trials = 100_000
    counts = {"a": 0, "b": 0, "c": 0}
    names = {a: "a", b: "b", c: "c"}
    for _ in range(trials):
        first = pipeline.combine_resample([a, b], [b, c], 1, rng)[0]
        counts[names[first]] += 1
    assert abs(counts["a"] / trials - 0.25) < 0.01
    assert abs(counts["b"] / trials - 0.50) < 0.01
    assert abs(counts["c"] / trials - 0.25) < 0.01


def test_criterion_06_assignment_matches_brute_force():
    rng = random.Random(derive_seed(MASTER_SEED, "hungarian"))
    for trial in range(1000):
        cost = [[float(rng.randrange(100)) for _ in range(5)] for _ in range(5)]
        assignment, total = hungarian_min_cost(cost)
        best = min(sum(cost[i][p[i]] for i in range(5)) for p in itertools.permutations(range(5)))
        assert total == best, trial
        assert sorted(assignment) == [0, 1, 2, 3, 4]
        assert sum(cost[i][assignment[i]] for i in range(5)) == total


def _result(plan: int, closed: int, wall: float, solved: bool = True) -> evaluation.SearchResult:
    from heurlab.search import SearchResult, Status

    status = Status.SOLUTION_FOUND if solved else Status.LIMIT_EXCEEDED
    return SearchResult(status=status, path_length=plan, closed_length=closed, wall_time=wall)


def test_criterion_07_metric_fixtures_and_self_itr(maze_val_300):
    refs = {
        "a": evaluation.ReferenceSolution("a", closed_length=10, plan_length=10, wall_time=2.0),
        "b": evaluation.ReferenceSolution("b", closed_length=30, plan_length=10, wall_time=3.0),
        "c": evaluation.ReferenceSolution("c", closed_length=40, plan_length=12, wall_time=4.0),
    }
    results = {
        "a": _result(plan=10, closed=5, wall=1.0),  # optimal, ILR 2
        "b": _result(plan=12, closed=60, wall=6.0),  # solved, suboptimal
        "c": _result(plan=0, closed=25, wall=1.0, solved=False),  # unsolved
    }
    report = evaluation.compute_metrics(results, refs)
    assert abs(report.ilr_on_solved - (2.0 + 0.5) / 2) < 1e-12
    assert abs(report.ilr_on_optimal - 2.0) < 1e-12
    assert abs(report.swc - (1.0 + 10.0 / 12.0 + 0.0) / 3) < 1e-12
    assert abs(report.optimal_pct - 100.0 / 3.0) < 1e-12
    assert abs(report.itr_on_solved - (2.0 + 0.5) / 2) < 1e-12
    assert abs(report.itr_on_optimal - 2.0) < 1e-12
    assert (report.n_total, report.n_solved, report.n_optimal) == (3, 2, 1)

    # Self-comparison sanity: rerun the reference configuration and expect
    # ITR-on-solved within 1.0 +/- 0.15 (timing jitter only).
    instances = maze_val_300
    for inst in instances[:20]:  # warm the allocator and caches
        astar(inst, QuickHeuristic())
    first = evaluation.solve_all(instances, QuickHeuristic())
    references = {
        iid: evaluation.ReferenceSolution(iid, res.closed_length, res.path_length, res.wall_time)
        for iid, res in first.items()
    }
    second = evaluation.solve_all(instances, QuickHeuristic())
    rerun = evaluation.compute_metrics(second, references)
    assert rerun.ilr_on_solved == 1.0
    assert rerun.swc == 1.0
    assert rerun.optimal_pct == 100.0
    assert abs(rerun.itr_on_solved - 1.0) < 0.15, rerun.itr_on_solved


def test_criterion_08_pool_residuals_and_sections(maze_pool_150, maze_train_150):
    plan_lengths = {}
    for ex in maze_pool_150:
        assert 0 <= ex.g <= ex.plan_len - 1
        assert ex.d_star == (ex.plan_len - ex.g) - ex.quick_h
        assert ex.d_star >= 0.0
        third = Fraction(ex.g, ex.plan_len)
        if third < Fraction(1, 3):
            expected = oracle.SectionLabel.INITIAL
        elif third < Fraction(2, 3):
            expected = oracle.SectionLabel.MIDDLE
        else:
            expected = oracle.SectionLabel.END
        assert ex.section is expected, (ex.instance_id, ex.g, ex.plan_len)
        plan_lengths[ex.instance_id] = ex.plan_len
    assert len(plan_lengths) == len(maze_train_150)
    assert len(maze_pool_150) == sum(plan_lengths.values())


def test_criterion_09_planner_aware_beats_uniform(maze_pool_150, maze_test_100):
    refs, failed = evaluation.compute_references(maze_test_100, jobs=4)
    assert not failed
    wins = 0
    scores = []
    for seed in range(5):
        ilr = {}
        for strategy in (pipeline.Strategy.PLANNER_AWARE, pipeline.Strategy.UNIFORM):
            spec = pipeline.SamplingSpec(strategy=strategy, tau=2.0, total_budget=2000, seed=seed)
            selection = pipeline.run_strategy(maze_pool_150, spec)
            assert len(selection) == 2000
            model = models.train_residual_model(selection, "knn", k=8, seed=seed)
            results = evaluation.solve_all(maze_test_100, models.LearnedHeuristic(model), jobs=4)
            ilr[strategy] = evaluation.compute_metrics(results, refs).ilr_on_solved
        scores.append((ilr[pipeline.Strategy.PLANNER_AWARE], ilr[pipeline.Strategy.UNIFORM]))
        if ilr[pipeline.Strategy.PLANNER_AWARE] >= ilr[pipeline.Strategy.UNIFORM]:
            wins += 1
    assert wins >= 3, scores


def test_criterion_10_parity_matches_reachability(stp3_table):
    rng = random.Random(derive_seed(MASTER_SEED, "parity"))
    for _ in range(500):
        tiles = list(range(9))
        rng.shuffle(tiles)
        reachable = tuple(tiles) in stp3_table
        assert generation.stp_is_solvable(tiles, 3) == reachable, tiles


TIMING_FIELD = re.compile(r"wall|itr|platform|python")


def _normalized(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        import csv
        import io

        return [
            {k: v for k, v in row.items() if not TIMING_FIELD.search(k)}
            for row in csv.DictReader(io.StringIO(text))
        ]
    if path.suffix == ".jsonl":
        return [
            {k: v for k, v in json.loads(line).items() if not TIMING_FIELD.search(k)}
            for line in text.splitlines()
        ]
    return text


def test_criterion_11_pipeline_rerun_determinism(tmp_path):
    argv = [
        "pipeline",
        "--domain", "maze",
        "--scale", "0.02",
        "--seed", "77",
        "--strategies", "uniform,planner_aware,semdedup",
        "--jobs", "2",
    ]
    assert cli.main(argv + ["--workdir", str(tmp_path / "run_a")]) == 0
    assert cli.main(argv + ["--workdir", str(tmp_path / "run_b"), "--jobs", "4"]) == 0

    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    assert any(str(rel) == "comparison.csv" for rel in files_a)
    for rel in files_a:
        assert _normalized(run_a / rel) == _normalized(run_b / rel), rel

    # Purely non-timing artifacts must be byte-identical, not just equivalent.
    for rel in files_a:
        board_file = rel.parts[0] == "instances" and rel.suffix == ".txt"
        if board_file or rel.parts[0] in ("selections", "models") or rel.name in ("pool.jsonl", "comparison.csv"):
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
