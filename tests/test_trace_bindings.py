"""The benchmark's tracing wrappers still fit the program.

``perfbench/traced.py`` wraps functions at the module bindings their callers
look up at call time. A refactor that moves or renames one of those bindings
breaks the traced benchmark run; these tests make it fail the test suite
instead. They import the tracer and edit nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from conftest import make_boxoban_fixture

from heurlab import cli, evaluation, generation, oracle, pipeline, util

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_and_is_restored():
    traced = _load_traced()
    tracer = traced.Tracer()
    try:
        traced.install(tracer)  # a binding that no longer exists raises here
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    bindings = {(owner, attr) for owner, attr, _ in patched}
    for binding in [
        (evaluation, "solve_all"),
        (evaluation, "astar"),
        (evaluation, "write_report"),
        (cli, "cmd_eval"),
        (cli, "read_jsonl"),
        (oracle.NoisyOracle, "evaluate_batch"),
        (pipeline, "read_pool"),
        (util, "read_jsonl"),
    ]:
        assert binding in bindings


def test_oracle_study_solves_through_the_traced_bindings(maze_train_150):
    # One reference pass, one exact pass and one pass per section for a
    # single sigma and seed: five solve_all calls, all seen by the tracer.
    traced = _load_traced()
    tracer = traced.Tracer()
    try:
        traced.install(tracer)
        oracle.run_oracle_experiment(maze_train_150[:2], sigmas=[2.0], seeds=[1])
    finally:
        tracer.restore()
    assert tracer.stats["evaluation.solve_all"][0] == 5
    assert tracer.stats["search.astar"][0] == 10
    assert tracer.stats["oracle.NoisyOracle.evaluate_batch"][0] > 0
    assert tracer.counters["search.oracle.expansions"] > 0


def test_every_difficulty_gate_search_is_a_traced_generation_attempt(tmp_path):
    # The gate must reach A* through generation.astar, the binding the tracer
    # wraps; a search made through any other binding is missing from both
    # counts below, and then they disagree or stay zero.
    path = make_boxoban_fixture(tmp_path / "gen.txt", count=1, n_boxes=4, seed=4)
    base = generation.load_boxoban(path)[0]
    traced = _load_traced()
    tracer = traced.Tracer()
    try:
        traced.install(tracer)
        generation.generate_stp(3, generation.GenFilter(o_l=12, retries=1), seed=2)
        generation.subsample_boxes(base, 2, seed=11, filt=generation.GenFilter(o_l=1, retries=4))
    finally:
        tracer.restore()
    assert tracer.counters["generation.attempts"] >= 2
    assert tracer.counters["generation.attempts"] == tracer.stats["search.astar"][0]
    assert tracer.counters["generation.accepted"] == 2


def test_quick_and_learned_searches_call_the_traced_domain_bindings(maze_train_150, maze_pool_150):
    # The engine looks up domains.successors when each search starts, so a
    # tracer installed after import still sees every call. Quick A* calls no
    # feature_vector, and the learned evaluator reads its quick heuristic
    # from column 0 of the features, so each path is checked for its pair.
    from heurlab import models, search

    model = models.train_residual_model(maze_pool_150[:200], "knn", k=8, seed=0)
    traced = _load_traced()
    tracer = traced.Tracer()
    calls = lambda name: tracer.stats[f"domains.{name}"][0]
    try:
        traced.install(tracer)
        search.astar(maze_train_150[0], search.QuickHeuristic())
        quick = {name: calls(name) for name in ("successors", "quick_heuristic", "feature_vector")}
        evaluation.solve_all(maze_train_150[1:4], lambda inst: models.LearnedHeuristic(model))
        learned = {name: calls(name) - quick[name] for name in quick}
    finally:
        tracer.restore()
    assert quick["successors"] > 0 and quick["quick_heuristic"] > 0
    assert learned["successors"] > 0 and learned["feature_vector"] > 0
    assert all(calls(name) > 0 for name in quick)
