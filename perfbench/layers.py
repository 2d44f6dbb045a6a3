"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

``METRICS`` lists every per-layer metric as (name, unit, better, moves):
``moves`` names the end-to-end figure, and the workload, that a change to
that layer should show up in. ``compute`` turns the traces that
``traced.py`` writes (merged over a workload's commands) into the values:
the metrics named in ``WITH_SETUP`` count the traced set-up's commands too
(on puzzle-pipelines that is the maze generation), every other metric
counts the timed pass only. A layer a workload never enters reports 0.
"""

from __future__ import annotations

import statistics

PUZZLES = "puzzle-pipelines"
LEARNED_EVAL = f"eval stages of total_s on {PUZZLES}; 0 on maze-large-pool"
GENERATION = (f"setup_s on {PUZZLES} (its traced set-up generates the mazes) and the sliding-tile generate "
              "stage of total_s; 0 on maze-large-pool")
SOKOBAN = f"solve and eval stages of total_s in the Sokoban part of {PUZZLES}; 0 elsewhere"
SELECTION = "total_s on maze-large-pool; a small share of the select stages on puzzle-pipelines"

WITH_SETUP = ("generation.", "domains.maze.bfs_distances.")  # name prefixes

METRICS = [
    ("cli.startup_s", "s", "lower", "setup_s on both workloads"),
    ("search.expansions", "count", "lower", f"total_s on {PUZZLES}; 0 on maze-large-pool"),
    ("search.heuristic_calls", "count", "lower", f"total_s on {PUZZLES}; 0 on maze-large-pool"),
    ("search.astar.self_s", "s", "lower", f"total_s on {PUZZLES}"),
    ("search.quick.expansions_per_s", "1/s", "higher", f"solve and generate stages of total_s on {PUZZLES}"),
    ("search.learned.expansions_per_s", "1/s", "higher", LEARNED_EVAL),
    ("search.oracle.expansions_per_s", "1/s", "higher", f"the maze oracle-study stage of total_s on {PUZZLES}"),
    ("domains.successors.us_per_call", "us", "lower", f"total_s on {PUZZLES}"),
    ("domains.quick_heuristic.us_per_call", "us", "lower", f"solve stages on {PUZZLES}, mostly its Sokoban part"),
    ("domains.feature_vector.us_per_call", "us", "lower", f"eval and solve stages on {PUZZLES}"),
    ("domains.maze.bfs_distances.s", "s", "lower", f"setup_s on {PUZZLES} (maze generation)"),
    ("domains.hungarian.calls", "count", "lower", SOKOBAN),
    ("domains.hungarian.us_per_call", "us", "lower", SOKOBAN),
    ("domains.hungarian.calls_per_learned_state", "ratio", "lower", f"Sokoban eval stage of total_s on {PUZZLES}"),
    ("generation.attempts", "count", "lower", GENERATION),
    ("generation.accepted", "count", "higher", "fixed by the split sizes; the base of the two ratios below"),
    ("generation.accept_ratio", "ratio", "higher", GENERATION),
    ("generation.s_per_accepted", "s", "lower", GENERATION),
    ("oracle.oracle_distances.s", "s", "lower", f"the maze oracle-study stage of total_s on {PUZZLES}"),
    ("oracle.evaluate.us_per_state", "us", "lower", f"the maze oracle-study stage of total_s on {PUZZLES}"),
    ("pipeline.extract_pool.s", "s", "lower", f"solve stages of total_s on {PUZZLES}"),
    ("pipeline.extract_pool.examples", "count", "higher", "fixed by the instances; the base of solve-stage rates"),
    ("pipeline.semdedup_select.s", "s", "lower", SELECTION),
    ("pipeline.semdedup_select.peak_mb", "MB", "lower", "total_s and peak_rss_mb on maze-large-pool"),
    ("pipeline.kmeans.s", "s", "lower", SELECTION),
    ("pipeline.kmeans.peak_mb", "MB", "lower", "peak_rss_mb on maze-large-pool"),
    ("pipeline.read_pool.s", "s", "lower", SELECTION),
    ("pipeline.write_pool.s", "s", "lower", SELECTION),
    ("models.train_residual_model.s", "s", "lower", f"train stages of total_s on {PUZZLES}"),
    ("models.train_residual_model.peak_mb", "MB", "lower", f"peak_rss_mb on {PUZZLES} (the maze full-data model)"),
    ("models.predict_batch.calls", "count", "lower", LEARNED_EVAL),
    ("models.predict_batch.rows", "count", "lower", LEARNED_EVAL),
    ("models.predict_batch.ms_per_call.p50", "ms", "lower", LEARNED_EVAL),
    ("models.predict_batch.ms_per_call.p99", "ms", "lower", LEARNED_EVAL),
    ("models.evaluator.ms_per_expansion", "ms", "lower", LEARNED_EVAL),
    ("models.cache_hit_ratio", "ratio", "higher", "eval stages; 1 - predicted rows / states passed to the evaluator"),
    ("evaluation.solve_all.s", "s", "lower", f"eval and solve stages of total_s on {PUZZLES}"),
    ("evaluation.write_report.s", "s", "lower", f"eval stages of total_s on {PUZZLES}"),
    ("util.read_jsonl.s", "s", "lower", "total_s on maze-large-pool"),
    ("util.read_jsonl.mb", "MB", "lower", "total_s on maze-large-pool"),
    ("util.write_jsonl.s", "s", "lower", "total_s on maze-large-pool"),
    ("util.write_jsonl.mb", "MB", "lower", "total_s on maze-large-pool"),
    ("trace.overhead_s", "s", "lower", "none: traced total_s minus untraced total_s, the cost of tracing itself"),
]


def merge(traces: list[dict]) -> dict:
    """Sum the traces of one workload's commands into one."""
    out = {"stats": {}, "counters": {}, "samples": {}, "peaks": {}}
    for trace in traces:
        for name, (calls, total, own) in trace["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, value in trace["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, values in trace["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
        for name, value in trace["peaks"].items():
            out["peaks"][name] = max(out["peaks"].get(name, 0.0), value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def compute(timed: dict, with_setup: dict, startup_s: float, overhead_s: float) -> dict[str, float]:
    """The metrics from the merged trace of the timed pass and that of the
    set-up and the timed pass together."""
    values = _compute(timed, startup_s, overhead_s)
    values.update((k, v) for k, v in _compute(with_setup, startup_s, overhead_s).items() if k.startswith(WITH_SETUP))
    return values


def _compute(trace: dict, startup_s: float, overhead_s: float) -> dict[str, float]:
    stats, count, peaks = trace["stats"], trace["counters"], trace["peaks"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def us_per_call(name):
        return 1e6 * _ratio(seconds(name), calls(name))

    def rate(kind):
        return _ratio(count.get(f"search.{kind}.expansions", 0), count.get(f"search.{kind}.s", 0.0))

    states = count.get("models.evaluate.states", 0)
    predict_ms = trace["samples"].get("models.predict.ms", [])
    values = {
        "cli.startup_s": startup_s,
        "search.expansions": count.get("search.expansions", 0),
        "search.heuristic_calls": count.get("search.heuristic_calls", 0),
        "search.astar.self_s": stats.get("search.astar", [0, 0.0, 0.0])[2],
        "search.quick.expansions_per_s": rate("quick"),
        "search.learned.expansions_per_s": rate("learned"),
        "search.oracle.expansions_per_s": rate("oracle"),
        "domains.successors.us_per_call": us_per_call("domains.successors"),
        "domains.quick_heuristic.us_per_call": us_per_call("domains.quick_heuristic"),
        "domains.feature_vector.us_per_call": us_per_call("domains.feature_vector"),
        "domains.maze.bfs_distances.s": seconds("domains.maze.bfs_distances"),
        "domains.hungarian.calls": calls("domains.hungarian"),
        "domains.hungarian.us_per_call": us_per_call("domains.hungarian"),
        "domains.hungarian.calls_per_learned_state": _ratio(
            count.get("hungarian.learned_calls", 0), count.get("models.evaluate.sokoban_states", 0)
        ),
        "generation.attempts": count.get("generation.attempts", 0),
        "generation.accepted": count.get("generation.accepted", 0),
        "generation.accept_ratio": _ratio(count.get("generation.accepted", 0), count.get("generation.attempts", 0)),
        "generation.s_per_accepted": _ratio(seconds("generation.build_split"), count.get("generation.accepted", 0)),
        "oracle.oracle_distances.s": seconds("oracle.oracle_distances"),
        "oracle.evaluate.us_per_state": 1e6 * _ratio(
            seconds("oracle.NoisyOracle.evaluate_batch"), count.get("oracle.states", 0)
        ),
        "pipeline.extract_pool.s": seconds("pipeline.extract_pool"),
        "pipeline.extract_pool.examples": count.get("pipeline.extract_pool.examples", 0),
        "pipeline.semdedup_select.s": seconds("pipeline.semdedup_select"),
        "pipeline.semdedup_select.peak_mb": peaks.get("pipeline.semdedup_select", 0.0),
        "pipeline.kmeans.s": seconds("pipeline.kmeans"),
        "pipeline.kmeans.peak_mb": peaks.get("pipeline.kmeans", 0.0),
        "pipeline.read_pool.s": seconds("pipeline.read_pool"),
        "pipeline.write_pool.s": seconds("pipeline.write_pool"),
        "models.train_residual_model.s": seconds("models.train_residual_model"),
        "models.train_residual_model.peak_mb": peaks.get("models.train_residual_model", 0.0),
        "models.predict_batch.calls": count.get("models.predict.calls", 0),
        "models.predict_batch.rows": count.get("models.predict.rows", 0),
        "models.predict_batch.ms_per_call.p50": _percentile(predict_ms, 50),
        "models.predict_batch.ms_per_call.p99": _percentile(predict_ms, 99),
        "models.evaluator.ms_per_expansion": 1e3 * _ratio(
            seconds("models.LearnedHeuristic.evaluate_batch"), count.get("search.learned.expansions", 0)
        ),
        "models.cache_hit_ratio": 1.0 - _ratio(count.get("models.predict.rows", 0), states) if states else 0.0,
        "evaluation.solve_all.s": seconds("evaluation.solve_all"),
        "evaluation.write_report.s": seconds("evaluation.write_report"),
        "util.read_jsonl.s": seconds("util.read_jsonl"),
        "util.read_jsonl.mb": count.get("util.read_jsonl.bytes", 0) / 2**20,
        "util.write_jsonl.s": seconds("util.write_jsonl"),
        "util.write_jsonl.mb": count.get("util.write_jsonl.bytes", 0) / 2**20,
        "trace.overhead_s": overhead_s,
    }
    return values
