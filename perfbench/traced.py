"""Run one ``heurlab`` command with tracing wrappers around its layers.

    python3 perfbench/traced.py TRACE.json <heurlab arguments...>

The wrappers are installed at the module bindings the callers look up at
call time (``generation.astar``, ``models.predict_batch``,
``domains.sokoban.hungarian_min_cost``, ...), so no program file changes.
Each call becomes a span with a parent; spans are aggregated in memory into
calls, total and self seconds per name, where self time is the span minus
the wrapped calls it made. The coarse spans are also kept one by one. The
originals are restored before the trace is written. Needs ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import time
import tracemalloc

from heurlab import cli, domains, evaluation, generation, models, oracle, pipeline, search, util
from heurlab.domains import Domain, maze, sokoban

LEARNED = "models.LearnedHeuristic.evaluate_batch"
HEURISTIC_KIND = {"QuickHeuristic": "quick", "LearnedHeuristic": "learned", "NoisyOracle": "oracle"}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack: list[list] = []  # per open call: [seconds spent in wrapped children, enclosing span id]
        self.active: collections.Counter = collections.Counter()  # open calls per name
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[list] = []  # coarse spans: [id, parent id, name, start s, end s]
        self.counters: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        self.peaks: dict[str, float] = {}  # name -> largest tracemalloc peak in MB
        self._memory: list[list] = []  # per open peak-tracked call: [base bytes, best peak bytes, started tracing]
        self._patched: list[tuple] = []

    def patch(self, owner, attr: str, name: str, *, span: bool = False, peak: bool = False, after=None):
        original = getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans, clock = self.stack, self.active, self.spans, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            enclosing = parent[1] if parent else -1
            frame = [0.0, enclosing]
            if span:
                frame[1] = len(spans)
                spans.append([frame[1], enclosing, name, 0.0, 0.0])
            if peak:
                self._memory_enter()
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                if peak:
                    self._memory_exit(name)
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if span:
                    record = spans[frame[1]]
                    record[3] = start - self.t0
                    record[4] = record[3] + elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # tracemalloc runs only inside peak-tracked calls; nested calls save the
    # outer peak before resetting it, so each call sees its own peak.
    def _memory_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._memory.append([0, 0, True])
            return
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._memory:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        self._memory.append([current, current, False])

    def _memory_exit(self, name: str):
        _, peak = tracemalloc.get_traced_memory()
        base, best, started = self._memory.pop()
        mine = (max(best, peak) - base) / 2**20
        self.peaks[name] = max(self.peaks.get(name, 0.0), mine)
        for entry in self._memory:
            entry[1] = max(entry[1], peak)
        if started:
            tracemalloc.stop()

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "counters": dict(self.counters),
            "samples": dict(self.samples),
            "peaks": self.peaks,
            "spans": self.spans,
        }


def install(tracer: Tracer) -> None:
    count = tracer.counters
    active = tracer.active

    def astar_done(args, result, elapsed):
        kind = HEURISTIC_KIND.get(type(args[1]).__name__, "other")
        count[f"search.{kind}.expansions"] += result.expansions
        count[f"search.{kind}.s"] += elapsed
        count["search.expansions"] += result.expansions
        count["search.heuristic_calls"] += result.heuristic_calls

    def generation_attempt(args, result, elapsed):
        astar_done(args, result, elapsed)
        count["generation.attempts"] += 1

    def accepted(args, result, elapsed):
        count["generation.accepted"] += 1

    def hungarian_done(args, result, elapsed):
        n = len(args[0])  # the workloads have two boxes; the kept trace splits calls by matrix size
        count[f"hungarian.n{n}.calls"] += 1
        count[f"hungarian.n{n}.s"] += elapsed
        if active[LEARNED]:
            count["hungarian.learned_calls"] += 1

    def learned_states(args, result, elapsed):
        count["models.evaluate.states"] += len(args[1])
        if args[2].domain is Domain.SOKOBAN:
            count["models.evaluate.sokoban_states"] += len(args[1])

    def predicted(args, result, elapsed):
        if active[LEARNED]:
            count["models.predict.calls"] += 1
            count["models.predict.rows"] += len(result)
            tracer.samples["models.predict.ms"].append(elapsed * 1e3)

    def oracle_states(args, result, elapsed):
        count["oracle.states"] += len(args[1])

    def pool_examples(args, result, elapsed):
        count["pipeline.extract_pool.examples"] += len(result[0])

    def file_bytes(key):
        def done(args, result, elapsed):
            count[key] += os.path.getsize(args[0])

        return done

    patch = tracer.patch
    for command in ("generate", "solve", "oracle_study", "extract", "sample", "train", "eval", "pipeline"):
        patch(cli, f"cmd_{command}", f"cli.{command}", span=True)

    patch(generation, "astar", "search.astar", after=generation_attempt)
    patch(evaluation, "astar", "search.astar", after=astar_done)
    patch(search.QuickHeuristic, "evaluate_batch", "search.QuickHeuristic.evaluate_batch")
    for fn in ("successors", "quick_heuristic", "feature_vector"):
        patch(domains, fn, f"domains.{fn}")
    patch(maze, "bfs_distances", "domains.maze.bfs_distances")
    patch(sokoban, "hungarian_min_cost", "domains.hungarian", after=hungarian_done)

    for fn in ("build_maze_split", "build_stp_split", "build_sokoban_split"):
        patch(generation, fn, "generation.build_split", span=True)
    for fn in ("generate_maze", "generate_stp", "subsample_boxes"):
        patch(generation, fn, "generation.generate", after=accepted)

    patch(oracle, "oracle_distances", "oracle.oracle_distances")
    patch(oracle.NoisyOracle, "evaluate_batch", "oracle.NoisyOracle.evaluate_batch", after=oracle_states)

    patch(pipeline, "extract_pool", "pipeline.extract_pool", span=True, after=pool_examples)
    patch(pipeline, "semdedup_select", "pipeline.semdedup_select", span=True, peak=True)
    patch(pipeline, "kmeans", "pipeline.kmeans", span=True, peak=True)
    patch(pipeline, "read_pool", "pipeline.read_pool", span=True)
    patch(pipeline, "write_pool", "pipeline.write_pool", span=True)

    patch(models, "train_residual_model", "models.train_residual_model", span=True, peak=True)
    patch(models, "predict_batch", "models.predict_batch", after=predicted)
    patch(models.LearnedHeuristic, "evaluate_batch", LEARNED, after=learned_states)

    patch(evaluation, "solve_all", "evaluation.solve_all", span=True)
    patch(evaluation, "write_report", "evaluation.write_report", span=True)

    for module in (util, cli, generation, pipeline):
        patch(module, "read_jsonl", "util.read_jsonl", after=file_bytes("util.read_jsonl.bytes"))
    for module in (util, cli, generation, pipeline, evaluation):
        patch(module, "write_jsonl", "util.write_jsonl", after=file_bytes("util.write_jsonl.bytes"))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(command)
    except SystemExit as exc:  # argparse exits on --help and on bad arguments
        code = exc.code
    finally:
        tracer.restore()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
