"""Search engine behavior: optimality, tie-breaking, limits, accounting."""

import hashlib
import random
import time
from heapq import heappop, heappush
from itertools import groupby

import pytest

from conftest import MASTER_SEED, _reverse_pull_board, maze_bfs_distance

from heurlab import domains, evaluation, generation
from heurlab.domains import maze, stp
from heurlab.evaluation import LOCKSTEP, lockstep
from heurlab.oracle import NoiseSpec, NoisyOracle, oracle_tables
from heurlab.search import (
    HeuristicEvaluator,
    QuickHeuristic,
    SearchNode,
    SearchResult,
    Status,
    TieBreak,
    ZeroHeuristic,
    astar,
    astar_steps,
    reconstruct_path,
)
from heurlab.util import derive_seed

OPEN_ROOM = "\n".join(
    ["##########", "#@.......#"] + ["#........#"] * 6 + ["#.......X#", "##########"]
)

BLOCKED = "\n".join(["#####", "#@#X#", "#####"])


class CountingEvaluator(HeuristicEvaluator):
    """Wraps another evaluator and counts evaluate_batch invocations."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = 0

    def evaluate_batch(self, states, instance, g):
        self.batches += 1
        return self.inner.evaluate_batch(states, instance, g)


class HashNoiseHeuristic(HeuristicEvaluator):
    """Admissible but inconsistent: a per-state fraction of the true distance."""

    def __init__(self, instance):
        dist = maze_bfs_distance(instance, start=instance.goal_spec)
        self.true = {domains.MazeState(cell).key(): d for cell, d in dist.items()}

    def evaluate_batch(self, states, instance, g):
        out = []
        for s in states:
            key = s.key()
            frac = int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big") / 2**32
            out.append(frac * self.true.get(key, 0))
        return out


def test_start_equals_goal():
    inst = stp.make_instance(tuple(range(9)), 3)
    result = astar(inst, QuickHeuristic())
    assert result.solved
    assert result.path == [inst.start_state]
    assert result.path_length == 0
    assert result.closed_length == 0
    assert result.expansions == 0
    assert result.heuristic_calls == 1


def test_finds_optimal_plans(maze_train_150):
    for inst in maze_train_150[:20]:
        truth = maze_bfs_distance(inst)[inst.goal_spec]
        for evaluator in (ZeroHeuristic(), QuickHeuristic()):
            result = astar(inst, evaluator)
            assert result.solved
            assert result.path_length == truth


def test_path_is_a_connected_trajectory(maze_train_150):
    inst = maze_train_150[0]
    result = astar(inst, QuickHeuristic())
    assert result.path[0] == inst.start_state
    assert domains.is_goal(result.path[-1], inst)
    assert len(result.path) == result.path_length + 1
    for a, b in zip(result.path, result.path[1:]):
        assert b in {s for _, s in domains.successors(a, inst)}


def test_search_is_deterministic(maze_train_150):
    inst = maze_train_150[1]
    first = astar(inst, QuickHeuristic())
    second = astar(inst, QuickHeuristic())
    assert first.path == second.path
    assert first.closed_length == second.closed_length
    assert first.expansions == second.expansions
    assert first.heuristic_calls == second.heuristic_calls


def test_frontier_exhausted_when_goal_unreachable():
    inst = maze.parse_ascii(BLOCKED)
    result = astar(inst, QuickHeuristic())
    assert result.status is Status.FRONTIER_EXHAUSTED
    assert not result.solved
    assert result.path == []
    assert result.closed_length == 1


def test_iteration_limit_counts_closed_nodes():
    inst = maze.parse_ascii(OPEN_ROOM)
    result = astar(inst, QuickHeuristic(), max_iterations=5)
    assert result.status is Status.LIMIT_EXCEEDED
    assert result.closed_length == 5
    assert result.path == []


def test_goal_pop_wins_over_iteration_limit():
    # The goal test runs before the limit check, so a zero budget still
    # recognizes a start state that is already the goal.
    inst = stp.make_instance(tuple(range(9)), 3)
    result = astar(inst, QuickHeuristic(), max_iterations=0)
    assert result.solved
    inst = maze.parse_ascii(OPEN_ROOM)
    result = astar(inst, QuickHeuristic(), max_iterations=0)
    assert result.status is Status.LIMIT_EXCEEDED
    assert result.closed_length == 0


def test_limits_validation():
    with pytest.raises(ValueError):
        astar(maze.parse_ascii(OPEN_ROOM), QuickHeuristic(), -1)


def test_tie_break_larger_g_walks_the_plateau():
    # In an open room with an exact heuristic every node on a shortest path
    # shares the same f. Deeper-first tie-breaking commits to one optimal
    # path, while shallower-first sweeps the plateau breadth-first.
    inst = maze.parse_ascii(OPEN_ROOM)
    exact = ExactMazeHeuristic(inst)
    deep = astar(inst, exact, tie_break=TieBreak.LARGER_G)
    shallow = astar(inst, exact, tie_break=TieBreak.SMALLER_G)
    assert deep.path_length == shallow.path_length
    assert deep.closed_length == deep.path_length
    assert shallow.closed_length > deep.closed_length


class ExactMazeHeuristic(HeuristicEvaluator):
    def __init__(self, instance):
        dist = maze_bfs_distance(instance, start=instance.goal_spec)
        self.table = {cell: d for cell, d in dist.items()}

    def evaluate_batch(self, states, instance, g):
        return [float(self.table[s.player]) for s in states]


def test_one_batch_call_per_expansion(maze_train_150):
    inst = maze_train_150[2]
    cached = CountingEvaluator(QuickHeuristic())
    result = astar(inst, cached)
    # Root evaluation plus at most one batch per expansion; fully-cached
    # expansions skip the call entirely.
    assert cached.batches <= result.expansions + 1


def test_cache_bounds_heuristic_calls(maze_train_150):
    inst = maze_train_150[3]
    reachable = len(maze_bfs_distance(inst))
    cached = astar(inst, QuickHeuristic())
    assert cached.heuristic_calls <= reachable


def test_optimal_under_inconsistent_admissible_heuristic(maze_train_150):
    # Reopening superseded closed nodes keeps plans optimal even when the
    # heuristic is only admissible, not consistent.
    for inst in maze_train_150[:30]:
        truth = maze_bfs_distance(inst)[inst.goal_spec]
        result = astar(inst, HashNoiseHeuristic(inst))
        assert result.solved
        assert result.path_length == truth


def test_wall_time_is_recorded(maze_train_150):
    result = astar(maze_train_150[4], QuickHeuristic())
    assert result.wall_time > 0.0


# ---------------------------------------------------------------------------
# Equivalence with the engine as it was before the node table became the
# heuristic memo, and optimality under inconsistent admissible heuristics.

def reference_astar(instance, heuristic, max_iterations=None, tie_break=TieBreak.LARGER_G):
    """The engine with a separate state-to-h memo and its own expansion
    counter. Returns (result, expansions)."""
    t0 = time.perf_counter()
    h_seen = {}
    heuristic_calls = 0

    def evaluate(states, keys, g):
        nonlocal heuristic_calls
        miss = [(s, k) for s, k in zip(states, keys) if k not in h_seen]
        if miss:
            values = heuristic.evaluate_batch([s for s, _ in miss], instance, g)
            heuristic_calls += len(miss)
            for (_, k), v in zip(miss, values):
                h_seen[k] = float(v)
        return [h_seen[k] for k in keys]

    if tie_break is TieBreak.LARGER_G:
        entry = lambda node: (node.f, -node.g, -node.seq, node)
    else:
        entry = lambda node: (node.f, node.g, node.seq, node)

    start = instance.start_state
    start_key = start.key()
    h0 = evaluate([start], [start_key], 0)[0]
    root = SearchNode(start, start_key, 0, h0, None, 0)
    best = {start_key: root}
    heap = [entry(root)]
    closed = 0
    expansions = 0
    next_seq = 1

    def result(status, node=None):
        path = reconstruct_path(node) if node is not None else []
        plan = node.g if node is not None else 0
        res = SearchResult(status, path=path, path_length=plan, closed_length=closed,
                           heuristic_calls=heuristic_calls, wall_time=time.perf_counter() - t0)
        return res, expansions

    while heap:
        node = heappop(heap)[-1]
        if best.get(node.key) is not node:
            continue
        if domains.is_goal(node.state, instance):
            return result(Status.SOLUTION_FOUND, node)
        if max_iterations is not None and closed >= max_iterations:
            return result(Status.LIMIT_EXCEEDED)
        closed += 1
        expansions += 1
        g_child = node.g + 1
        states = [s for _, s in domains.successors(node.state, instance)]
        keys = [s.key() for s in states]
        hs = evaluate(states, keys, g_child)
        for s, k, h in zip(states, keys, hs):
            f = g_child + h
            existing = best.get(k)
            if existing is not None and f >= existing.f:
                continue
            child = SearchNode(s, k, g_child, h, node, next_seq)
            next_seq += 1
            best[k] = child
            heappush(heap, entry(child))
    return result(Status.FRONTIER_EXHAUSTED)


class RecordingEvaluator(HeuristicEvaluator):
    """Forwards to another evaluator and logs each call's state keys and depth."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate_batch(self, states, instance, g):
        self.calls.append(([s.key() for s in states], g))
        return self.inner.evaluate_batch(states, instance, g)


class HashScaledQuick(HeuristicEvaluator):
    """Admissible but inconsistent on every domain: a per-state fraction of
    the quick heuristic."""

    def evaluate_batch(self, states, instance, g):
        out = []
        for s in states:
            frac = int.from_bytes(hashlib.blake2b(s.key(), digest_size=4).digest(), "big") / 2**32
            out.append(frac * domains.quick_heuristic(s, instance))
        return out


def _random_instances():
    rng = random.Random(derive_seed(MASTER_SEED, "search-equivalence"))
    mazes = [generation.generate_maze(size, size, generation.GenFilter(), seed=rng.randrange(2**31))
             for size in (9, 11, 13, 15, 11, 13)]
    tiles = [generation.generate_stp(3, generation.GenFilter(), seed=rng.randrange(2**31)) for _ in range(4)]
    boxes = []
    while len(boxes) < 4:
        board = _reverse_pull_board(rng, n_boxes=2, pulls=rng.randint(16, 40))
        if board is not None:
            boxes.append(domains.parse_ascii(board, "sokoban"))
    return mazes + tiles + boxes


def _evaluator_factories(inst):
    factories = {
        "quick": QuickHeuristic,
        "zero": ZeroHeuristic,
        "hash_scaled_quick": HashScaledQuick,
    }
    if inst.domain is domains.Domain.MAZE:
        factories["hash_noise"] = lambda: HashNoiseHeuristic(inst)
        tables = oracle_tables([inst])
        spec = NoiseSpec(sigma=3.0, oracle_sections="middle", noise_seed=11)
        factories["noisy_oracle"] = lambda: NoisyOracle(spec, tables)
    return factories


def test_engine_matches_reference_engine():
    limits = (None, 3000, 25)
    seen = set()
    for inst in _random_instances():
        for name, make in _evaluator_factories(inst).items():
            for tie_break in TieBreak:
                for limit in limits:
                    if inst.domain is not domains.Domain.MAZE and limit is None:
                        continue  # uniform-cost search would sweep the whole state space
                    ours, theirs = RecordingEvaluator(make()), RecordingEvaluator(make())
                    got = astar(inst, ours, limit, tie_break)
                    want, want_expansions = reference_astar(inst, theirs, limit, tie_break)
                    label = (inst.domain.value, name, tie_break.value, limit)
                    assert got.status is want.status, label
                    assert got.path == want.path, label
                    assert got.path_length == want.path_length, label
                    assert got.closed_length == want.closed_length, label
                    assert got.expansions == want_expansions == got.closed_length, label
                    assert got.heuristic_calls == want.heuristic_calls, label
                    assert ours.calls == theirs.calls, label
                    seen.add((inst.domain, got.status))
    # The instances exercise solved and cut-off searches in every domain.
    for domain in domains.Domain:
        assert {(domain, Status.SOLUTION_FOUND), (domain, Status.LIMIT_EXCEEDED)} <= seen


class PairedEvaluator(HeuristicEvaluator):
    """Batches any depth-blind per-instance evaluator across instances: each
    run of rows from one instance in an ``evaluate_pairs`` call goes to that
    instance's own evaluator and is logged under the instance by its state
    keys. Lockstep rows carry no depth, so the inner evaluator is asked at
    depth 0."""

    def __init__(self, make):
        self.make = make  # instance -> evaluator
        self.inner = {}
        self.calls = {}

    def evaluate_pairs(self, states, instances):
        values = []
        for _, run in groupby(zip(states, instances), key=lambda row: id(row[1])):
            batch, (inst, *_) = zip(*run)
            self.calls.setdefault(id(inst), []).append([s.key() for s in batch])
            if id(inst) not in self.inner:
                self.inner[id(inst)] = self.make(inst)
            evaluator = self.inner[id(inst)]
            values += evaluator.evaluate_batch(list(batch), inst, 0)
        return values


def test_lockstep_matches_reference_engine_search_by_search():
    # Every search driven in lockstep, on all three domains at once, sees the
    # requests and values it would see alone: same results and, per search,
    # the same sequence of evaluation requests. There are more instances
    # than LOCKSTEP, so finished searches hand their places on.
    instances = _random_instances()
    assert len(instances) > LOCKSTEP
    makers = {
        "quick": lambda inst: QuickHeuristic(),
        "hash_scaled_quick": lambda inst: HashScaledQuick(),
    }
    for name, make in makers.items():
        for tie_break in TieBreak:
            for limit in (None, 3000, 25):
                subset = [inst for inst in instances if limit is not None or inst.domain is domains.Domain.MAZE]
                wanted = []
                for inst in subset:
                    theirs = RecordingEvaluator(make(inst))
                    want, _ = reference_astar(inst, theirs, limit, tie_break)
                    wanted.append((want, [keys for keys, _ in theirs.calls]))
                paired = PairedEvaluator(make)
                got = lockstep(subset, paired, limit, tie_break)
                assert len(got) == len(subset)
                for i, (inst, (_, res), (want, requests)) in enumerate(zip(subset, got, wanted)):
                    label = (i, name, tie_break.value, limit)
                    assert res.status is want.status, label
                    assert res.path == want.path, label
                    assert res.closed_length == want.closed_length, label
                    assert res.heuristic_calls == want.heuristic_calls, label
                    assert paired.calls[id(inst)] == requests, label


class RowClock:
    """A stand-in for ``time.perf_counter`` that moves only while an
    evaluator is called, by one second per row asked about."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def wrap(self, evaluate):
        def ticking(states, *rest):
            self.now += len(states)
            return evaluate(states, *rest)

        return ticking


def test_wall_time_is_the_charged_evaluator_time(monkeypatch):
    # Under a clock that ticks once per evaluated row, a search's charged
    # time is exactly its own rows: lockstep charges each search its share
    # of a round's call and nothing of the others' rows. The clock decides
    # nothing else: status, path and closed length match the real clock's.
    instances = generation.build_maze_split("test_iid", 3, scale=0.014)
    assert len(instances) == 7
    monkeypatch.setattr(evaluation, "LOCKSTEP", 4)
    paired = PairedEvaluator(lambda inst: QuickHeuristic())
    real = lockstep(instances, paired) + [("alone", astar(instances[0], QuickHeuristic()))]
    clock = RowClock()
    monkeypatch.setattr(time, "perf_counter", clock)
    paired.evaluate_pairs = clock.wrap(paired.evaluate_pairs)
    alone = QuickHeuristic()
    alone.evaluate_batch = clock.wrap(alone.evaluate_batch)
    ticked = lockstep(instances, paired) + [("alone", astar(instances[0], alone))]
    assert [iid for iid, _ in ticked] == [iid for iid, _ in real]
    for (iid, want), (_, got) in zip(real, ticked):
        assert got.wall_time == got.heuristic_calls, iid
        assert (got.status, got.path, got.closed_length) == (want.status, want.path, want.closed_length), iid


def test_engine_reads_no_clock(monkeypatch):
    # The engine leaves timing to its callers: driven by hand with every
    # clock of the time module broken, it still solves, and charges nothing.
    inst = maze.parse_ascii(OPEN_ROOM)
    quick = QuickHeuristic()
    want = astar(inst, quick)

    def broken():
        raise AssertionError("the engine read a clock")

    with monkeypatch.context() as patched:
        for name in ("perf_counter", "monotonic", "time", "thread_time"):
            patched.setattr(time, name, broken)
        steps = astar_steps(inst)
        try:
            states, g = next(steps)
            while True:
                states, g = steps.send(quick.evaluate_batch(states, inst, g))
        except StopIteration as done:
            got = done.value
    assert got.solved
    assert (got.path, got.closed_length, got.heuristic_calls) == (want.path, want.closed_length, want.heuristic_calls)
    assert got.wall_time == 0.0


def test_an_expansion_without_children_asks_nothing():
    # The start cell has no open neighbour, so its expansion has no children:
    # the evaluator is asked exactly once, for the root, by astar and by lockstep,
    # and never with an empty batch.
    inst = maze.parse_ascii(BLOCKED)
    evaluator = RecordingEvaluator(QuickHeuristic())
    result = astar(inst, evaluator)
    assert (result.status, result.closed_length) == (Status.FRONTIER_EXHAUSTED, 1)
    assert evaluator.calls == [([inst.start_state.key()], 0)]
    paired = PairedEvaluator(lambda inst: QuickHeuristic())
    [(_, result)] = lockstep([inst], paired)
    assert (result.status, result.closed_length) == (Status.FRONTIER_EXHAUSTED, 1)
    assert paired.calls == {id(inst): [[inst.start_state.key()]]}


class SlackedExact(HeuristicEvaluator):
    """Exact distance-to-goal minus a seeded per-state slack in [0, 4]:
    admissible, and inconsistent wherever neighbouring slacks differ by more
    than the step cost allows."""

    def __init__(self, instance, seed):
        self.dist = maze_bfs_distance(instance, start=instance.goal_spec)
        self.value = {}
        for cell, d in self.dist.items():
            slack = random.Random(derive_seed(seed, cell)).uniform(0.0, 4.0)
            self.value[domains.MazeState(cell).key()] = max(0.0, d - slack)

    def evaluate_batch(self, states, instance, g):
        return [self.value[s.key()] for s in states]


def test_plans_stay_optimal_under_slacked_exact_heuristics():
    rng = random.Random(derive_seed(MASTER_SEED, "slacked-exact"))
    inconsistent = 0
    for trial in range(60):
        size = rng.choice((7, 9, 11, 13))
        inst = generation.generate_maze(size, size, generation.GenFilter(), seed=rng.randrange(2**31))
        evaluator = SlackedExact(inst, trial)
        truth = maze_bfs_distance(inst)[inst.goal_spec]
        for tie_break in TieBreak:
            result = astar(inst, evaluator, tie_break=tie_break)
            assert result.solved
            assert result.path_length == truth, (trial, tie_break)
        # h(a) > 1 + h(b) for some neighbours a, b: the heuristic is inconsistent.
        inconsistent += any(
            evaluator.value[a.key()] > 1.0 + evaluator.value[b.key()]
            for a in map(domains.MazeState, evaluator.dist)
            for _, b in domains.successors(a, inst)
        )
    assert inconsistent == 60
