"""Best-first search engine with duplicate detection and node reopening.

The engine expands the frontier node with the smallest f = g + h (unit edge
costs, exact float comparison). A child is admitted to the tree iff no node
with the same state exists in frontier-union-closed, or one exists with
strictly greater f; the admitted child supersedes it, and a superseded closed
node may be re-expanded, which keeps solutions optimal under admissible but
inconsistent heuristics. The goal test happens at selection, not generation.

``closed_length`` counts selection steps that entered the closed list; the
terminal goal selection returns before being closed, so with an exact oracle
heuristic and larger-g tie-breaking it equals the optimal plan length.

The table of best nodes per state key is also the heuristic memo: every
evaluated state enters it and never leaves, so a cacheable evaluator is asked
only about states not yet in it.

The engine is one generator, ``astar_steps``, which yields each evaluation
request ``(states, g)``, one node's children and the depth they share (the
root alone at 0), and is sent the values back. ``astar`` drives one search
with one ``evaluate_batch`` per request; ``evaluation.solve_all`` gives one
evaluator all the searches of a solve and drives several in lockstep when it
batches across instances, with one ``evaluate_pairs`` call per round whose
rows carry no depth. Time attribution: a search's ``wall_time`` (and so its
ITR) is the ``perf_counter`` time of its own steps plus its share of each
evaluation call, split by the rows it asked for; a search driven alone is
charged each call in full. Each request's values come back with the seconds
since the request that went to other searches, and the engine leaves those
out. The clock feeds only ``wall_time``: no branch of the search reads it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Generator, Optional, Sequence

from . import domains


class Status(Enum):
    SOLUTION_FOUND = "solution_found"
    FRONTIER_EXHAUSTED = "frontier_exhausted"
    LIMIT_EXCEEDED = "limit_exceeded"


class TieBreak(Enum):
    """How f-ties are ordered: deeper-first/LIFO or shallower-first/FIFO."""

    LARGER_G = "larger_g"
    SMALLER_G = "smaller_g"


@dataclass(frozen=True)
class SearchLimits:
    max_iterations: int | None = None  # cap on closed_length

    def __post_init__(self):
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


class SearchNode:
    __slots__ = ("state", "key", "g", "h", "f", "parent", "seq")

    def __init__(self, state, key: bytes, g: int, h: float, parent: Optional["SearchNode"], seq: int):
        self.state = state
        self.key = key
        self.g = g
        self.h = h
        self.f = g + h
        self.parent = parent
        self.seq = seq


@dataclass
class SearchResult:
    status: Status
    path: list = field(default_factory=list)  # states start..goal when solved
    path_length: int = 0  # moves
    closed_length: int = 0
    heuristic_calls: int = 0
    wall_time: float = 0.0

    @property
    def solved(self) -> bool:
        return self.status is Status.SOLUTION_FOUND

    @property
    def expansions(self) -> int:
        """Expanded nodes; every expansion closes one, so this is ``closed_length``."""
        return self.closed_length


class HeuristicEvaluator:
    """Batch heuristic interface consumed by the engine: one
    ``evaluate_batch(states, instance, g)`` per request, whose states share
    the depth ``g``. One evaluator serves every search of a solve.

    ``cacheable`` lets the engine reuse a state's value within one search, so
    each distinct state is evaluated at most once; evaluators whose value is
    not a pure function of the state opt out.

    An evaluator batches across instances exactly when it defines
    ``evaluate_pairs(states, instances)``: state ``i`` of instance ``i``,
    with each value independent of the other rows. The rows carry no depth,
    so an evaluator whose value depends on depth does not define it.
    """

    cacheable: bool = True

    def evaluate_batch(self, states, instance, g) -> list[float]:
        raise NotImplementedError


class QuickHeuristic(HeuristicEvaluator):
    def evaluate_batch(self, states, instance, g):
        return [float(domains.quick_heuristic(s, instance)) for s in states]


class ZeroHeuristic(HeuristicEvaluator):
    """Degenerates A* to uniform-cost search; useful as an informativeness floor."""

    def evaluate_batch(self, states, instance, g):
        return [0.0] * len(states)


def reconstruct_path(node: SearchNode) -> list:
    """States from the root to ``node``; length is g(node) + 1."""
    path = []
    while node is not None:
        path.append(node.state)
        node = node.parent
    path.reverse()
    return path


def astar_steps(
    instance: domains.PuzzleInstance,
    cacheable: bool = True,
    limits: SearchLimits = SearchLimits(),
    tie_break: TieBreak = TieBreak.LARGER_G,
) -> Generator[tuple[list, int], tuple[Sequence[float], float], SearchResult]:
    """The search engine as a generator: it yields each evaluation request
    ``(states, g)``, the states and the depth they share, and is sent back
    ``(values, idle)``, the states' heuristic values and the seconds since
    the request that went to other searches. It returns the
    ``SearchResult`` (as ``StopIteration.value``).

    A cacheable evaluator is asked at most once per expansion, only about
    children not yet in the node table, and not at all when every child is
    known; an uncacheable one exactly once per expansion, empty requests
    included. ``wall_time`` is the charged time: the seconds since the
    search started, less every ``idle``."""
    clock = time.perf_counter
    started = clock()
    idle_total = 0.0
    max_iterations = limits.max_iterations
    sign = -1 if tie_break is TieBreak.LARGER_G else 1  # heap entries are (f, sign*g, sign*seq, node)
    # Resolved per search, not at import, so that wrappers installed around
    # the dispatch functions since then are the ones called.
    successors = domains.successors
    is_goal = domains.is_goal

    start = instance.start_state
    start_key = start.key()
    values, idle = yield [start], 0
    idle_total += idle
    heuristic_calls = 1
    root = SearchNode(start, start_key, 0, float(values[0]), None, 0)
    best: dict[bytes, SearchNode] = {start_key: root}
    heap = [(root.f, 0, 0, root)]
    closed = 0
    next_seq = 1

    def result(status, node=None):
        wall = clock() - started - idle_total
        if node is None:
            return SearchResult(status, [], 0, closed, heuristic_calls, wall)
        return SearchResult(status, reconstruct_path(node), node.g, closed, heuristic_calls, wall)

    while heap:
        node = heappop(heap)[-1]
        if best[node.key] is not node:
            continue  # superseded by a cheaper duplicate; lazy deletion
        state = node.state
        if is_goal(state, instance):
            return result(Status.SOLUTION_FOUND, node)
        if max_iterations is not None and closed >= max_iterations:
            return result(Status.LIMIT_EXCEEDED)
        closed += 1
        g_child = node.g + 1
        children = []
        asked = []
        for _, s in successors(state, instance):
            k = s.key()
            children.append((s, k))
            if not cacheable or k not in best:
                asked.append(s)
        if asked or not cacheable:
            values, idle = yield asked, g_child
            idle_total += idle
            values = iter(values)
            heuristic_calls += len(asked)
        for s, k in children:
            existing = best.get(k)
            h = existing.h if cacheable and existing is not None else float(next(values))
            f = g_child + h
            if existing is not None and f >= existing.f:
                continue
            child = SearchNode(s, k, g_child, h, node, next_seq)
            best[k] = child  # supersedes a frontier twin or reopens a closed state
            # child.f rather than f: the entry shares the node's float, one per node.
            heappush(heap, (child.f, sign * g_child, sign * next_seq, child))
            next_seq += 1
    return result(Status.FRONTIER_EXHAUSTED)


def astar(
    instance: domains.PuzzleInstance,
    heuristic: HeuristicEvaluator,
    limits: SearchLimits = SearchLimits(),
    tie_break: TieBreak = TieBreak.LARGER_G,
) -> SearchResult:
    """Solve ``instance``; exhaustion and limits are ordinary results, not
    errors. Drives ``astar_steps`` with one ``evaluate_batch`` per request;
    no time goes to another search, so every request is sent back with no
    idle seconds."""
    steps = astar_steps(instance, heuristic.cacheable, limits, tie_break)
    try:
        states, g = next(steps)
        while True:
            states, g = steps.send((heuristic.evaluate_batch(states, instance, g), 0.0))
    except StopIteration as done:
        return done.value
