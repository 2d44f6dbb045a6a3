"""Exact distance oracles and the section-targeted noise study.

The study perturbs an exact distance-to-goal table with per-state Gaussian
noise in two of the three path sections (by depth thirds) while keeping the
oracle exact in the remaining one, then compares search metrics across which
section stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable, Mapping, Sequence

from . import domains, evaluation
from .domains import Domain, MazeState, PuzzleInstance
from .search import HeuristicEvaluator, TieBreak
from .util import map_tasks, unit_normal


class SectionLabel(str, Enum):
    INITIAL = "initial"
    MIDDLE = "middle"
    END = "end"


ALL_SECTIONS = frozenset(SectionLabel)


def section_of(g: int, plan_len: int) -> SectionLabel:
    """Classify a node by depth thirds: initial < 1/3 <= middle < 2/3 <= end."""
    if plan_len <= 0:
        raise ValueError("plan_len must be positive")
    if g < 0:
        raise ValueError("g must be nonnegative")
    if g < plan_len / 3:
        return SectionLabel.INITIAL
    if g < 2 * plan_len / 3:
        return SectionLabel.MIDDLE
    return SectionLabel.END


class UnsupportedDomainError(ValueError):
    pass


def oracle_distances(instance: PuzzleInstance) -> dict[bytes, int]:
    """Exact distance-to-goal for every reachable cell, keyed by state key.

    Breadth-first search outward from the goal (moves are reversible and
    unit-cost); only mazes have a small enough state space for a full table.
    """
    if instance.domain is not Domain.MAZE:
        raise UnsupportedDomainError(f"exact oracle tables only cover mazes, not {instance.domain.value}")
    width = instance.board.width
    dist = domains.maze.bfs_distances(instance.board.walls, instance.goal_spec)
    return {MazeState(divmod(i, width)).key(): d for i, d in enumerate(dist) if d >= 0}


def oracle_tables(instances: Sequence[PuzzleInstance]) -> dict[str, dict[bytes, int]]:
    """Each instance's ``oracle_distances`` table, keyed by instance id; a
    repeated id, or a start that does not reach the goal, is a ``ValueError``."""
    tables = {}
    for inst in instances:
        if inst.id in tables:
            raise ValueError(f"instance id {inst.id!r} is repeated")
        table = oracle_distances(inst)
        if inst.start_state.key() not in table:
            raise ValueError(f"instance {inst.id!r}: start state is not connected to the goal")
        tables[inst.id] = table
    return tables


_SELECTORS = {
    "all": ALL_SECTIONS,
    **{s.value: frozenset([s]) for s in SectionLabel},
    **{f"~{s.value}": ALL_SECTIONS - {s} for s in SectionLabel},
}


def parse_sections(selector: str) -> frozenset[SectionLabel]:
    """The sections a selector names, in any case: ``all``, one of
    ``initial``/``middle``/``end``, or ``~<section>`` for the other two."""
    try:
        return _SELECTORS[selector.lower()]
    except (AttributeError, KeyError):  # a non-string has no .lower()
        raise ValueError(f"unknown section selector {selector!r}; choose from {sorted(_SELECTORS)}") from None


@dataclass(frozen=True)
class NoiseSpec:
    """Which sections keep the exact oracle, and how the rest are perturbed."""

    sigma: float
    oracle_sections: str = "all"  # a parse_sections selector; held as the parsed set
    noise_seed: int = 0
    clamp_at_zero: bool = True
    per_query: bool = False  # redraw noise on every query instead of per state

    def __post_init__(self):
        if not 0 <= self.sigma < float("inf"):  # refuses NaN too
            raise ValueError("sigma must be finite and nonnegative")
        object.__setattr__(self, "oracle_sections", parse_sections(self.oracle_sections))


class NoisyOracle(HeuristicEvaluator):
    """Exact h* inside the NoiseSpec's oracle sections, h* + N(0, sigma) elsewhere.

    One oracle serves a solve: ``tables`` maps instance ids to exact distance
    tables (``oracle_tables``). Noise is a pure function of (noise_seed, state
    key), so a state keeps its perturbed value across re-encounters and runs
    reproduce exactly. The per_query switch instead redraws on every
    evaluation, counting draws per instance id, and disables the engine's
    per-state reuse. Section classification uses the request's one depth g
    against the instance's optimal plan length, its table's value at the
    start; as the value depends on depth, the oracle does not batch across
    instances.
    """

    def __init__(self, spec: NoiseSpec, tables: Mapping[str, dict[bytes, int]]):
        self.spec = spec
        self.tables = tables
        self.cacheable = not spec.per_query
        self._draws = {}  # per_query draws so far, by instance id

    def evaluate_batch(self, states, instance, g):
        spec = self.spec
        distances = self.tables[instance.id]
        exact = spec.oracle_sections == ALL_SECTIONS or (
            section_of(g, distances[instance.start_state.key()]) in spec.oracle_sections
        )
        out = []
        for state in states:
            key = state.key()
            d = distances.get(key)
            if d is None:
                # A state the table lacks (a pocket that wall breaking cut off)
                # gets the quick heuristic. This branch serves direct calls
                # only: a search starts from a state that reaches the goal and
                # maze moves are reversible, so every state it generates is in
                # the table.
                out.append(float(domains.quick_heuristic(state, instance)))
                continue
            if exact:
                out.append(float(d))
                continue
            draw = 0
            if spec.per_query:
                draw = self._draws.get(instance.id, 0)
                self._draws[instance.id] = draw + 1
            value = d + spec.sigma * unit_normal(spec.noise_seed, key, draw)
            if spec.clamp_at_zero and value < 0:
                value = 0.0
            out.append(value)
        return out


def exact_oracle(tables: Mapping[str, dict[bytes, int]]) -> NoisyOracle:
    return NoisyOracle(NoiseSpec(sigma=0.0), tables)


def run_oracle_experiment(
    instances: Sequence[PuzzleInstance],
    sigmas: Iterable[float],
    seeds: Iterable[int],
    max_iterations: int | None = None,
    clamp_at_zero: bool = True,
    per_query: bool = False,
    jobs: int = 1,
):
    """Solve every instance under every (kept-exact section, sigma, seed) mix.

    Returns (rows, details): one aggregate row per table line ("all" first,
    then each sigma by section), and the per-(row, seed) metric reports.
    At ``jobs`` > 1 whole passes go to the workers, since an oracle holds
    every table and a chunk of instances would carry them all.
    """
    sigmas = list(sigmas)
    seeds = list(seeds)
    tables = oracle_tables(instances)
    oracles = {("all", None, None): exact_oracle(tables)}
    for sigma in sigmas:
        for section in SectionLabel:
            for seed in seeds:
                spec = NoiseSpec(sigma, section, seed, clamp_at_zero=clamp_at_zero, per_query=per_query)
                oracles[section.value, sigma, seed] = NoisyOracle(spec, tables)
    references, failed = evaluation.compute_references(instances, max_iterations, jobs)
    if failed:
        raise ValueError(f"{len(failed)} instances lack reference solutions: {failed[:5]}")
    solve_pass = partial(evaluation.solve_and_score, instances, references,
                         max_iterations=max_iterations, tie_break=TieBreak.LARGER_G, jobs=1)
    details = dict(zip(oracles, map_tasks(solve_pass, list(oracles.values()), jobs, chunksize=1)))
    rows = [_row("all", None, [details["all", None, None]])]
    for sigma in sigmas:
        for section in SectionLabel:
            rows.append(_row(section.value, sigma, [details[section.value, sigma, seed] for seed in seeds]))
    return rows, details


def _row(set_name: str, sigma: float | None, reports) -> dict:
    means = evaluation.mean_over_reports(reports)
    return {"set": set_name, "sigma": sigma, **{key: means[key] for key in evaluation.HEADLINE_METRICS}}


def ordering_holds(rows: Sequence[dict], margin: float = 0.0) -> bool:
    """True when end > middle > initial on ILR-on-solved for every sigma."""
    by_sigma: dict[float, dict[str, float]] = {}
    for row in rows:
        if row["set"] == "all":
            continue
        by_sigma.setdefault(row["sigma"], {})[row["set"]] = row["ilr_on_solved"]
    if not by_sigma:
        return False
    for sigma, vals in by_sigma.items():
        if not (vals["end"] >= vals["middle"] + margin and vals["middle"] >= vals["initial"] + margin):
            return False
    return True
