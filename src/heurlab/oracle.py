"""Exact distance oracles and the section-targeted noise study.

The study perturbs an exact distance-to-goal table with per-state Gaussian
noise in two of the three path sections (by depth thirds) while keeping the
oracle exact in the remaining one, then compares search metrics across which
section stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from . import domains, evaluation
from .domains import Domain, MazeState, PuzzleInstance
from .search import HeuristicEvaluator, SearchLimits, TieBreak
from .util import unit_normal


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
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "oracle_sections", parse_sections(self.oracle_sections))


class NoisyOracle(HeuristicEvaluator):
    """Exact h* inside the NoiseSpec's oracle sections, h* + N(0, sigma) elsewhere.

    Noise is a pure function of (noise_seed, state key), so a state keeps the
    same perturbed value across re-encounters and runs reproduce exactly. The
    per_query switch instead redraws on every evaluation, which also disables
    the engine's per-state reuse. Section classification uses the request's
    one depth g against the instance's optimal plan length; as the value
    depends on depth, the oracle does not batch across instances.
    """

    def __init__(self, instance: PuzzleInstance, spec: NoiseSpec, distances: dict[bytes, int] | None = None):
        self.spec = spec
        self.distances = distances if distances is not None else oracle_distances(instance)
        start_key = instance.start_state.key()
        if start_key not in self.distances:
            raise ValueError("start state is not connected to the goal")
        self.plan_len = self.distances[start_key]
        self.cacheable = not spec.per_query
        self._draws = 0

    def evaluate_batch(self, states, instance, g):
        spec = self.spec
        exact = spec.oracle_sections == ALL_SECTIONS or section_of(g, self.plan_len) in spec.oracle_sections
        out = []
        for state in states:
            key = state.key()
            d = self.distances.get(key)
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
                draw = self._draws
                self._draws += 1
            value = d + spec.sigma * unit_normal(spec.noise_seed, key, draw)
            if spec.clamp_at_zero and value < 0:
                value = 0.0
            out.append(value)
        return out


def exact_oracle(instance: PuzzleInstance, distances: dict[bytes, int] | None = None) -> NoisyOracle:
    return NoisyOracle(instance, NoiseSpec(sigma=0.0, oracle_sections="all"), distances)


def run_oracle_experiment(
    instances: Sequence[PuzzleInstance],
    sigmas: Iterable[float],
    seeds: Iterable[int],
    limits: SearchLimits = SearchLimits(),
    clamp_at_zero: bool = True,
    per_query: bool = False,
    jobs: int = 1,
):
    """Solve every instance under every (kept-exact section, sigma, seed) mix.

    Returns (rows, details): one aggregate row per table line ("all" first,
    then each sigma by section), and the per-(row, seed) metric reports.
    """
    sigmas = list(sigmas)
    seeds = list(seeds)
    references, failed = evaluation.compute_references(instances, limits=limits, jobs=jobs)
    if failed:
        raise ValueError(f"{len(failed)} instances lack reference solutions: {failed[:5]}")
    tables = {inst.id: oracle_distances(inst) for inst in instances}

    rows = []
    details = {}
    exact = evaluation.solve_and_score(
        instances, references, lambda inst: exact_oracle(inst, tables[inst.id]), limits, TieBreak.LARGER_G, jobs
    )
    details[("all", None, None)] = exact
    rows.append(_row("all", None, [exact]))
    for sigma in sigmas:
        for section in SectionLabel:
            per_seed = []
            for seed in seeds:
                spec = NoiseSpec(
                    sigma=sigma,
                    oracle_sections=section,
                    noise_seed=seed,
                    clamp_at_zero=clamp_at_zero,
                    per_query=per_query,
                )
                noisy = lambda inst: NoisyOracle(inst, spec, tables[inst.id])
                report = evaluation.solve_and_score(instances, references, noisy, limits, TieBreak.LARGER_G, jobs)
                details[(section.value, sigma, seed)] = report
                per_seed.append(report)
            rows.append(_row(section.value, sigma, per_seed))
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
