"""Puzzle domains and the dispatch layer the search engine talks to."""

from __future__ import annotations

from . import maze, sokoban, stp
from .base import (
    Cell,
    DIRECTIONS,
    Domain,
    MazeBoard,
    MazeState,
    OPPOSITE_ACTION,
    ParseError,
    PuzzleInstance,
    SokobanBoard,
    SokobanState,
    StpBoard,
    StpState,
    manhattan,
)
from .hungarian import hungarian_min_cost

_MODULES = {Domain.MAZE: maze, Domain.SOKOBAN: sokoban, Domain.STP: stp}

LEGENDS = {domain: module.LEGEND for domain, module in _MODULES.items()}


def successors(state, instance: PuzzleInstance):
    """Ordered (action, child state) pairs; the order is fixed per domain."""
    return _MODULES[instance.domain].successors(state, instance)


def is_goal(state, instance: PuzzleInstance) -> bool:
    return _MODULES[instance.domain].is_goal(state, instance)


def quick_heuristic(state, instance: PuzzleInstance) -> int:
    """The domain's cheap admissible heuristic."""
    return _MODULES[instance.domain].quick_heuristic(state, instance)


def feature_vector(state, instance: PuzzleInstance) -> list[float]:
    """Fixed-length real vector per (domain, board size), for models and dedup."""
    return _MODULES[instance.domain].feature_vector(state, instance)


def render_ascii(instance: PuzzleInstance, state=None) -> str:
    return _MODULES[instance.domain].render_ascii(instance, state)


def parse_ascii(text: str, domain: Domain | str) -> PuzzleInstance:
    return _MODULES[Domain(domain)].parse_ascii(text)


__all__ = [
    "Cell",
    "DIRECTIONS",
    "Domain",
    "LEGENDS",
    "MazeBoard",
    "MazeState",
    "OPPOSITE_ACTION",
    "ParseError",
    "PuzzleInstance",
    "SokobanBoard",
    "SokobanState",
    "StpBoard",
    "StpState",
    "hungarian_min_cost",
    "manhattan",
    "maze",
    "sokoban",
    "stp",
    "successors",
    "is_goal",
    "quick_heuristic",
    "feature_vector",
    "render_ascii",
    "parse_ascii",
]
