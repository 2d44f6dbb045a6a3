"""Sliding-tile puzzle on a w x w board; tile 0 is the blank.

The canonical goal places the blank first: (0, 1, ..., w*w-1). Internally
tiles are always digits; alphabet remapping happens only when exporting
prompts.
"""

from __future__ import annotations

import functools
import math
from operator import getitem
from typing import NamedTuple

from .base import DIRECTIONS, Domain, ParseError, PuzzleInstance, StpBoard, StpState

LEGEND = "0 - empty space"

TABLE_WIDTHS = 8  # board widths whose lookup tables are kept


def make_instance(tiles, width: int, id: str = "", seed: int | None = None, provenance=None) -> PuzzleInstance:
    return PuzzleInstance(
        domain=Domain.STP,
        board=StpBoard(width),
        start_state=StpState(tuple(tiles), width),
        goal_spec=tuple(range(width * width)),
        id=id,
        seed=seed,
        provenance=provenance or {},
    )


class Tables(NamedTuple):
    """Per-width lookup tables; cells are flat row-major indexes."""

    moves: tuple  # moves[blank]: (action, cell the blank moves to), in DIRECTIONS order
    manhattan: tuple  # manhattan[cell][tile]: the tile's distance from its goal cell; 0 for the blank
    neighbourhood: tuple  # neighbourhood[blank]: the 3x3 cells around it, row-major; -1 off the board


@functools.lru_cache(maxsize=TABLE_WIDTHS)
def tables(width: int) -> Tables:
    """The tables of one board width, built on first use; ``TABLE_WIDTHS`` widths are kept."""
    cells = [divmod(i, width) for i in range(width * width)]
    on_board = lambda r, c: 0 <= r < width and 0 <= c < width
    moves = tuple(
        tuple((action, (r + dr) * width + c + dc) for action, (dr, dc) in DIRECTIONS if on_board(r + dr, c + dc))
        for r, c in cells
    )
    manhattan = tuple(
        tuple(0 if tile == 0 else abs(r - gr) + abs(c - gc) for tile, (gr, gc) in enumerate(cells))
        for r, c in cells
    )
    neighbourhood = tuple(
        tuple((r + dr) * width + c + dc if on_board(r + dr, c + dc) else -1 for dr in (-1, 0, 1) for dc in (-1, 0, 1))
        for r, c in cells
    )
    return Tables(moves, manhattan, neighbourhood)


def successors(state: StpState, instance: PuzzleInstance):
    tiles, w = state.tiles, state.width
    z = tiles.index(0)
    out = []
    for action, nz in tables(w).moves[z]:
        child = list(tiles)
        child[z] = tiles[nz]
        child[nz] = 0
        out.append((action, StpState(tuple(child), w)))
    return out


def is_goal(state: StpState, instance: PuzzleInstance) -> bool:
    return state.tiles == instance.goal_spec


def quick_heuristic(state: StpState, instance: PuzzleInstance) -> int:
    """Sum of tile Manhattan displacements, blank excluded. Under the
    canonical goal, tile t belongs at cell divmod(t, w)."""
    return sum(map(getitem, tables(state.width).manhattan, state.tiles))


def render_ascii(instance: PuzzleInstance, state: StpState | None = None) -> str:
    state = state or instance.start_state
    return " ".join(str(t) for t in state.tiles)


def parse_ascii(text: str) -> PuzzleInstance:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty tile text")
    tiles = []
    for i, tok in enumerate(tokens):
        if not tok.isdigit():
            raise ParseError(f"non-numeric tile {tok!r}", line=1, column=i + 1)
        tiles.append(int(tok))
    width = math.isqrt(len(tiles))
    if width * width != len(tiles):
        raise ParseError(f"{len(tiles)} tiles do not form a square board")
    if width < 2:
        raise ParseError(f"board is {width}x{width}; it needs at least 2x2")
    if sorted(tiles) != list(range(len(tiles))):
        raise ParseError("tiles are not a permutation of 0..n-1")
    return make_instance(tiles, width)


def feature_vector(state: StpState, instance: PuzzleInstance) -> list[float]:
    tiles, w = state.tiles, state.width
    table = tables(w)
    n = w * w
    z = tiles.index(0)
    zr, zc = divmod(z, w)
    # Histogram over per-tile Manhattan displacement (0..2(w-1)); the table
    # puts the blank at distance 0, so it is taken out of that bin.
    hist = [0.0] * (2 * w - 1)
    total = 0
    for d in map(getitem, table.manhattan, tiles):
        hist[d] += 1.0
        total += d
    hist[0] -= 1.0
    # Column 0 is quick_heuristic.
    feats = [float(total), zr / (w - 1), zc / (w - 1)]
    feats.extend(hist)
    feats.extend(tiles[i] / (n - 1) if i >= 0 else -1.0 for i in table.neighbourhood[z])
    return feats
