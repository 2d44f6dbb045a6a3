"""Sliding-tile puzzle on a w x w board; tile 0 is the blank.

The canonical goal places the blank first: (0, 1, ..., w*w-1). Internally
tiles are always digits; alphabet remapping happens only when exporting
prompts.
"""

from __future__ import annotations

import math

from .base import DIRECTIONS, Domain, ParseError, PuzzleInstance, StpBoard, StpState

LEGEND = "0 - empty space"


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


def successors(state: StpState, instance: PuzzleInstance):
    w = state.width
    z = state.tiles.index(0)
    zr, zc = divmod(z, w)
    out = []
    for action, (dr, dc) in DIRECTIONS:
        nr, nc = zr + dr, zc + dc
        if not (0 <= nr < w and 0 <= nc < w):
            continue
        nz = nr * w + nc
        tiles = list(state.tiles)
        tiles[z], tiles[nz] = tiles[nz], tiles[z]
        out.append((action, StpState(tuple(tiles), w)))
    return out


def is_goal(state: StpState, instance: PuzzleInstance) -> bool:
    return state.tiles == instance.goal_spec


def quick_heuristic(state: StpState, instance: PuzzleInstance) -> int:
    """Sum of tile Manhattan displacements, blank excluded. Under the
    canonical goal, tile t belongs at cell divmod(t, w)."""
    w = state.width
    total = 0
    for idx, tile in enumerate(state.tiles):
        if tile == 0:
            continue
        r, c = divmod(idx, w)
        gr, gc = divmod(tile, w)
        total += abs(r - gr) + abs(c - gc)
    return total


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
    if sorted(tiles) != list(range(len(tiles))):
        raise ParseError("tiles are not a permutation of 0..n-1")
    return make_instance(tiles, width)


def feature_vector(state: StpState, instance: PuzzleInstance) -> list[float]:
    w = state.width
    n = w * w
    z = state.tiles.index(0)
    zr, zc = divmod(z, w)
    # Histogram over per-tile Manhattan displacement (0..2(w-1), blank excluded).
    hist = [0.0] * (2 * w - 1)
    for idx, tile in enumerate(state.tiles):
        if tile == 0:
            continue
        r, c = divmod(idx, w)
        gr, gc = divmod(tile, w)
        hist[abs(r - gr) + abs(c - gc)] += 1.0
    # Column 0 is quick_heuristic: the displacements summed from their histogram.
    feats = [sum(d * count for d, count in enumerate(hist)), zr / (w - 1), zc / (w - 1)]
    feats.extend(hist)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            rr, cc = zr + dr, zc + dc
            if 0 <= rr < w and 0 <= cc < w:
                feats.append(state.tiles[rr * w + cc] / (n - 1))
            else:
                feats.append(-1.0)
    return feats
