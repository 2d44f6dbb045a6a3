"""Sokoban: player pushes boxes onto docks; pushes are irreversible moves."""

from __future__ import annotations

import functools

from .base import (
    DIRECTIONS,
    Domain,
    ParseError,
    PuzzleInstance,
    SokobanBoard,
    SokobanState,
    cells_window,
    manhattan,
    parse_grid,
    render_grid,
    single_cell,
    wall_window,
)
from .hungarian import hungarian_min_cost

LEGEND = "@ - player, # - wall, . - empty docks, ' ' - empty cell, $ - box, X - box on dock, O - player on dock"

GLYPHS = "#@$.XO "

# Box configurations whose assignment cost is remembered. A search revisits a
# configuration on every move that pushes no box, so most assignment solves
# would repeat an earlier one.
ASSIGNMENT_CACHE_SIZE = 4096


def successors(state: SokobanState, instance: PuzzleInstance):
    walls = instance.board.walls
    h, w = len(walls), len(walls[0])
    boxes = state.boxes
    pr, pc = state.player
    out = []
    for action, (dr, dc) in DIRECTIONS:
        tr, tc = pr + dr, pc + dc
        if not (0 <= tr < h and 0 <= tc < w) or walls[tr][tc]:
            continue
        target = (tr, tc)
        if target in boxes:
            br, bc = tr + dr, tc + dc
            if not (0 <= br < h and 0 <= bc < w) or walls[br][bc] or (br, bc) in boxes:
                continue
            moved = [(br, bc) if b == target else b for b in boxes]
            out.append((action, SokobanState.make(target, moved)))
        else:
            out.append((action, SokobanState(target, boxes)))
    return out


def is_goal(state: SokobanState, instance: PuzzleInstance) -> bool:
    return state.boxes == instance.board.docks


def quick_heuristic(state: SokobanState, instance: PuzzleInstance) -> int:
    """Walk-to-nearest-box term plus a minimum-cost box-to-dock assignment.

    The walk term is min-over-boxes Manhattan minus one: the player only ever
    needs to reach a cell adjacent to the first box it pushes, and each push
    itself is counted by the assignment term. Dropping the -1 would
    overestimate (e.g. player next to a box one step from its dock: true cost
    is a single push). Zero once every box is docked, which is the goal test.
    """
    docks = instance.board.docks
    if state.boxes == docks:
        return 0
    pr, pc = state.player
    nearest = min([abs(pr - br) + abs(pc - bc) for br, bc in state.boxes])
    return max(0, nearest - 1) + _assignment_cost(state.boxes, docks)


@functools.lru_cache(maxsize=ASSIGNMENT_CACHE_SIZE)
def _assignment_cost(boxes, docks) -> int:
    """Minimum total Manhattan distance over box-to-dock assignments."""
    costs = [[manhattan(box, dock) for dock in docks] for box in boxes]
    _, total = hungarian_min_cost(costs)
    return int(total)


def render_ascii(instance: PuzzleInstance, state: SokobanState | None = None) -> str:
    state = state or instance.start_state
    docks = frozenset(instance.board.docks)
    overlay = dict.fromkeys(docks, ".")
    for box in state.boxes:
        overlay[box] = "X" if box in docks else "$"
    overlay[state.player] = "O" if state.player in docks else "@"
    return render_grid(instance.board.walls, " ", overlay)


def parse_ascii(text: str) -> PuzzleInstance:
    walls, cells = parse_grid(text, GLYPHS)
    player = single_cell(sorted(cells["@"] + cells["O"]), "player")
    boxes = cells["$"] + cells["X"]
    docks = cells["."] + cells["X"] + cells["O"]
    if len(boxes) != len(docks):
        raise ParseError(f"box/dock count mismatch: {len(boxes)} boxes, {len(docks)} docks")
    board = SokobanBoard(walls, tuple(sorted(docks)))
    return PuzzleInstance(
        domain=Domain.SOKOBAN,
        board=board,
        start_state=SokobanState.make(player, boxes),
        goal_spec=board.docks,
    )


def feature_vector(state: SokobanState, instance: PuzzleInstance) -> list[float]:
    walls, docks = instance.board
    h, w = len(walls), len(walls[0])
    player = state.player
    pr, pc = player
    pair_dists = [abs(br - dr) + abs(bc - dc) for br, bc in state.boxes for dr, dc in docks]
    feats = [
        float(quick_heuristic(state, instance)),
        pr / (h - 1),
        pc / (w - 1),
        float(min(pair_dists)),
        sum(pair_dists) / len(pair_dists),
        float(max(pair_dists)),
    ]
    feats.extend(wall_window(instance, player))
    feats.extend(cells_window(state.boxes, player))
    feats.extend(cells_window(docks, player))
    return feats
