"""Grid maze: one player cell, one goal cell, four-connected moves."""

from __future__ import annotations

from .base import (
    DIRECTIONS,
    Cell,
    Domain,
    MazeBoard,
    MazeState,
    ParseError,
    PuzzleInstance,
    manhattan,
    parse_grid,
    render_grid,
    single_cell,
    wall_window,
)

LEGEND = "@ - player, # - wall, . - empty cell, X - goal"

GLYPHS = "#.@X"


def successors(state: MazeState, instance: PuzzleInstance):
    walls = instance.board.walls
    h, w = len(walls), len(walls[0])
    r, c = state.player
    out = []
    for action, (dr, dc) in DIRECTIONS:
        nr, nc = r + dr, c + dc
        if 0 <= nr < h and 0 <= nc < w and not walls[nr][nc]:
            out.append((action, MazeState((nr, nc))))
    return out


def is_goal(state: MazeState, instance: PuzzleInstance) -> bool:
    return state.player == instance.goal_spec


def quick_heuristic(state: MazeState, instance: PuzzleInstance) -> int:
    return manhattan(state.player, instance.goal_spec)


def bfs_distances(walls, start: Cell) -> list[int]:
    """Exact unit-cost distances from ``start`` over open cells.

    Indexed by flat cell ``r * width + c``; -1 marks a wall or an open cell
    that ``start`` cannot reach.
    """
    h, w = len(walls), len(walls[0])
    n = h * w
    blocked = [cell for row in walls for cell in row]
    dist = [-1] * n
    origin = start[0] * w + start[1]
    dist[origin] = 0
    queue = [origin]
    last = w - 1
    for i in queue:  # grows while it is walked: a FIFO without popping
        d = dist[i] + 1
        # Neighbours in DIRECTIONS order; the column tests stop row wrap-around.
        j = i - w
        if j >= 0 and dist[j] < 0 and not blocked[j]:
            dist[j] = d
            queue.append(j)
        j = i + w
        if j < n and dist[j] < 0 and not blocked[j]:
            dist[j] = d
            queue.append(j)
        col = i % w
        j = i - 1
        if col and dist[j] < 0 and not blocked[j]:
            dist[j] = d
            queue.append(j)
        j = i + 1
        if col < last and dist[j] < 0 and not blocked[j]:
            dist[j] = d
            queue.append(j)
    return dist


def render_ascii(instance: PuzzleInstance, state: MazeState | None = None) -> str:
    player = (state or instance.start_state).player
    # A player on the goal shows as the player.
    return render_grid(instance.board.walls, ".", {instance.goal_spec: "X", player: "@"})


def parse_ascii(text: str) -> PuzzleInstance:
    walls, cells = parse_grid(text, GLYPHS)
    player = single_cell(cells["@"], "player")
    goal = single_cell(cells["X"], "goal")
    # Boards always carry a closed border ring; catch corrupt files early.
    h, width = len(walls), len(walls[0])
    for r in range(h):
        for c in (0, width - 1):
            if not walls[r][c]:
                raise ParseError("border is not walled", line=r + 1, column=c + 1)
    for c in range(width):
        for r in (0, h - 1):
            if not walls[r][c]:
                raise ParseError("border is not walled", line=r + 1, column=c + 1)
    return PuzzleInstance(
        domain=Domain.MAZE,
        board=MazeBoard(walls),
        start_state=MazeState(player),
        goal_spec=goal,
    )


def feature_vector(state: MazeState, instance: PuzzleInstance) -> list[float]:
    walls = instance.board.walls
    h, w = len(walls), len(walls[0])
    r, c = state.player
    gr, gc = instance.goal_spec
    feats = [
        float(quick_heuristic(state, instance)),
        r / (h - 1),
        c / (w - 1),
        (gr - r) / (h - 1),
        (gc - c) / (w - 1),
    ]
    feats.extend(wall_window(walls, state.player))
    return feats
