"""The table-driven node kernels against verbatim copies of the code they replaced.

``successors``, ``quick_heuristic`` and ``feature_vector`` of all three
domains now read per-width tables (sliding tile) and padded wall grids
(maze, Sokoban). The ``_parent_*`` functions below are the previous
implementations, copied unchanged apart from their names, and serve as the
oracle: on seeded states every kernel must return equal values, floats bit
for bit. The boards here carry no wall ring, so players and boxes stand on
border cells and the windows reach off the board.
"""

import dataclasses
import pickle
import random
from collections import defaultdict

import pytest

from heurlab import domains, evaluation
from heurlab.domains import (
    DIRECTIONS,
    Domain,
    MazeBoard,
    MazeState,
    PuzzleInstance,
    SokobanBoard,
    SokobanState,
    StpState,
    maze,
    stp,
)
from heurlab.domains.base import manhattan
from heurlab.domains.sokoban import _assignment_cost
from heurlab.models import LearnedHeuristic, train_residual_model

WINDOW_RADIUS = 2


def _parent_occupancy_window(predicate, center):
    """Flattened (2r+1)^2 window around ``center``, r = ``WINDOW_RADIUS``; out-of-board counts as occupied."""
    r0, c0 = center
    out = []
    for dr in range(-WINDOW_RADIUS, WINDOW_RADIUS + 1):
        for dc in range(-WINDOW_RADIUS, WINDOW_RADIUS + 1):
            out.append(1.0 if predicate(r0 + dr, c0 + dc) else 0.0)
    return out


def _parent_stp_successors(state, instance):
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


def _parent_stp_quick_heuristic(state, instance):
    w = state.width
    total = 0
    for idx, tile in enumerate(state.tiles):
        if tile == 0:
            continue
        r, c = divmod(idx, w)
        gr, gc = divmod(tile, w)
        total += abs(r - gr) + abs(c - gc)
    return total


def _parent_stp_feature_vector(state, instance):
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


def _parent_maze_successors(state, instance):
    walls = instance.board.walls
    h, w = instance.board.height, instance.board.width
    r, c = state.player
    out = []
    for action, (dr, dc) in DIRECTIONS:
        nr, nc = r + dr, c + dc
        if 0 <= nr < h and 0 <= nc < w and not walls[nr][nc]:
            out.append((action, MazeState((nr, nc))))
    return out


def _parent_maze_quick_heuristic(state, instance):
    return manhattan(state.player, instance.goal_spec)


def _parent_maze_feature_vector(state, instance):
    walls = instance.board.walls
    h, w = instance.board.height, instance.board.width
    r, c = state.player
    gr, gc = instance.goal_spec
    feats = [
        float(_parent_maze_quick_heuristic(state, instance)),
        r / (h - 1),
        c / (w - 1),
        (gr - r) / (h - 1),
        (gc - c) / (w - 1),
    ]
    feats.extend(
        _parent_occupancy_window(lambda rr, cc: not (0 <= rr < h and 0 <= cc < w) or walls[rr][cc], (r, c))
    )
    return feats


def _parent_sokoban_successors(state, instance):
    walls = instance.board.walls
    h, w = instance.board.height, instance.board.width
    boxes = frozenset(state.boxes)
    pr, pc = state.player
    out = []
    for action, (dr, dc) in DIRECTIONS:
        tr, tc = pr + dr, pc + dc
        if not (0 <= tr < h and 0 <= tc < w) or walls[tr][tc]:
            continue
        if (tr, tc) in boxes:
            br, bc = tr + dr, tc + dc
            if not (0 <= br < h and 0 <= bc < w) or walls[br][bc] or (br, bc) in boxes:
                continue
            moved = [(br, bc) if b == (tr, tc) else b for b in state.boxes]
            out.append((action, SokobanState.make((tr, tc), moved)))
        else:
            out.append((action, SokobanState((tr, tc), state.boxes)))
    return out


def _parent_sokoban_quick_heuristic(state, instance):
    docks = instance.board.docks
    if state.boxes == docks:
        return 0
    player = state.player
    nearest = min(manhattan(player, box) for box in state.boxes)
    return max(0, nearest - 1) + _assignment_cost(state.boxes, docks)


def _parent_sokoban_feature_vector(state, instance):
    walls = instance.board.walls
    docks = instance.board.docks
    h, w = instance.board.height, instance.board.width
    pr, pc = state.player
    pair_dists = [manhattan(box, dock) for box in state.boxes for dock in docks]
    feats = [
        float(_parent_sokoban_quick_heuristic(state, instance)),
        pr / (h - 1),
        pc / (w - 1),
        float(min(pair_dists)),
        sum(pair_dists) / len(pair_dists),
        float(max(pair_dists)),
    ]
    boxes = frozenset(state.boxes)
    dock_set = frozenset(docks)
    in_board = lambda rr, cc: 0 <= rr < h and 0 <= cc < w
    feats.extend(_parent_occupancy_window(lambda rr, cc: not in_board(rr, cc) or walls[rr][cc], (pr, pc)))
    feats.extend(_parent_occupancy_window(lambda rr, cc: (rr, cc) in boxes, (pr, pc)))
    feats.extend(_parent_occupancy_window(lambda rr, cc: (rr, cc) in dock_set, (pr, pc)))
    return feats


PARENT = {
    Domain.STP: (_parent_stp_successors, _parent_stp_quick_heuristic, _parent_stp_feature_vector),
    Domain.MAZE: (_parent_maze_successors, _parent_maze_quick_heuristic, _parent_maze_feature_vector),
    Domain.SOKOBAN: (_parent_sokoban_successors, _parent_sokoban_quick_heuristic, _parent_sokoban_feature_vector),
}


def _open_board(rng, h, w, density):
    """Random walls with no wall ring, and the open cells."""
    walls = tuple(tuple(rng.random() < density for _ in range(w)) for _ in range(h))
    return walls, [(r, c) for r in range(h) for c in range(w) if not walls[r][c]]


def _stp_states(rng):
    for width in (3, 4, 5):
        inst = stp.make_instance(range(width * width), width)
        for _ in range(40):
            tiles = list(range(width * width))
            rng.shuffle(tiles)
            yield StpState(tuple(tiles), width), inst
        # The blank on every cell, borders and corners included.
        tiles = list(range(1, width * width))
        rng.shuffle(tiles)
        for z in range(width * width):
            yield StpState(tuple(tiles[:z] + [0] + tiles[z:]), width), inst


def _maze_states(rng):
    for h, w in ((2, 2), (3, 7), (6, 6), (9, 5)):
        for _ in range(6):
            walls, open_cells = _open_board(rng, h, w, 0.3)
            if not open_cells:
                continue
            inst = PuzzleInstance(Domain.MAZE, MazeBoard(walls), MazeState(open_cells[0]), rng.choice(open_cells))
            for cell in open_cells:  # the player on every open cell, border cells included
                yield MazeState(cell), inst


def _sokoban_states(rng):
    made = 0
    while made < 40:
        h, w = rng.randint(3, 8), rng.randint(3, 8)
        walls, open_cells = _open_board(rng, h, w, 0.2)
        n_boxes = 2 + made % 3  # 2 to 4 boxes
        if len(open_cells) < 2 * n_boxes + 1:
            continue
        made += 1
        docks = tuple(sorted(rng.sample(open_cells, n_boxes)))
        inst = PuzzleInstance(Domain.SOKOBAN, SokobanBoard(walls, docks), None, docks)
        for _ in range(8):
            boxes = rng.sample(open_cells, n_boxes)
            for player in [c for c in open_cells if c not in boxes]:
                yield SokobanState.make(player, boxes), inst
        yield SokobanState.make(rng.choice([c for c in open_cells if c not in docks]), docks), inst  # solved


STATES = {Domain.STP: _stp_states, Domain.MAZE: _maze_states, Domain.SOKOBAN: _sokoban_states}


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
def test_kernels_match_the_replaced_code(domain):
    parent_successors, parent_quick, parent_features = PARENT[domain]
    borders = 0
    for state, inst in STATES[domain](random.Random(13)):
        assert domains.successors(state, inst) == parent_successors(state, inst)
        assert domains.quick_heuristic(state, inst) == parent_quick(state, inst)
        feats = domains.feature_vector(state, inst)
        want = parent_features(state, inst)
        assert [type(v) for v in feats] == [type(v) for v in want]
        assert feats == want
        if domain is not Domain.STP:
            h, w = len(inst.board.walls), len(inst.board.walls[0])
            borders += state.player[0] in (0, h - 1) or state.player[1] in (0, w - 1)
    assert domain is Domain.STP or borders > 0


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
def test_a_returned_feature_vector_is_the_callers_own(domain):
    for state, inst in list(STATES[domain](random.Random(5)))[:50]:
        first = domains.feature_vector(state, inst)
        want = list(first)
        first[:] = [7.0] * len(first)
        assert domains.feature_vector(state, inst) == want


def test_a_learned_solve_builds_each_grid_once(maze_train_150, maze_pool_150, monkeypatch):
    # Each instance keeps the grid it builds on first use, so a lockstep
    # round of any width reads every board's grid without rebuilding it.
    monkeypatch.setattr(evaluation, "LOCKSTEP", 16)
    mazes = [dataclasses.replace(inst) for inst in maze_train_150[:20]]  # equal copies with no grid yet
    assert not any("padded_walls" in inst.__dict__ for inst in mazes)
    grids = defaultdict(list)  # id(instance) -> the grid of each window it gave
    window = maze.wall_window

    def recording(instance, center):
        grids[id(instance)].append(instance.padded_walls)
        return window(instance, center)

    monkeypatch.setattr(maze, "wall_window", recording)
    model = train_residual_model(maze_pool_150[:500], kind="knn", k=8, seed=0)
    results = evaluation.solve_all(mazes, LearnedHeuristic(model))
    assert sorted(grids) == sorted(id(inst) for inst in mazes)
    for inst in mazes:
        assert results[inst.id].solved
        assert len(grids[id(inst)]) > 1
        assert all(grid is inst.padded_walls for grid in grids[id(inst)])


@pytest.mark.parametrize("domain", [Domain.MAZE, Domain.SOKOBAN], ids=lambda d: d.value)
def test_an_instance_pickled_with_its_grid_is_the_same_instance(domain):
    cases = list(STATES[domain](random.Random(7)))[:80]
    for state, inst in cases:
        domains.feature_vector(state, inst)  # builds the instance's grid
    for state, inst in cases:
        assert "padded_walls" in inst.__dict__
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst and hash(clone) == hash(inst)
        assert clone.padded_walls == inst.padded_walls
        assert domains.feature_vector(state, clone) == domains.feature_vector(state, inst)


def test_per_width_tables_are_bounded():
    for width in range(2, 2 + stp.TABLE_WIDTHS + 3):
        stp.tables(width)
    assert stp.tables.cache_info().currsize <= stp.TABLE_WIDTHS
