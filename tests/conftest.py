"""Shared fixtures: independent brute-force oracles, generated instance sets,
and a terminal summary that reports each acceptance criterion by number.

The oracles here deliberately re-implement move rules and distances from
scratch (plain breadth-first search over raw tuples) so library bugs cannot
hide behind shared code.
"""

from __future__ import annotations

import random
import re
from collections import deque
from pathlib import Path

import pytest

from heurlab import generation
from heurlab.domains import Domain
from heurlab.util import derive_seed

MASTER_SEED = 20240811


# ---------------------------------------------------------------------------
# Independent breadth-first oracles

def maze_bfs_distance(instance, start=None) -> dict:
    """Distance from the start cell to every reachable cell, walls respected."""
    walls = instance.board.walls
    h, w = len(walls), len(walls[0])
    origin = start if start is not None else instance.start_state.player
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        r, c = queue.popleft()
        d = dist[(r, c)]
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and not walls[nr][nc] and (nr, nc) not in dist:
                dist[(nr, nc)] = d + 1
                queue.append((nr, nc))
    return dist


def sokoban_bfs_optimal(instance, cap: int = 10**6) -> int | None:
    """Optimal move count by breadth-first search over (player, boxes) states.

    Returns None if the goal is unreachable or the cap is exceeded.
    """
    walls = instance.board.walls
    docks = frozenset(instance.board.docks)
    start = (instance.start_state.player, frozenset(instance.start_state.boxes))
    if start[1] == docks:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (player, boxes), d = queue.popleft()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = player[0] + dr, player[1] + dc
            if walls[nr][nc]:
                continue
            target = (nr, nc)
            if target in boxes:
                br, bc = nr + dr, nc + dc
                if walls[br][bc] or (br, bc) in boxes:
                    continue
                new_boxes = (boxes - {target}) | {(br, bc)}
            else:
                new_boxes = boxes
            nxt = (target, new_boxes)
            if nxt in seen:
                continue
            if new_boxes == docks:
                return d + 1
            seen.add(nxt)
            if len(seen) > cap:
                return None
            queue.append((nxt, d + 1))
    return None


def stp_bfs_table(width: int = 3) -> dict[tuple, int]:
    """Distance of every reachable permutation from the ordered goal."""
    goal = tuple(range(width * width))
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        tiles = queue.popleft()
        d = dist[tiles]
        blank = tiles.index(0)
        r, c = divmod(blank, width)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < width and 0 <= nc < width):
                continue
            j = nr * width + nc
            swapped = list(tiles)
            swapped[blank], swapped[j] = swapped[j], swapped[blank]
            nxt = tuple(swapped)
            if nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    return dist


# ---------------------------------------------------------------------------
# Solvable Sokoban boards via reverse pulls

def _reverse_pull_board(rng: random.Random, n_boxes: int, pulls: int) -> str | None:
    """Build one 10x10 board by pulling boxes off their docks.

    Starting from the solved position, every pull has an inverse push, so the
    scrambled position is solvable by construction.
    """
    size = 10
    walls = [[r in (0, size - 1) or c in (0, size - 1) for c in range(size)] for r in range(size)]
    for r in range(1, size - 1):
        for c in range(1, size - 1):
            if rng.random() < 0.12:
                walls[r][c] = True
    open_cells = [(r, c) for r in range(1, size - 1) for c in range(1, size - 1) if not walls[r][c]]
    if len(open_cells) < n_boxes + 1:
        return None
    docks = rng.sample(open_cells, n_boxes)
    boxes = set(docks)
    player = rng.choice([cell for cell in open_cells if cell not in boxes])

    for _ in range(pulls):
        options = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = player[0] + dr, player[1] + dc
            if walls[nr][nc] or (nr, nc) in boxes:
                continue
            behind = (player[0] - dr, player[1] - dc)
            options.append(((nr, nc), behind if behind in boxes else None))
        if not options:
            break
        pulling = [opt for opt in options if opt[1] is not None]
        target, pulled = rng.choice(pulling) if pulling and rng.random() < 0.7 else rng.choice(options)
        if pulled is not None:
            boxes.remove(pulled)
            boxes.add(player)
        player = target

    if boxes == set(docks):
        return None  # nothing moved; a trivial instance
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            cell = (r, c)
            if walls[r][c]:
                row.append("#")
            elif cell == player:
                row.append("O" if cell in docks else "@")
            elif cell in boxes:
                row.append("X" if cell in docks else "$")
            elif cell in docks:
                row.append(".")
            else:
                row.append(" ")
        rows.append("".join(row))
    return "\n".join(rows)


def make_boxoban_fixture(path: Path, count: int, n_boxes: int = 4, seed: int = 0) -> Path:
    """Write ``count`` solvable boards in the corpus layout to ``path``."""
    rng = random.Random(derive_seed(seed, "boxoban-fixture"))
    chunks = []
    written = 0
    while written < count:
        board = _reverse_pull_board(rng, n_boxes, pulls=rng.randint(12, 40))
        if board is None:
            continue
        chunks.append(f"; {written}\n{board}")
        written += 1
    path.write_text("\n".join(chunks) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Session-scoped instance sets (shared by unit and acceptance tests)

@pytest.fixture(scope="session")
def maze_val_300():
    return generation.build_maze_split("val", MASTER_SEED, scale=0.4, jobs=4)


@pytest.fixture(scope="session")
def maze_train_150():
    return generation.build_maze_split("train", MASTER_SEED, scale=0.2, jobs=4)


@pytest.fixture(scope="session")
def maze_test_100():
    return generation.build_maze_split("test_iid", MASTER_SEED, scale=0.2, jobs=4)


@pytest.fixture(scope="session")
def stp3_table():
    return stp_bfs_table(3)


@pytest.fixture(scope="session")
def stp_200():
    return generation.build_stp_split("train", MASTER_SEED, scale=0.2, jobs=4)


@pytest.fixture(scope="session")
def boxoban_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("boxoban") / "fixture-levels.txt"
    return make_boxoban_fixture(path, count=400, n_boxes=4, seed=MASTER_SEED)


@pytest.fixture(scope="session")
def sokoban_100(boxoban_file):
    source = generation.load_boxoban(boxoban_file)
    return generation.build_sokoban_split("train", MASTER_SEED, source, scale=0.1)


@pytest.fixture(scope="session")
def maze_pool_150(maze_train_150):
    from heurlab import evaluation, pipeline

    results = evaluation.solve_all(maze_train_150, evaluation.QuickHeuristic(), jobs=4)
    pool, skipped = pipeline.extract_pool([(inst, results[inst.id]) for inst in maze_train_150])
    assert skipped == 0
    return pool


# ---------------------------------------------------------------------------
# Acceptance reporting

CRITERIA = {
    1: "quick-heuristic plans match breadth-first oracles in all three domains",
    2: "exact oracle with larger-g tie-break closes exactly |plan| nodes",
    3: "noise study: End > Middle > Initial ordering with clean All row",
    4: "utility closed forms, softmax draw frequencies, monotonicity",
    5: "two-set combination weights match 1/4, 1/2, 1/4",
    6: "assignment solver equals brute-force permutation minimum",
    7: "metric fixtures exact; self-comparison ITR near 1",
    8: "pool residuals nonnegative and section labels exact",
    9: "planner-aware selection beats uniform on ILR in most seeds",
    10: "sliding-tile parity rule matches reachability",
    11: "pipeline reruns are byte-identical outside timing fields",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if match:
                num = int(match.group(1))
                worst = {"passed": 0, "skipped": 1, "failed": 2, "error": 2}
                if num not in outcomes or worst[status] > worst[outcomes[num]]:
                    outcomes[num] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        status = outcomes.get(num)
        if status == "passed":
            verdict = "PASS"
        elif status in ("failed", "error"):
            verdict = "FAIL"
        elif status == "skipped":
            verdict = "SKIPPED"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict} - {CRITERIA[num]}")
