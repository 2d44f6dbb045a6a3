"""Seeded inputs for the benchmark workloads.

Each writer takes the workload seed and writes files that the ``heurlab``
CLI then reads; the same seed always gives byte-identical files.

    python3 perfbench/inputs.py sokoban --seed 3 --out sokoban/
    python3 perfbench/inputs.py maze-pool --seed 3 --out mazes/

Both import ``heurlab``, so run them with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

BOARD = 10
WALL_DENSITY = 0.12
PULL_BIAS = 0.7
STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))
BOXES = 2
PULLS = (60, 120)  # range of moves walked back from the solved position
SOKOBAN_LEVELS = 1200
SOKOBAN_PLAN = 10  # keep levels whose optimal plan is longer than this
SOKOBAN_CLOSED = (50, 250)  # and whose quick-heuristic solve closes this many nodes
SOKOBAN_TRAIN = 100  # levels in the train split
SOKOBAN_TEST = 60  # levels in the test_iid split
POOL_MAZES = 300  # 20x20 mazes behind the selection pool, about 8k examples


def _pulled_board(rng: random.Random) -> list[str] | None:
    """One BOARD x BOARD level made by pulling boxes away from their docks.

    Every pull is the inverse of a push, so the level is solvable by
    construction. Returns None when the draw leaves too little room or when
    no box moved.
    """
    wall = {
        (r, c)
        for r in range(BOARD)
        for c in range(BOARD)
        if r in (0, BOARD - 1) or c in (0, BOARD - 1) or rng.random() < WALL_DENSITY
    }
    free = [(r, c) for r in range(BOARD) for c in range(BOARD) if (r, c) not in wall]
    if len(free) <= BOXES:
        return None
    docks = frozenset(rng.sample(free, BOXES))
    placed = set(docks)
    player = rng.choice([cell for cell in free if cell not in placed])
    for _ in range(rng.randint(*PULLS)):
        moves = []
        for dr, dc in STEPS:
            step = (player[0] + dr, player[1] + dc)
            if step in wall or step in placed:
                continue
            behind = (player[0] - dr, player[1] - dc)
            moves.append((step, behind if behind in placed else None))
        if not moves:
            break
        pulling = [m for m in moves if m[1] is not None]
        step, pulled = rng.choice(pulling) if pulling and rng.random() < PULL_BIAS else rng.choice(moves)
        if pulled is not None:
            placed.discard(pulled)
            placed.add(player)
        player = step
    if placed == docks:
        return None

    def glyph(cell):
        if cell in wall:
            return "#"
        if cell == player:
            return "O" if cell in docks else "@"
        if cell in placed:
            return "X" if cell in docks else "$"
        return "." if cell in docks else " "

    return ["".join(glyph((r, c)) for c in range(BOARD)) for r in range(BOARD)]


def write_boxoban(path: Path, seed: int, count: int) -> Path:
    """``count`` solvable levels in the boxoban layout: ``; <index>``, then the rows."""
    rng = random.Random(f"perfbench-boxoban:{seed}")
    lines: list[str] = []
    while len(lines) < count * (BOARD + 1):
        rows = _pulled_board(rng)
        if rows is not None:
            lines.append(f"; {len(lines) // (BOARD + 1)}")
            lines.extend(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_sokoban_splits(out_dir: Path, seed: int) -> None:
    """Train and test instance folders of two-box levels of bounded difficulty.

    Reverse-pull levels are written in the boxoban layout and read back
    through ``generation.load_boxoban``; ``generation.build_sokoban_split``
    then keeps those whose quick-heuristic solve closes between
    ``SOKOBAN_CLOSED`` nodes and whose plan is longer than ``SOKOBAN_PLAN``.
    Unbounded levels make the cost of a run depend on a few hard levels,
    which swings it by half from seed to seed.
    """
    from heurlab import generation

    levels = generation.load_boxoban(write_boxoban(out_dir / "levels.txt", seed, SOKOBAN_LEVELS))
    lo, hi = SOKOBAN_CLOSED
    filt = generation.GenFilter(o_l=SOKOBAN_PLAN, beta_min=lo, beta_max=hi, retries=1)
    for split, count in (("train", SOKOBAN_TRAIN), ("test_iid", SOKOBAN_TEST)):
        block = generation.SplitSpec(count, boxes=BOXES, filt=filt)
        instances = generation.build_sokoban_split(split, seed, levels, blocks=(block,))
        generation.write_split(instances, out_dir / split, force=True)


def write_maze_pool(out_dir: Path, seed: int) -> Path:
    """``POOL_MAZES`` 20x20 train mazes behind the plan-length gate only.

    Without the alpha (closed-to-plan ratio) gate most candidates pass, so
    building the mazes is cheap and its cost hardly depends on the seed.
    """
    from heurlab import generation

    block = generation.SplitSpec(POOL_MAZES, size=20, filt=generation.GenFilter(o_l=20))
    instances = generation.build_maze_split("train", seed, blocks=(block,))
    return generation.write_split(instances, out_dir, force=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["sokoban", "maze-pool"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.kind == "sokoban":
        write_sokoban_splits(Path(args.out), args.seed)
    else:
        write_maze_pool(Path(args.out), args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
