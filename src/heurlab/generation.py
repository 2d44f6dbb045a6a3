"""Instance generators: Prim's mazes with broken walls, boxoban ingestion,
sliding-tile permutations and scrambles, plus difficulty filtering.

Every generator draws from an RNG derived from (master seed, instance index),
so split construction is reproducible and embarrassingly parallel.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import domains
from .domains import Domain, ParseError, PuzzleInstance
from .domains.base import MazeBoard, MazeState, OPPOSITE_ACTION, SokobanBoard, SokobanState, freeze_grid
from .search import QuickHeuristic, SearchLimits, SearchResult, astar
from .util import derive_seed, map_tasks, read_jsonl, write_jsonl

GENERATION_CAP = 1000  # fresh boards per requested instance before giving up
BREAK_PROB = 0.2  # chance that each region-boundary wall of a maze is opened
SCRAMBLE_MOVES = (20, 30)  # inclusive range of random moves that scramble a wide sliding-tile board

_QUICK = QuickHeuristic()


class GenerationExhausted(RuntimeError):
    """No instance satisfying the filter within the generation cap."""


@dataclass(frozen=True)
class GenFilter:
    """Difficulty gate: plan length, closed-to-plan ratio, iteration window."""

    o_l: int = 0  # accepted iff optimal plan length > o_l
    alpha: float = 0.0  # accepted iff closed_length / plan_length > alpha
    beta_min: int | None = None  # inclusive bounds on solve iterations
    beta_max: int | None = None
    retries: int = 10  # start/goal (or subset) resamples before a fresh board

    def __post_init__(self):
        if self.o_l < 0 or self.alpha < 0 or self.retries < 1:
            raise ValueError("filter parameters out of range")
        if self.beta_min is not None and self.beta_max is not None and self.beta_min > self.beta_max:
            raise ValueError("beta_min exceeds beta_max")

    def search_limits(self) -> SearchLimits:
        return SearchLimits(max_iterations=self.beta_max)

    def accepts(self, result: SearchResult) -> bool:
        if not result.solved or result.path_length <= self.o_l:
            return False
        if result.closed_length <= self.alpha * result.path_length:
            return False
        if self.beta_min is not None and result.closed_length < self.beta_min:
            return False
        if self.beta_max is not None and result.closed_length > self.beta_max:
            return False
        return True


def _passes_filter(instance: PuzzleInstance, filt: GenFilter) -> bool:
    """The difficulty gate of every generator: a quick-heuristic A* under the
    filter's cap, through this module's ``astar`` binding (which the tracer
    wraps); an accepted instance records the filter and the solve."""
    result = astar(instance, _QUICK, limits=filt.search_limits())
    if not filt.accepts(result):
        return False
    instance.provenance.update(
        o_l=filt.o_l, alpha=filt.alpha, beta_min=filt.beta_min, beta_max=filt.beta_max,
        plan_length=result.path_length, closed_length=result.closed_length, wall_time=result.wall_time,
    )
    return True


# ---------------------------------------------------------------------------
# Maze

def _odd(n: int) -> int:
    return n if n % 2 else n + 1


def _prims_lattice(height: int, width: int, rng: random.Random) -> list[list[bool]]:
    """Perfect maze via randomized Prim's on the odd-coordinate room lattice."""
    walls = [[True] * width for _ in range(height)]
    rooms = [(r, c) for r in range(1, height - 1, 2) for c in range(1, width - 1, 2)]
    first = rooms[rng.randrange(len(rooms))]
    walls[first[0]][first[1]] = False
    frontier: list[tuple[tuple[int, int], tuple[int, int]]] = []

    def add_walls(room):
        r, c = room
        for dr, dc in ((-2, 0), (2, 0), (0, -2), (0, 2)):
            nr, nc = r + dr, c + dc
            if 1 <= nr < height - 1 and 1 <= nc < width - 1:
                frontier.append(((r + dr // 2, c + dc // 2), (nr, nc)))

    add_walls(first)
    while frontier:
        wall, room = frontier.pop(rng.randrange(len(frontier)))
        if walls[room[0]][room[1]]:
            walls[wall[0]][wall[1]] = False
            walls[room[0]][room[1]] = False
            add_walls(room)
    return walls


def _break_boundary_walls(walls: list[list[bool]], start, goal, rng: random.Random) -> tuple[int, int]:
    """Open a random subset of walls between the closer-to-start and
    closer-to-goal regions, guaranteeing at least one extra opening.

    A perfect maze has exactly one start-goal path; labelling every open cell
    by which endpoint is nearer and then piercing the boundary between the two
    regions adds alternative routes without touching the border ring.

    Returns the number of walls opened and the start-to-goal distance in the
    maze as it was before the opening (-1 if the goal was unreachable).
    """
    ds = domains.maze.bfs_distances(walls, start)
    dg = domains.maze.bfs_distances(walls, goal)
    height, width = len(walls), len(walls[0])
    candidates = []
    for r in range(1, height - 1):
        for c in range(1, width - 1):
            if not walls[r][c]:
                continue
            i = r * width + c
            for a, b in ((i - width, i + width), (i - 1, i + 1)):
                if ds[a] < 0 or ds[b] < 0:  # a wall, or open but cut off from start
                    continue
                if (ds[a] <= dg[a]) != (ds[b] <= dg[b]):
                    candidates.append((r, c))
                break
    chosen = [cell for cell in candidates if rng.random() < BREAK_PROB]
    if candidates and not chosen:
        chosen = [candidates[rng.randrange(len(candidates))]]
    for r, c in chosen:
        walls[r][c] = False
    return len(chosen), ds[goal[0] * width + goal[1]]


def generate_maze(width: int, height: int, filt: GenFilter, seed: int, id: str = "") -> PuzzleInstance:
    """One filtered maze instance. Board dims round up to odd so the interior
    keeps the room/wall lattice; the border ring is always walled."""
    grid_h, grid_w = _odd(height), _odd(width)
    if grid_h - 2 < 5 or grid_w - 2 < 5:
        raise ValueError(f"maze interior must be at least 5x5, got {grid_h - 2}x{grid_w - 2}")
    rng = random.Random(seed)
    for _ in range(GENERATION_CAP):
        base = _prims_lattice(grid_h, grid_w, rng)
        open_cells = [(r, c) for r in range(grid_h) for c in range(grid_w) if not base[r][c]]
        for _ in range(filt.retries):
            start, goal = rng.sample(open_cells, 2)
            grid = [row[:] for row in base]
            broken, unbroken_length = _break_boundary_walls(grid, start, goal, rng)
            if 0 <= unbroken_length <= filt.o_l:
                # Opening walls only shortens paths, so the plan A* would find
                # is at most o_l long and the filter must reject it.
                continue
            instance = PuzzleInstance(
                domain=Domain.MAZE,
                board=MazeBoard(freeze_grid(grid)),
                start_state=MazeState(start),
                goal_spec=goal,
                id=id,
                seed=seed,
            )
            if _passes_filter(instance, filt):
                instance.provenance["broken_walls"] = broken
                return instance
    raise GenerationExhausted(f"no maze met the filter within {GENERATION_CAP} boards (seed {seed})")


# ---------------------------------------------------------------------------
# Sokoban

def level_files(path: str | Path) -> list[Path]:
    """A Sokoban level source: the file itself, or every ``*.txt`` file under a directory, sorted."""
    path = Path(path)
    files = sorted(path.rglob("*.txt")) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"no .txt level files under {path}")
    return files


def source_hash(path: str | Path) -> str:
    """SHA-256 over the level files of a Sokoban source, each as its path
    relative to a source directory (``.`` for a single file) and its bytes;
    nothing is parsed."""
    root = Path(path)
    digest = hashlib.sha256()
    for file in level_files(root):
        data = file.read_bytes()
        digest.update(f"{file.relative_to(root).as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def load_boxoban(path: str | Path) -> list[PuzzleInstance]:
    """The levels of a Sokoban source (see ``level_files``), file by file."""
    return [puzzle for file in level_files(path) for puzzle in _read_level_file(file)]


def _read_level_file(path: Path) -> list[PuzzleInstance]:
    """Parse a boxoban-layout file: ``; <index>`` header lines, then 10 board
    rows. Every ``ParseError`` starts with the file's path."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    puzzles = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if not line.startswith(";"):
            raise ParseError(f"{path}: expected '; <index>' header, got {line!r}", line=i + 1)
        try:
            index = int(line[1:].strip())
        except ValueError:
            raise ParseError(f"{path}: bad puzzle index {line!r}", line=i + 1) from None
        rows = lines[i + 1 : i + 11]
        if len(rows) < 10:
            raise ParseError(f"{path}: puzzle {index} has {len(rows)} rows, expected 10", line=i + 1)
        # Corpus files may write box-on-dock as '*' and player-on-dock as '+'.
        text = "\n".join(rows).translate({ord("*"): "X", ord("+"): "O"})
        try:
            instance = domains.sokoban.parse_ascii(text)
        except ParseError as exc:
            # A fault the board parser could not place is put on the board's first row.
            line = i + 1 + (exc.line or 1)
            raise ParseError(f"{path}: puzzle {index}: {exc.reason}", line, exc.column) from None
        puzzles.append(
            dataclasses.replace(
                instance,
                id=f"boxoban-{index:06d}",
                provenance={"source": str(path), "index": index},
            )
        )
        i += 11
    return puzzles


def subsample_boxes(instance: PuzzleInstance, boxes: int, seed: int, filt: GenFilter | None = None) -> PuzzleInstance:
    """Keep a seeded random subset of B boxes and B docks; when a filter is
    given, retry with fresh subsets until the reduced instance passes."""
    state = instance.start_state
    if boxes < 1 or boxes > len(state.boxes) or boxes > len(instance.board.docks):
        raise ValueError(f"cannot keep {boxes} of {len(state.boxes)} boxes / {len(instance.board.docks)} docks")
    rng = random.Random(seed)
    attempts = filt.retries if filt is not None else 1
    for _ in range(attempts):
        kept_boxes = tuple(sorted(rng.sample(state.boxes, boxes)))
        kept_docks = tuple(sorted(rng.sample(instance.board.docks, boxes)))
        board = SokobanBoard(instance.board.walls, kept_docks)
        candidate = PuzzleInstance(
            domain=Domain.SOKOBAN,
            board=board,
            start_state=SokobanState(state.player, kept_boxes),
            goal_spec=kept_docks,
            id=instance.id,
            seed=seed,
            provenance=dict(instance.provenance),
        )
        if filt is None or _passes_filter(candidate, filt):
            return candidate
    raise GenerationExhausted(f"no {boxes}-box subset of {instance.id or 'instance'} met the filter")


# ---------------------------------------------------------------------------
# Sliding-tile puzzle

def stp_is_solvable(tiles: Sequence[int], width: int) -> bool:
    """Parity test against the canonical goal (0, 1, ..., n-1).

    Odd width: the inversion count over non-blank tiles must be even. Even
    width: inversions plus the blank's row index from the bottom must be odd.
    """
    seq = [t for t in tiles if t != 0]
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    if width % 2 == 1:
        return inversions % 2 == 0
    blank_row_from_bottom = width - 1 - tiles.index(0) // width
    return (inversions + blank_row_from_bottom) % 2 == 1


def _scramble(width: int, moves: int, rng: random.Random):
    """Random legal walk from the goal, never undoing the previous move."""
    blank_moves = domains.stp.tables(width).moves
    tiles = list(range(width * width))
    z = 0
    last = None
    for _ in range(moves):
        options = [move for move in blank_moves[z] if move[0] != last]
        action, nz = options[rng.randrange(len(options))]
        tiles[z], tiles[nz] = tiles[nz], 0
        z = nz
        last = OPPOSITE_ACTION[action]
    return tuple(tiles)


def generate_stp(width: int, filt: GenFilter, seed: int, id: str = "") -> PuzzleInstance:
    """3x3 boards draw uniform solvable permutations; wider boards scramble
    the goal with ``SCRAMBLE_MOVES`` seeded random moves."""
    if width < 3:
        raise ValueError("width must be at least 3")
    rng = random.Random(seed)
    for _ in range(GENERATION_CAP):
        if width == 3:
            tiles = list(range(9))
            rng.shuffle(tiles)
            if not stp_is_solvable(tiles, width):
                continue
            provenance = {"method": "permutation"}
        else:
            moves = rng.randint(*SCRAMBLE_MOVES)
            tiles = _scramble(width, moves, rng)
            provenance = {"method": "scramble", "scramble_moves": moves}
        instance = domains.stp.make_instance(tiles, width, id=id, seed=seed, provenance=provenance)
        if _passes_filter(instance, filt):
            return instance
    raise GenerationExhausted(f"no {width}x{width} sliding-tile instance met the filter (seed {seed})")


def stp_symbol_table(width: int, seed: int) -> dict[int, str]:
    """Per-instance alphabet for exported boards: sample w*w-1 distinct lowercase
    letters, sort them, assign ascending to digits 1..; the blank stays "0"."""
    count = width * width - 1
    if count > len(string.ascii_lowercase):
        raise ValueError(f"board needs {count} symbols, alphabet has {len(string.ascii_lowercase)}")
    rng = random.Random(seed)
    letters = sorted(rng.sample(string.ascii_lowercase, count))
    table = {0: "0"}
    for digit, letter in enumerate(letters, start=1):
        table[digit] = letter
    return table


# ---------------------------------------------------------------------------
# Split catalogues (counts and parameters at scale 1.0)

@dataclass(frozen=True)
class SplitSpec:
    """One homogeneous block of a split: count plus domain parameters."""

    count: int
    size: int = 0  # board width/height (maze) or width (stp)
    boxes: int = 0  # sokoban box count B
    filt: GenFilter = GenFilter()


MAZE_FILTER = GenFilter(o_l=20, alpha=3.5)
MAZE_OOD_FILTER = GenFilter(o_l=30, alpha=3.5)

MAZE_SPLITS: dict[str, tuple[SplitSpec, ...]] = {
    "train": (SplitSpec(750, size=20, filt=MAZE_FILTER),),
    "val": (SplitSpec(750, size=20, filt=MAZE_FILTER),),
    "test_iid": (SplitSpec(500, size=20, filt=MAZE_FILTER),),
    "test_ood": (SplitSpec(500, size=30, filt=MAZE_OOD_FILTER),),
}

def _sokoban_filter(beta_min: int, beta_max: int) -> GenFilter:
    return GenFilter(o_l=20, alpha=6.0, beta_min=beta_min, beta_max=beta_max)


SOKOBAN_SPLITS: dict[str, tuple[SplitSpec, ...]] = {
    "train": (SplitSpec(1000, boxes=2, filt=_sokoban_filter(0, 7000)),),
    "val": (SplitSpec(1000, boxes=2, filt=_sokoban_filter(0, 7000)),),
    "test_iid": (SplitSpec(284, boxes=2, filt=_sokoban_filter(0, 7000)),),
    "test_ood": (
        SplitSpec(15, boxes=2, filt=_sokoban_filter(7000, 14000)),
        SplitSpec(100, boxes=3, filt=_sokoban_filter(0, 7000)),
        SplitSpec(100, boxes=3, filt=_sokoban_filter(7000, 14000)),
        SplitSpec(100, boxes=4, filt=_sokoban_filter(0, 7000)),
        SplitSpec(100, boxes=4, filt=_sokoban_filter(7000, 14000)),
    ),
}

STP_FILTER = GenFilter(o_l=20, alpha=6.0, beta_min=0, beta_max=5000)

STP_SPLITS: dict[str, tuple[SplitSpec, ...]] = {
    "train": (SplitSpec(1000, size=3, filt=STP_FILTER),),
    "val": (SplitSpec(1000, size=3, filt=STP_FILTER),),
    "test_iid": (SplitSpec(500, size=3, filt=STP_FILTER),),
    "test_ood": (SplitSpec(250, size=4, filt=STP_FILTER), SplitSpec(250, size=5, filt=STP_FILTER)),
}

SPLIT_CATALOGUE = {Domain.MAZE: MAZE_SPLITS, Domain.SOKOBAN: SOKOBAN_SPLITS, Domain.STP: STP_SPLITS}


def scaled_count(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _indexed_blocks(blocks: tuple[SplitSpec, ...], scale: float) -> list[tuple[int, SplitSpec]]:
    """A split's instances in order: (index, block) once per scaled count of each block."""
    return list(enumerate(block for block in blocks for _ in range(scaled_count(block.count, scale))))


def _generate(domain: Domain, split: str, master_seed: int, task: tuple[int, SplitSpec]) -> PuzzleInstance:
    """Instance ``index`` of a maze or sliding-tile split, seeded by its index."""
    index, block = task
    seed = derive_seed(master_seed, domain.value, split, index)
    id = f"{domain.value}-{split}-{index:05d}"
    if domain is Domain.MAZE:
        return generate_maze(block.size, block.size, block.filt, seed=seed, id=id)
    return generate_stp(block.size, block.filt, seed=seed, id=id)


def _build_generated(domain: Domain, split: str, master_seed: int, scale: float, jobs: int,
                     blocks: tuple[SplitSpec, ...]) -> list[PuzzleInstance]:
    tasks = _indexed_blocks(blocks, scale)
    return map_tasks(functools.partial(_generate, domain, split, master_seed), tasks, jobs, chunksize=4)


def build_maze_split(split: str, master_seed: int, scale: float = 1.0, jobs: int = 1,
                     blocks: tuple[SplitSpec, ...] | None = None) -> list[PuzzleInstance]:
    return _build_generated(Domain.MAZE, split, master_seed, scale, jobs, blocks or MAZE_SPLITS[split])


def build_stp_split(split: str, master_seed: int, scale: float = 1.0, jobs: int = 1) -> list[PuzzleInstance]:
    return _build_generated(Domain.STP, split, master_seed, scale, jobs, STP_SPLITS[split])


def build_sokoban_split(split: str, master_seed: int, source: list[PuzzleInstance],
                        scale: float = 1.0, blocks: tuple[SplitSpec, ...] | None = None) -> list[PuzzleInstance]:
    """Shuffle the boxoban pool with a derived seed; each instance in turn
    takes the next levels until one of its block's box subsets passes the filter."""
    levels = list(source)
    random.Random(derive_seed(master_seed, "sokoban", split, "shuffle")).shuffle(levels)
    remaining = iter(levels)
    out: list[PuzzleInstance] = []
    for index, block in _indexed_blocks(blocks or SOKOBAN_SPLITS[split], scale):
        seed = derive_seed(master_seed, "sokoban", split, index)
        for base in remaining:
            try:
                instance = subsample_boxes(base, block.boxes, seed=seed, filt=block.filt)
            except GenerationExhausted:
                continue
            out.append(dataclasses.replace(instance, id=f"sokoban-{split}-{index:05d}"))
            break
        else:
            raise GenerationExhausted(f"sokoban {split}: the pool ran out at instance {index} (B={block.boxes})")
    return out


def build_split(domain: Domain, split: str, master_seed: int, scale: float, jobs: int, boards) -> list[PuzzleInstance]:
    """A catalogue split: maze and sliding-tile splits use ``jobs`` workers; only a Sokoban split calls ``boards()``."""
    if domain is Domain.MAZE:
        return build_maze_split(split, master_seed, scale=scale, jobs=jobs)
    if domain is Domain.STP:
        return build_stp_split(split, master_seed, scale=scale, jobs=jobs)
    return build_sokoban_split(split, master_seed, boards(), scale=scale)


# ---------------------------------------------------------------------------
# Instance folders: one ASCII file per instance plus a manifest

def write_split(instances: Iterable[PuzzleInstance], out_dir: str | Path, force: bool = False) -> Path:
    out_dir = Path(out_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise FileExistsError(f"{out_dir} is not empty; pass force to overwrite")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for inst in instances:
        if not inst.id:
            raise ValueError("instance has no id; assign ids before writing")
        (out_dir / f"{inst.id}.txt").write_text(domains.render_ascii(inst) + "\n", encoding="utf-8")
        row = {"id": inst.id, "seed": inst.seed, "domain": inst.domain.value}
        for field in ("o_l", "alpha", "beta_min", "beta_max", "plan_length", "closed_length", "wall_time"):
            row[field] = inst.provenance.get(field)
        manifest.append(row)
    write_jsonl(out_dir / "manifest.jsonl", manifest)
    return out_dir


def read_split(in_dir: str | Path) -> list[PuzzleInstance]:
    """The instances of a split folder in id order. A manifest record lacking a field, naming no
    domain or repeating an id, or a board that does not parse, fails naming its file."""
    manifest = Path(in_dir) / "manifest.jsonl"
    seen = set()

    def convert(row):
        if row["id"] in seen:
            raise ValueError(f"instance id {row['id']!r} is repeated")
        seen.add(row["id"])
        return row["id"], row["seed"], Domain(row["domain"]), row

    entries = read_jsonl(manifest, convert)
    out = []
    for inst_id, seed, domain, row in sorted(entries, key=lambda entry: entry[0]):
        board = manifest.with_name(f"{inst_id}.txt")
        try:
            inst = domains.parse_ascii(board.read_text(encoding="utf-8"), domain)
        except ParseError as exc:
            raise ParseError(f"{board}: {exc.reason}", exc.line, exc.column) from None
        out.append(dataclasses.replace(inst, id=inst_id, seed=seed, provenance=dict(row)))
    return out
