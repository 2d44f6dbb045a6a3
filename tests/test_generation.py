"""Instance generation: filters, determinism, corpora, split folders."""

import random
import re

import pytest

from conftest import make_boxoban_fixture, maze_bfs_distance, MASTER_SEED

from heurlab import generation
from heurlab.domains import Domain, MazeBoard, MazeState, ParseError, PuzzleInstance
from heurlab.domains.base import freeze_grid
from heurlab.generation import (
    GenFilter,
    GenerationExhausted,
    SplitSpec,
    build_stp_split,
    generate_maze,
    generate_stp,
    load_boxoban,
    read_split,
    scaled_count,
    stp_is_solvable,
    stp_symbol_table,
    subsample_boxes,
    write_split,
)
from heurlab.search import QuickHeuristic, SearchResult, Status, astar


def _result(plan, closed, solved=True):
    status = Status.SOLUTION_FOUND if solved else Status.FRONTIER_EXHAUSTED
    return SearchResult(status, path_length=plan, closed_length=closed)


def test_filter_accepts_thresholds():
    filt = GenFilter(o_l=20, alpha=3.5)
    assert not filt.accepts(_result(20, 1000))  # plan must exceed o_l
    assert filt.accepts(_result(21, 74))  # 74 > 3.5 * 21
    assert not filt.accepts(_result(21, 73))
    assert not filt.accepts(_result(50, 300, solved=False))
    windowed = GenFilter(beta_min=10, beta_max=20)
    assert not windowed.accepts(_result(5, 9))
    assert windowed.accepts(_result(5, 10))
    assert windowed.accepts(_result(5, 20))
    assert not windowed.accepts(_result(5, 21))


def test_filter_validation():
    with pytest.raises(ValueError):
        GenFilter(o_l=-1)
    with pytest.raises(ValueError):
        GenFilter(retries=0)
    with pytest.raises(ValueError):
        GenFilter(beta_min=100, beta_max=50)


def test_scaled_count():
    assert scaled_count(750, 1.0) == 750
    assert scaled_count(750, 0.4) == 300
    assert scaled_count(284, 0.1) == 28
    assert scaled_count(5, 0.01) == 1  # never drops to zero


def test_generate_maze_rounds_size_up_to_odd():
    inst = generate_maze(20, 20, GenFilter(o_l=10, alpha=1.0), seed=3)
    assert inst.board.height == 21
    assert inst.board.width == 21
    with pytest.raises(ValueError):
        generate_maze(4, 4, GenFilter(), seed=0)


def test_generate_maze_is_deterministic_and_filtered():
    filt = GenFilter(o_l=20, alpha=3.5)
    a = generate_maze(20, 20, filt, seed=41)
    b = generate_maze(20, 20, filt, seed=41)
    assert a.board == b.board
    assert a.start_state == b.start_state
    assert a.goal_spec == b.goal_spec
    c = generate_maze(20, 20, filt, seed=42)
    assert c.board != a.board
    for inst in (a, c):
        assert inst.provenance["plan_length"] > 20
        assert inst.provenance["closed_length"] > 3.5 * inst.provenance["plan_length"]
        assert inst.provenance["broken_walls"] >= 1


def test_generated_maze_has_walled_border_and_is_solvable():
    inst = generate_maze(20, 20, GenFilter(o_l=20, alpha=3.5), seed=9)
    walls = inst.board.walls
    assert all(walls[0]) and all(walls[-1])
    assert all(row[0] and row[-1] for row in walls)
    dist = maze_bfs_distance(inst)
    assert inst.goal_spec in dist
    assert dist[inst.goal_spec] == inst.provenance["plan_length"]


# generate_maze as it was before candidates whose unbroken start-goal
# distance is at most o_l stopped running A*: wall breaking over dict-keyed
# breadth-first distances, and a full A* on every candidate.

def reference_break_boundary_walls(walls, start, goal, rng, prob=0.2):
    board = MazeBoard(walls)
    ds = maze_bfs_distance(PuzzleInstance(Domain.MAZE, board, MazeState(start), goal), start)
    dg = maze_bfs_distance(PuzzleInstance(Domain.MAZE, board, MazeState(goal), goal), goal)
    height, width = len(walls), len(walls[0])
    candidates = []
    for r in range(1, height - 1):
        for c in range(1, width - 1):
            if not walls[r][c]:
                continue
            for (ar, ac), (br, bc) in (((r - 1, c), (r + 1, c)), ((r, c - 1), (r, c + 1))):
                if walls[ar][ac] or walls[br][bc]:
                    continue
                if (ar, ac) not in ds or (br, bc) not in ds:
                    continue
                if (ds[(ar, ac)] <= dg[(ar, ac)]) != (ds[(br, bc)] <= dg[(br, bc)]):
                    candidates.append((r, c))
                break
    chosen = [cell for cell in candidates if rng.random() < prob]
    if candidates and not chosen:
        chosen = [candidates[rng.randrange(len(candidates))]]
    for r, c in chosen:
        walls[r][c] = False
    return len(chosen)


def reference_generate_maze(width, height, filt, seed):
    """Returns the accepted instance and the number of A* runs it took."""
    grid_h, grid_w = generation._odd(height), generation._odd(width)
    rng = random.Random(seed)
    searches = 0
    for _ in range(generation.GENERATION_CAP):
        base = generation._prims_lattice(grid_h, grid_w, rng)
        open_cells = [(r, c) for r in range(grid_h) for c in range(grid_w) if not base[r][c]]
        for _ in range(filt.retries):
            start, goal = rng.sample(open_cells, 2)
            grid = [row[:] for row in base]
            broken = reference_break_boundary_walls(grid, start, goal, rng)
            instance = PuzzleInstance(Domain.MAZE, MazeBoard(freeze_grid(grid)), MazeState(start), goal, seed=seed)
            result = astar(instance, QuickHeuristic(), limits=filt.search_limits())
            searches += 1
            if filt.accepts(result):
                instance.provenance.update(
                    o_l=filt.o_l,
                    alpha=filt.alpha,
                    beta_min=filt.beta_min,
                    beta_max=filt.beta_max,
                    plan_length=result.path_length,
                    closed_length=result.closed_length,
                    wall_time=result.wall_time,
                )
                instance.provenance["broken_walls"] = broken
                return instance, searches
    raise GenerationExhausted(seed)


def _without_wall_time(provenance):
    return {key: value for key, value in provenance.items() if key != "wall_time"}


@pytest.mark.parametrize(
    "filt, width, height",
    [
        (generation.MAZE_FILTER, 20, 20),
        (generation.MAZE_OOD_FILTER, 30, 30),
        (GenFilter(o_l=20), 20, 20),
        (GenFilter(o_l=20), 25, 13),
        (GenFilter(o_l=0), 7, 7),
    ],
)
def test_generate_maze_matches_full_search_reference(monkeypatch, filt, width, height):
    searches = []
    real_astar = generation.astar

    def counting_astar(*args, **kwargs):
        searches.append(1)
        return real_astar(*args, **kwargs)

    monkeypatch.setattr(generation, "astar", counting_astar)
    skipped = 0
    for seed in range(5):
        searches.clear()
        got = generate_maze(width, height, filt, seed=seed)
        want, reference_searches = reference_generate_maze(width, height, filt, seed)
        assert got.board == want.board
        assert got.start_state == want.start_state
        assert got.goal_spec == want.goal_spec
        assert _without_wall_time(got.provenance) == _without_wall_time(want.provenance)
        assert len(searches) <= reference_searches
        skipped += reference_searches - len(searches)
    if filt.o_l >= 20:
        assert skipped > 0  # short candidates no longer reach A*
    else:
        assert skipped == 0  # o_l=0 can never rule a candidate out


def test_split_fixture_instances_pass_their_filter(maze_train_150):
    assert len(maze_train_150) == 150
    assert len({inst.id for inst in maze_train_150}) == 150
    for inst in maze_train_150:
        assert inst.provenance["plan_length"] > 20
        assert inst.provenance["closed_length"] > 3.5 * inst.provenance["plan_length"]


def test_write_and_read_split_round_trip(tmp_path, maze_train_150):
    subset = maze_train_150[:5]
    out = tmp_path / "split"
    write_split(subset, out)
    assert (out / "manifest.jsonl").exists()
    back = read_split(out)
    assert [inst.id for inst in back] == sorted(inst.id for inst in subset)
    by_id = {inst.id: inst for inst in subset}
    for inst in back:
        orig = by_id[inst.id]
        assert inst.board == orig.board
        assert inst.start_state == orig.start_state
        assert inst.goal_spec == orig.goal_spec
        assert inst.provenance["plan_length"] == orig.provenance["plan_length"]


def test_write_split_refuses_nonempty_dir(tmp_path, maze_train_150):
    out = tmp_path / "split"
    write_split(maze_train_150[:2], out)
    with pytest.raises(FileExistsError):
        write_split(maze_train_150[:2], out)
    write_split(maze_train_150[:3], out, force=True)
    assert len(read_split(out)) == 3


def test_write_split_requires_ids(tmp_path):
    inst = generate_maze(20, 20, GenFilter(o_l=10, alpha=1.0), seed=5)
    with pytest.raises(ValueError):
        write_split([inst], tmp_path / "anon")


def test_load_boxoban_parses_and_translates_overlays(tmp_path):
    board = [
        "##########",
        "#        #",
        "# $  .   #",
        "#  *     #",
        "#    +   #",
        "#  $     #",
        "#        #",
        "#        #",
        "#        #",
        "##########",
    ]
    path = tmp_path / "file.txt"
    path.write_text("; 0\n" + "\n".join(board) + "\n\n; 7\n" + "\n".join(board) + "\n")
    puzzles = load_boxoban(path)
    assert [p.id for p in puzzles] == ["boxoban-000000", "boxoban-000007"]
    first = puzzles[0]
    assert first.provenance["index"] == 0
    # '*' is a box on a dock, '+' the player on a dock.
    assert (3, 3) in first.start_state.boxes
    assert (3, 3) in first.board.docks
    assert first.start_state.player == (4, 5)
    assert (4, 5) in first.board.docks
    assert len(first.start_state.boxes) == len(first.board.docks) == 3


_WALL_ROW = "#" * 10 + "\n"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("#####\n", "expected '; <index>'"),
        ("; x\n##########\n", "bad puzzle index"),
        ("; 0\n####\n####\n", "expected 10"),
        ("; 4\n" + "#" * 10 + "\n#@$.z    #\n" + ("#" * 10 + "\n") * 8, "puzzle 4: unknown glyph 'z'"),
        # A board fault is located at its own file line and column.
        ("; 4\n" + _WALL_ROW + "#@$.z    #\n" + _WALL_ROW * 8, "puzzle 4: unknown glyph 'z' (line 3, column 5)"),
        ("\n; 4\n" + _WALL_ROW * 5 + "#@$.z    #\n" + _WALL_ROW * 4, "puzzle 4: unknown glyph 'z' (line 8, column 5)"),
        ("; 4\n" + _WALL_ROW * 9 + "###\n", "puzzle 4: ragged row: expected width 10, got 3 (line 11)"),
        # A fault the board parser cannot place keeps the board's first row.
        ("; 4\n" + _WALL_ROW + "#@$      #\n" + _WALL_ROW * 8, "puzzle 4: box/dock count mismatch: 1 boxes, 0 docks (line 2)"),
    ],
)
def test_load_boxoban_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_boxoban(path)
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"{path}: ")
    assert str(err.value).count("(line") == 1


def test_boxoban_fixture_boards_are_valid(tmp_path):
    path = tmp_path / "gen.txt"
    make_boxoban_fixture(path, count=12, n_boxes=4, seed=3)
    puzzles = load_boxoban(path)
    assert len(puzzles) == 12
    for puzzle in puzzles:
        assert puzzle.domain is Domain.SOKOBAN
        assert len(puzzle.start_state.boxes) == 4
        assert len(puzzle.board.docks) == 4


def test_subsample_boxes_keeps_requested_count(tmp_path):
    path = tmp_path / "gen.txt"
    make_boxoban_fixture(path, count=3, n_boxes=4, seed=4)
    base = load_boxoban(path)[0]
    small = subsample_boxes(base, 2, seed=11)
    assert len(small.start_state.boxes) == 2
    assert len(small.board.docks) == 2
    assert small.board.walls == base.board.walls
    assert set(small.start_state.boxes) <= set(base.start_state.boxes)
    assert set(small.board.docks) <= set(base.board.docks)
    again = subsample_boxes(base, 2, seed=11)
    assert again.start_state == small.start_state
    assert again.board.docks == small.board.docks
    with pytest.raises(ValueError):
        subsample_boxes(base, 0, seed=1)
    with pytest.raises(ValueError):
        subsample_boxes(base, 9, seed=1)


def test_subsample_boxes_exhausts_on_impossible_filter(tmp_path):
    path = tmp_path / "gen.txt"
    make_boxoban_fixture(path, count=3, n_boxes=4, seed=5)
    base = load_boxoban(path)[0]
    impossible = GenFilter(beta_min=10**6, beta_max=2 * 10**6, retries=2)
    with pytest.raises(GenerationExhausted):
        subsample_boxes(base, 2, seed=1, filt=impossible)


def test_stp_solvability_hand_cases():
    assert stp_is_solvable((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
    assert not stp_is_solvable((0, 1, 2, 3, 4, 5, 6, 8, 7), 3)
    assert stp_is_solvable(tuple(range(16)), 4)
    assert not stp_is_solvable((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 14), 4)


def test_stp_solvable_half_matches_reachable_set(stp3_table):
    # Exactly half of the 9! permutations are reachable from the goal.
    assert len(stp3_table) == 181440
    for tiles in list(stp3_table)[::3571]:
        assert stp_is_solvable(tiles, 3)


def test_generate_stp_three_wide_draws_permutations():
    inst = generate_stp(3, generation.STP_FILTER, seed=8)
    assert inst.provenance["method"] == "permutation"
    assert stp_is_solvable(inst.start_state.tiles, 3)
    assert inst.provenance["plan_length"] > 20
    assert inst.provenance["closed_length"] <= 5000
    again = generate_stp(3, generation.STP_FILTER, seed=8)
    assert again.start_state == inst.start_state


def test_generate_stp_wide_boards_scramble():
    for width in (4, 5):
        inst = generate_stp(width, generation.STP_FILTER, seed=2)
        assert inst.provenance["method"] == "scramble"
        assert 20 <= inst.provenance["scramble_moves"] <= 30
        assert stp_is_solvable(inst.start_state.tiles, width)
        assert inst.provenance["plan_length"] > 20
    with pytest.raises(ValueError):
        generate_stp(2, generation.STP_FILTER, seed=0)


def test_build_split_parallelism_is_invisible():
    solo = build_stp_split("train", MASTER_SEED, scale=0.01, jobs=1)
    pooled = build_stp_split("train", MASTER_SEED, scale=0.01, jobs=2)
    assert [inst.id for inst in solo] == [inst.id for inst in pooled]
    assert [inst.start_state for inst in solo] == [inst.start_state for inst in pooled]


def test_build_sokoban_split_exhausts_small_pools(tmp_path):
    path = tmp_path / "gen.txt"
    make_boxoban_fixture(path, count=2, n_boxes=4, seed=6)
    source = load_boxoban(path)
    blocks = (SplitSpec(20, boxes=2, filt=generation._sokoban_filter(0, 7000)),)
    with pytest.raises(GenerationExhausted):
        generation.build_sokoban_split("train", MASTER_SEED, source, blocks=blocks)


def test_build_split_maps_each_domain_to_its_builder(boxoban_file):
    def unread():
        raise AssertionError("only a Sokoban split reads the level source")

    def same(a, b):
        return [(i.id, i.board, i.start_state) for i in a] == [(i.id, i.board, i.start_state) for i in b]

    maze = generation.build_split(Domain.MAZE, "test_iid", MASTER_SEED, 0.004, 1, unread)
    assert len(maze) == 2 and same(maze, generation.build_maze_split("test_iid", MASTER_SEED, scale=0.004))
    tiles = generation.build_split(Domain.STP, "train", MASTER_SEED, 0.002, 2, unread)
    assert len(tiles) == 2 and same(tiles, build_stp_split("train", MASTER_SEED, scale=0.002))
    source = load_boxoban(boxoban_file)
    reads = []
    boxes = generation.build_split(Domain.SOKOBAN, "train", MASTER_SEED, 0.002, 2, lambda: reads.append(1) or source)
    assert reads == [1]
    assert len(boxes) == 2 and same(boxes, generation.build_sokoban_split("train", MASTER_SEED, source, scale=0.002))
    assert not any("shuffle_seed" in inst.provenance for inst in boxes)


def _level_tree(root):
    """A level directory: a top-level file, a nested one and a file that is not ``*.txt``."""
    (root / "sub").mkdir(parents=True)
    make_boxoban_fixture(root / "b.txt", count=2, n_boxes=4, seed=7)
    make_boxoban_fixture(root / "sub" / "a.txt", count=3, n_boxes=4, seed=8)
    (root / "notes.md").write_text("not a level file\n")
    return root


def test_a_level_source_is_a_file_or_every_txt_file_under_a_directory(tmp_path):
    root = _level_tree(tmp_path / "levels")
    files = generation.level_files(root)
    assert files == [root / "b.txt", root / "sub" / "a.txt"]
    assert generation.level_files(root / "b.txt") == [root / "b.txt"]
    assert generation.level_files(str(root)) == files
    puzzles = load_boxoban(root)
    assert len(puzzles) == 5
    assert [(p.id, p.provenance) for p in puzzles] == [(p.id, p.provenance) for f in files for p in load_boxoban(f)]
    assert puzzles == load_boxoban(root / "b.txt") + load_boxoban(root / "sub" / "a.txt")


def test_an_empty_level_directory_fails_naming_it(tmp_path):
    (tmp_path / "levels" / "sub").mkdir(parents=True)
    (tmp_path / "levels" / "sub" / "notes.md").write_text("no levels here\n")
    for read in (generation.level_files, load_boxoban, generation.source_hash):
        with pytest.raises(FileNotFoundError, match=re.escape(f"no .txt level files under {tmp_path / 'levels'}")):
            read(tmp_path / "levels")


def test_source_hash_covers_bytes_and_relative_paths_without_parsing(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("; 0\nnot a board\n")  # never parsed
    moved = tmp_path / "elsewhere" / "b.txt"
    moved.parent.mkdir()
    moved.write_bytes(a.read_bytes())
    assert generation.source_hash(a) == generation.source_hash(moved)  # a single file's name is not hashed
    moved.write_text("; 0\nnot a board either\n")
    assert generation.source_hash(a) != generation.source_hash(moved)

    root = _level_tree(tmp_path / "levels")
    copy = _level_tree(tmp_path / "copy")
    assert generation.source_hash(root) == generation.source_hash(copy)
    (copy / "notes.md").write_text("edited\n")  # not a level file
    assert generation.source_hash(root) == generation.source_hash(copy)
    (copy / "sub" / "a.txt").rename(copy / "sub" / "c.txt")  # same bytes, same order, another path
    assert generation.source_hash(root) != generation.source_hash(copy)
    assert generation.source_hash(root) != generation.source_hash(root / "b.txt")


def test_symbol_table_is_seeded_and_sorted():
    table = stp_symbol_table(3, seed=123)
    assert table[0] == "0"
    letters = [table[d] for d in range(1, 9)]
    assert letters == sorted(letters)
    assert len(set(letters)) == 8
    assert all(ch.islower() for ch in letters)
    assert stp_symbol_table(3, seed=123) == table
    assert stp_symbol_table(3, seed=124) != table
    with pytest.raises(ValueError):
        stp_symbol_table(6, seed=0)

