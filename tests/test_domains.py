"""Domain mechanics: parsing, rendering, successors, heuristics, features."""

import itertools
import random

import pytest

from conftest import _reverse_pull_board, maze_bfs_distance, sokoban_bfs_optimal

from heurlab import domains, generation
from heurlab.domains import (
    Domain,
    MazeBoard,
    MazeState,
    ParseError,
    PuzzleInstance,
    SokobanBoard,
    SokobanState,
    StpState,
    hungarian_min_cost,
)
from heurlab.domains import maze, sokoban, stp
from heurlab.domains.base import freeze_grid

MAZE_TEXT = "\n".join(
    [
        "#######",
        "#@...##",
        "#.##..#",
        "#.#..X#",
        "#######",
    ]
)

SOKOBAN_TEXT = "\n".join(
    [
        "#######",
        "#@$ . #",
        "# $#. #",
        "#     #",
        "#######",
    ]
)


def test_maze_parse_render_round_trip():
    inst = domains.parse_ascii(MAZE_TEXT, "maze")
    assert inst.domain is Domain.MAZE
    assert inst.start_state == MazeState((1, 1))
    assert inst.goal_spec == (3, 5)
    assert domains.render_ascii(inst) == MAZE_TEXT
    # Render/parse is stable under a second pass.
    again = domains.parse_ascii(domains.render_ascii(inst), Domain.MAZE)
    assert again.board == inst.board
    assert again.start_state == inst.start_state
    assert again.goal_spec == inst.goal_spec


def test_maze_successors_order_and_blocking():
    inst = domains.parse_ascii(MAZE_TEXT, "maze")
    # From (1, 1): up and left are border walls, down and right are open.
    succ = domains.successors(inst.start_state, inst)
    assert succ == [("down", MazeState((2, 1))), ("right", MazeState((1, 2)))]
    # From (2, 1): a dead-end corridor cell, back up or down only.
    succ = domains.successors(MazeState((2, 1)), inst)
    assert [a for a, _ in succ] == ["up", "down"]


def test_maze_quick_heuristic_is_manhattan_and_admissible():
    inst = domains.parse_ascii(MAZE_TEXT, "maze")
    assert domains.quick_heuristic(inst.start_state, inst) == 4 + 2
    # Moves are reversible, so distance from the goal equals distance to it.
    dist = maze_bfs_distance(inst, start=inst.goal_spec)
    for cell, d in dist.items():
        h = domains.quick_heuristic(MazeState(cell), inst)
        assert h <= d


def _random_grid(rng, height, width, border):
    walls = [[rng.random() < 0.35 for _ in range(width)] for _ in range(height)]
    if border:
        for r in range(height):
            walls[r][0] = walls[r][-1] = True
        walls[0] = [True] * width
        walls[-1] = [True] * width
    if height >= 5 and width >= 5:
        # A walled-off pocket: an open cell fenced in on all four sides.
        r, c = rng.randrange(1, height - 1), rng.randrange(1, width - 1)
        walls[r][c] = False
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            walls[r + dr][c + dc] = True
    return walls


def test_bfs_distances_match_brute_force_on_random_grids():
    rng = random.Random(11)
    for trial in range(300):
        border = trial % 2 == 0
        lo = 3 if border else 1
        height, width = rng.randint(lo, 14), rng.randint(lo, 14)
        walls = _random_grid(rng, height, width, border)
        open_cells = [(r, c) for r in range(height) for c in range(width) if not walls[r][c]]
        if not open_cells:
            continue
        start = rng.choice(open_cells)
        inst = PuzzleInstance(Domain.MAZE, MazeBoard(walls), MazeState(start), start)
        want = maze_bfs_distance(inst)
        got = maze.bfs_distances(walls, start)
        assert len(got) == height * width
        for r in range(height):
            for c in range(width):
                assert got[r * width + c] == want.get((r, c), -1), (trial, r, c)


def _parent_maze_render(instance, state=None):
    # The per-cell renderer that maze.render_ascii replaced, kept as the oracle.
    player = (state or instance.start_state).player
    goal = instance.goal_spec
    rows = []
    for r, row in enumerate(instance.board.walls):
        chars = []
        for c, is_wall in enumerate(row):
            if (r, c) == player:
                chars.append("@")
            elif (r, c) == goal:
                chars.append("X")
            elif is_wall:
                chars.append("#")
            else:
                chars.append(".")
        rows.append("".join(chars))
    return "\n".join(rows)


def _parent_sokoban_render(instance, state=None):
    # The per-cell renderer that sokoban.render_ascii replaced.
    state = state or instance.start_state
    docks = frozenset(instance.board.docks)
    boxes = frozenset(state.boxes)
    rows = []
    for r, row in enumerate(instance.board.walls):
        chars = []
        for c, is_wall in enumerate(row):
            cell = (r, c)
            if cell == state.player:
                chars.append("O" if cell in docks else "@")
            elif cell in boxes:
                chars.append("X" if cell in docks else "$")
            elif is_wall:
                chars.append("#")
            elif cell in docks:
                chars.append(".")
            else:
                chars.append(" ")
        rows.append("".join(chars))
    return "\n".join(rows)


def test_grid_renderers_match_the_per_cell_renderers():
    rng = random.Random(23)
    seen = set()
    for trial in range(400):
        height, width = rng.randint(3, 10), rng.randint(3, 10)
        walls = _random_grid(rng, height, width, border=True)
        open_cells = [(r, c) for r in range(height) for c in range(width) if not walls[r][c]]
        if len(open_cells) < 2:
            continue
        player = rng.choice(open_cells)
        goal = player if trial % 5 == 0 else rng.choice(open_cells)
        inst = PuzzleInstance(Domain.MAZE, MazeBoard(walls), MazeState(player), goal)
        assert maze.render_ascii(inst) == _parent_maze_render(inst)
        seen.add("player on goal" if player == goal else "maze")

        # Boxes on and off docks; the player stands on a free dock every third trial.
        n = rng.randint(1, len(open_cells) // 2)
        docks = tuple(sorted(rng.sample(open_cells, n)))
        off_dock = rng.randint(0, n)
        boxes = rng.sample(docks, n - off_dock) + rng.sample([c for c in open_cells if c not in docks], off_dock)
        free = [c for c in open_cells if c not in boxes]
        free_docks = [c for c in free if c in docks]
        player = rng.choice(free_docks) if trial % 3 == 0 and free_docks else rng.choice(free)
        inst = PuzzleInstance(Domain.SOKOBAN, SokobanBoard(walls, docks), SokobanState.make(player, boxes), docks)
        text = sokoban.render_ascii(inst)
        assert text == _parent_sokoban_render(inst)
        seen.update(glyph for glyph in "O$X" if glyph in text)
    assert seen >= {"player on goal", "maze", "O", "$", "X"}


def _parent_maze_parse(text):
    # The per-domain scan that maze.parse_ascii replaced, kept as the oracle.
    lines = [line for line in text.rstrip("\n").split("\n")]
    if not lines:
        raise ParseError("empty maze text")
    width = len(lines[0])
    player = None
    goal = None
    rows = []
    for r, line in enumerate(lines):
        if len(line) != width:
            raise ParseError(f"ragged row: expected width {width}, got {len(line)}", line=r + 1)
        row = []
        for c, ch in enumerate(line):
            if ch not in frozenset("#.@X"):
                raise ParseError(f"unknown glyph {ch!r}", line=r + 1, column=c + 1)
            if ch == "@":
                if player is not None:
                    raise ParseError("duplicate player", line=r + 1, column=c + 1)
                player = (r, c)
            elif ch == "X":
                if goal is not None:
                    raise ParseError("duplicate goal", line=r + 1, column=c + 1)
                goal = (r, c)
            row.append(ch == "#")
        rows.append(row)
    if player is None:
        raise ParseError("missing player")
    if goal is None:
        raise ParseError("missing goal")
    h = len(rows)
    for r in range(h):
        for c in (0, width - 1):
            if not rows[r][c]:
                raise ParseError("border is not walled", line=r + 1, column=c + 1)
    for c in range(width):
        for r in (0, h - 1):
            if not rows[r][c]:
                raise ParseError("border is not walled", line=r + 1, column=c + 1)
    return PuzzleInstance(Domain.MAZE, MazeBoard(freeze_grid(rows)), MazeState(player), goal)


def _parent_sokoban_parse(text):
    # The per-domain scan that sokoban.parse_ascii replaced.
    lines = text.rstrip("\n").split("\n")
    if not lines:
        raise ParseError("empty sokoban text")
    width = len(lines[0])
    rows = []
    docks = []
    boxes = []
    player = None
    for r, line in enumerate(lines):
        if len(line) != width:
            raise ParseError(f"ragged row: expected width {width}, got {len(line)}", line=r + 1)
        row = []
        for c, ch in enumerate(line):
            if ch not in frozenset("#@$.XO "):
                raise ParseError(f"unknown glyph {ch!r}", line=r + 1, column=c + 1)
            cell = (r, c)
            if ch in "@O":
                if player is not None:
                    raise ParseError("duplicate player", line=r + 1, column=c + 1)
                player = cell
            if ch in "$X":
                boxes.append(cell)
            if ch in ".XO":
                docks.append(cell)
            row.append(ch == "#")
        rows.append(row)
    if player is None:
        raise ParseError("missing player")
    if len(boxes) != len(docks):
        raise ParseError(f"box/dock count mismatch: {len(boxes)} boxes, {len(docks)} docks")
    board = SokobanBoard(freeze_grid(rows), tuple(sorted(docks)))
    return PuzzleInstance(Domain.SOKOBAN, board, SokobanState.make(player, boxes), board.docks)


def _single_faults(rng, text, faults):
    """``(fault, board)`` per entry of ``faults``: the board with one cell
    rewritten from one of ``old`` glyphs to ``new``, or a row cut short.
    A fault whose glyph the board lacks is left out."""
    grid = [list(line) for line in text.split("\n")]
    height, width = len(grid), len(grid[0])
    interior = [(r, c) for r in range(1, height - 1) for c in range(1, width - 1)]
    border = [(r, c) for r in range(height) for c in range(width) if (r, c) not in set(interior)]
    out = []
    for fault, old, new in faults:
        if fault == "ragged row":
            rows = list(text.split("\n"))
            r = rng.randrange(1, height)
            rows[r] = rows[r][:-1]
            out.append((fault, "\n".join(rows)))
            continue
        cells = border if fault == "open border" else interior
        cells = [(r, c) for r, c in cells if grid[r][c] in old]
        if not cells:
            continue
        r, c = rng.choice(cells)
        mutated = [row[:] for row in grid]
        mutated[r][c] = new
        out.append((fault, "\n".join("".join(row) for row in mutated)))
    return out


MAZE_FAULTS = (
    ("ragged row", "", ""),
    ("unknown glyph", ".", "?"),
    ("second player", ".", "@"),
    ("second goal", ".", "X"),
    ("missing player", "@", "."),
    ("missing goal", "X", "."),
    ("open border", "#", "."),
)

SOKOBAN_FAULTS = (
    ("ragged row", "", ""),
    ("unknown glyph", " ", "z"),
    ("second player", " ", "@"),
    ("second player on a dock", ".", "O"),
    ("missing player", "@", " "),
    ("missing player on a dock", "O", "."),
    ("box/dock mismatch", "$", " "),
    ("box/dock mismatch", " ", "$"),
    ("open border", "#", " "),
)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


def test_grid_parsers_match_the_per_domain_parsers():
    rng = random.Random(29)
    boards = []
    for seed in range(30):
        size = 7 + 2 * (seed % 4)
        inst = generation.generate_maze(size, size, generation.GenFilter(), seed=seed)
        boards.append((maze.parse_ascii, _parent_maze_parse, maze.render_ascii(inst), MAZE_FAULTS))
    while len(boards) < 60:
        text = _reverse_pull_board(rng, n_boxes=rng.randint(1, 4), pulls=rng.randint(5, 30))
        if text is None:
            continue
        boards.append((sokoban.parse_ascii, _parent_sokoban_parse, text, SOKOBAN_FAULTS))
        if "." in text:  # the same level with the player standing on a free dock
            on_dock = text.replace("@", " ").replace(".", "O", 1)
            boards.append((sokoban.parse_ascii, _parent_sokoban_parse, on_dock, SOKOBAN_FAULTS))
    seen = set()
    for parse, parent_parse, text, faults in boards:
        want = parent_parse(text)
        assert parse(text) == want
        assert parse(text + "\n") == want
        for fault, board in _single_faults(rng, text, faults):
            want = _parse_outcome(parent_parse, board)
            assert _parse_outcome(parse, board) == want, (fault, board)
            seen.add((fault, "instance" if isinstance(want, PuzzleInstance) else want[1].split(" (")[0]))
    assert {fault for fault, _ in seen} == {fault for fault, _, _ in MAZE_FAULTS + SOKOBAN_FAULTS}
    # A maze must be walled all round; a Sokoban level need not be.
    assert {("open border", "border is not walled"), ("open border", "instance")} <= seen
    assert {message for _, message in seen} >= {
        "ragged row: expected width 7, got 6", "unknown glyph '?'", "unknown glyph 'z'", "duplicate player",
        "duplicate goal", "missing player", "missing goal", "box/dock count mismatch: 1 boxes, 2 docks",
    }


def test_bfs_distances_do_not_wrap_between_rows():
    # Row ends are open but the cells one flat index apart on the next row
    # are only reachable the long way round.
    walls = [
        [False, False, False],
        [True, True, False],
        [False, False, False],
    ]
    assert maze.bfs_distances(walls, (0, 0)) == [0, 1, 2, -1, -1, 3, 6, 5, 4]
    assert maze.bfs_distances([[False, True, False]], (0, 0)) == [0, -1, -1]


def test_sokoban_cached_assignment_matches_direct_solve():
    # Two boards with the same walls but different docks: equal box tuples
    # must not share a cached assignment cost across them.
    size = 8
    walls = tuple(
        tuple(r in (0, size - 1) or c in (0, size - 1) for c in range(size)) for r in range(size)
    )
    insts = []
    for docks in (((1, 1), (6, 6)), ((1, 6), (6, 1))):
        board = SokobanBoard(walls, docks)
        insts.append(PuzzleInstance(Domain.SOKOBAN, board, SokobanState.make((3, 3), [(2, 2), (5, 5)]), docks))
    interior = [(r, c) for r in range(1, size - 1) for c in range(1, size - 1)]
    rng = random.Random(5)
    for _ in range(300):
        player, *boxes = rng.sample(interior, 3)
        state = SokobanState.make(player, boxes)
        for inst in insts:
            docks = inst.board.docks
            costs = [[abs(b[0] - d[0]) + abs(b[1] - d[1]) for d in docks] for b in state.boxes]
            nearest = min(abs(player[0] - b[0]) + abs(player[1] - b[1]) for b in state.boxes)
            want = 0 if state.boxes == docks else max(0, nearest - 1) + int(hungarian_min_cost(costs)[1])
            assert sokoban.quick_heuristic(state, inst) == want
            assert sokoban.feature_vector(state, inst)[0] == float(want)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("####\n#@#\n####", "ragged"),
        ("#####\n#@?X#\n#####", "unknown glyph"),
        ("#####\n#@@X#\n#####", "duplicate player"),
        ("#####\n#@.X#\n##X##", "duplicate goal"),
        ("#####\n#..X#\n#####", "missing player"),
        ("#####\n#@..#\n#####", "missing goal"),
        ("#####\n#@.X.\n#####", "border"),
    ],
)
def test_maze_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        maze.parse_ascii(text)
    assert fragment in str(err.value)


def test_parse_error_carries_location():
    err = ParseError("bad", line=3, column=7)
    assert err.line == 3 and err.column == 7
    assert "(line 3, column 7)" in str(err)


def test_sokoban_parse_render_round_trip():
    inst = domains.parse_ascii(SOKOBAN_TEXT, "sokoban")
    assert inst.start_state.player == (1, 1)
    assert inst.start_state.boxes == ((1, 2), (2, 2))
    assert inst.board.docks == ((1, 4), (2, 4))
    assert domains.render_ascii(inst) == SOKOBAN_TEXT


def test_sokoban_overlay_glyphs_round_trip():
    # Box-on-dock and player-on-dock render as X and O and parse back.
    text = "\n".join(
        [
            "#####",
            "#OX #",
            "# $ #",
            "#####",
        ]
    )
    inst = domains.parse_ascii(text, "sokoban")
    assert inst.start_state.player == (1, 1)
    assert set(inst.start_state.boxes) == {(1, 2), (2, 2)}
    assert set(inst.board.docks) == {(1, 1), (1, 2)}
    assert domains.render_ascii(inst) == text


def test_sokoban_push_mechanics():
    inst = domains.parse_ascii(SOKOBAN_TEXT, "sokoban")
    succ = dict(domains.successors(inst.start_state, inst))
    # Right pushes the (1, 2) box to (1, 3); player takes the box's old cell.
    pushed = succ["right"]
    assert pushed.player == (1, 2)
    assert (1, 3) in pushed.boxes
    # Down is a plain walk, no box moves.
    assert succ["down"].boxes == inst.start_state.boxes
    # Pushing the (2, 2) box right is illegal: a wall sits behind it.
    side = SokobanState.make((2, 1), inst.start_state.boxes)
    assert "right" not in dict(domains.successors(side, inst))
    # A box directly behind another box also blocks the push.
    stacked = SokobanState.make((1, 1), [(1, 2), (1, 3)])
    assert "right" not in dict(domains.successors(stacked, inst))


def test_sokoban_goal_and_heuristic_zero_at_goal():
    inst = domains.parse_ascii(SOKOBAN_TEXT, "sokoban")
    done = SokobanState.make((1, 1), inst.board.docks)
    assert domains.is_goal(done, inst)
    assert domains.quick_heuristic(done, inst) == 0
    assert not domains.is_goal(inst.start_state, inst)


def test_sokoban_walk_term_single_push_case():
    # Player adjacent to a box that is one step from its dock: the true cost
    # is one push, so the walk-to-box term must not add a full step.
    text = "\n".join(
        [
            "#####",
            "#@$.#",
            "#####",
        ]
    )
    inst = domains.parse_ascii(text, "sokoban")
    assert sokoban_bfs_optimal(inst) == 1
    assert domains.quick_heuristic(inst.start_state, inst) == 1


def test_sokoban_heuristic_admissible_on_small_boards():
    boards = [
        "\n".join(
            [
                "########",
                "#  .   #",
                "# $@$ .#",
                "#   #  #",
                "########",
            ]
        ),
        "\n".join(
            [
                "######",
                "#.  @#",
                "# $$ #",
                "#.   #",
                "######",
            ]
        ),
        "\n".join(
            [
                "######",
                "#.  @#",
                "# $  #",
                "#. $ #",
                "######",
            ]
        ),
    ]
    for text in boards:
        inst = domains.parse_ascii(text, "sokoban")
        optimal = sokoban_bfs_optimal(inst)
        assert optimal is not None
        assert domains.quick_heuristic(inst.start_state, inst) <= optimal


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("#####\n#@$ #\n#####", "mismatch"),
        ("#####\n#@O.#\n#####", "duplicate player"),
        ("#####\n# $.#\n#####", "missing player"),
        ("####\n#@#\n####", "ragged"),
        ("#####\n#@z.#\n#####", "unknown glyph"),
    ],
)
def test_sokoban_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        sokoban.parse_ascii(text)
    assert fragment in str(err.value)


def test_stp_parse_render_round_trip():
    inst = domains.parse_ascii("1 0 2 3 4 5 6 7 8", "stp")
    assert inst.start_state == StpState((1, 0, 2, 3, 4, 5, 6, 7, 8), 3)
    assert inst.goal_spec == tuple(range(9))
    assert domains.render_ascii(inst) == "1 0 2 3 4 5 6 7 8"


def test_stp_successor_counts_by_blank_position():
    corner = stp.make_instance((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
    assert len(domains.successors(corner.start_state, corner)) == 2
    center = stp.make_instance((4, 1, 2, 3, 0, 5, 6, 7, 8), 3)
    moves = domains.successors(center.start_state, center)
    assert len(moves) == 4
    # Moving the blank up swaps it with the tile above it.
    up = dict(moves)["up"]
    assert up.tiles == (4, 0, 2, 3, 1, 5, 6, 7, 8)


def test_stp_quick_heuristic_values():
    inst = stp.make_instance((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
    assert domains.quick_heuristic(inst.start_state, inst) == 0
    # Swapping two adjacent tiles displaces each by one.
    inst = stp.make_instance((0, 2, 1, 3, 4, 5, 6, 7, 8), 3)
    assert domains.quick_heuristic(inst.start_state, inst) == 2


def test_stp_heuristic_admissible_against_exact_table(stp3_table):
    rng = random.Random(5)
    states = rng.sample(sorted(stp3_table), 2000)
    goal = stp.make_instance((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
    for tiles in states:
        h = domains.quick_heuristic(StpState(tiles, 3), goal)
        assert h <= stp3_table[tiles]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("1 2 x 3", "non-numeric"),
        ("0 1 2 3 4", "square"),
        ("0 1 2 3 4 5 6 7 7", "permutation"),
    ],
)
def test_stp_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        stp.parse_ascii(text)
    assert fragment in str(err.value)


def test_state_keys_distinguish_states():
    rng = random.Random(11)
    maze_keys = {MazeState((r, c)).key() for r in range(100) for c in range(100)}
    assert len(maze_keys) == 100 * 100
    stp_keys = set()
    perms = set()
    while len(perms) < 10_000:
        tiles = tuple(rng.sample(range(9), 9))
        perms.add(tiles)
    for tiles in perms:
        stp_keys.add(StpState(tiles, 3).key())
    assert len(stp_keys) == len(perms)
    sok_keys = set()
    sok_states = set()
    while len(sok_states) < 10_000:
        cells = rng.sample([(r, c) for r in range(10) for c in range(10)], 4)
        state = SokobanState.make(cells[0], cells[1:])
        sok_states.add(state)
    for state in sok_states:
        sok_keys.add(state.key())
    assert len(sok_keys) == len(sok_states)


def test_sokoban_box_order_is_canonical():
    a = SokobanState.make((1, 1), [(2, 2), (3, 3)])
    b = SokobanState.make((1, 1), [(3, 3), (2, 2)])
    assert a == b
    assert a.key() == b.key()


def test_feature_vector_lengths():
    m = domains.parse_ascii(MAZE_TEXT, "maze")
    assert len(domains.feature_vector(m.start_state, m)) == 30
    s = domains.parse_ascii(SOKOBAN_TEXT, "sokoban")
    assert len(domains.feature_vector(s.start_state, s)) == 81
    for width, dims in ((3, 17), (4, 19), (5, 21)):
        inst = stp.make_instance(tuple(range(width * width)), width)
        assert len(domains.feature_vector(inst.start_state, inst)) == dims


def test_feature_vector_leads_with_quick_heuristic():
    for text, domain in ((MAZE_TEXT, "maze"), (SOKOBAN_TEXT, "sokoban")):
        inst = domains.parse_ascii(text, domain)
        feats = domains.feature_vector(inst.start_state, inst)
        assert feats[0] == float(domains.quick_heuristic(inst.start_state, inst))


def test_hungarian_known_fixtures():
    assign, total = hungarian_min_cost([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
    assert total == 5.0
    assert sorted(assign) == [0, 1, 2]
    assert assign == [1, 0, 2]
    assert hungarian_min_cost([]) == ([], 0.0)
    assert hungarian_min_cost([[7]]) == ([0], 7.0)
    # Identity-cost matrix: zeros on the diagonal are optimal.
    _, total = hungarian_min_cost([[0 if i == j else 9 for j in range(4)] for i in range(4)])
    assert total == 0.0


def test_hungarian_matches_brute_force_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        cost = [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]
        assign, total = hungarian_min_cost(cost)
        best = min(sum(cost[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
        assert total == best
        assert sorted(assign) == list(range(n))
        assert sum(cost[i][assign[i]] for i in range(n)) == best


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian_min_cost([[1, 2], [3]])
    with pytest.raises(ValueError):
        hungarian_min_cost([[1.0, float("inf")], [0.0, 1.0]])


def test_legends_cover_all_domains():
    assert set(domains.LEGENDS) == {Domain.MAZE, Domain.SOKOBAN, Domain.STP}
    assert domains.LEGENDS[Domain.STP] == "0 - empty space"


@pytest.mark.parametrize(
    "domain, text, size",
    [
        ("maze", "#@X#", "1x4"),
        ("sokoban", "@\n$\n.", "3x1"),
        ("stp", "0", "1x1"),
    ],
)
def test_a_board_without_two_rows_and_columns_names_its_size_and_file(tmp_path, domain, text, size):
    # Position features divide by height - 1 and width - 1; such a board
    # used to parse and then fail feature extraction with a bare ZeroDivisionError.
    (tmp_path / "manifest.jsonl").write_text(f'{{"id": "flat", "seed": 0, "domain": "{domain}"}}\n')
    board = tmp_path / "flat.txt"
    board.write_text(text + "\n")
    with pytest.raises(ParseError, match=f"board is {size}") as err:
        generation.read_split(tmp_path)
    assert str(err.value).startswith(f"{board}: ")
