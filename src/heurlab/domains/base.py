"""Shared domain types: puzzle instances, states (equal states have equal ``key()`` bytes), boards, parse errors."""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

Cell = tuple[int, int]

# Successor generation visits moves in this fixed order so that searches are
# reproducible run to run.
DIRECTIONS: tuple[tuple[str, Cell], ...] = (
    ("up", (-1, 0)),
    ("down", (1, 0)),
    ("left", (0, -1)),
    ("right", (0, 1)),
)

OPPOSITE_ACTION = {"up": "down", "down": "up", "left": "right", "right": "left"}

WINDOW_RADIUS = 2
WINDOW_SIDE = 2 * WINDOW_RADIUS + 1


class Domain(str, Enum):
    MAZE = "maze"
    SOKOBAN = "sokoban"
    STP = "stp"


class ParseError(ValueError):
    """Malformed puzzle text: a ``reason``, plus 1-based line/column when known."""

    def __init__(self, reason: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(reason + loc)
        self.reason = reason
        self.line = line
        self.column = column


class MazeBoard(NamedTuple):
    walls: tuple[tuple[bool, ...], ...]  # walls[r][c] is True for a wall cell

    @property
    def height(self) -> int:
        return len(self.walls)

    @property
    def width(self) -> int:
        return len(self.walls[0])


class SokobanBoard(NamedTuple):
    walls: tuple[tuple[bool, ...], ...]
    docks: tuple[Cell, ...]  # sorted

    @property
    def height(self) -> int:
        return len(self.walls)

    @property
    def width(self) -> int:
        return len(self.walls[0])


class StpBoard(NamedTuple):
    width: int


class MazeState(NamedTuple):
    player: Cell

    def key(self) -> bytes:
        return struct.pack("<HH", *self.player)


class SokobanState(NamedTuple):
    player: Cell
    boxes: tuple[Cell, ...]  # kept sorted so equal configurations compare equal

    def key(self) -> bytes:
        flat = [*self.player]
        for box in self.boxes:
            flat.extend(box)
        return struct.pack(f"<{len(flat)}H", *flat)

    @staticmethod
    def make(player: Cell, boxes) -> "SokobanState":
        return SokobanState(player, tuple(sorted(boxes)))


class StpState(NamedTuple):
    tiles: tuple[int, ...]  # row-major permutation of 0..width*width-1; 0 is the blank
    width: int

    def key(self) -> bytes:
        return bytes(self.tiles)


@dataclass(frozen=True)
class PuzzleInstance:
    domain: Domain
    board: object
    start_state: object
    goal_spec: object
    id: str = ""
    seed: int | None = None
    provenance: dict = field(default_factory=dict, compare=False)

    @functools.cached_property
    def padded_walls(self) -> tuple[list[float], int]:
        """A maze or Sokoban board's walls as one flat row-major list of 1.0
        (wall) and 0.0 (floor), ringed by ``WINDOW_RADIUS`` rows and columns of
        wall, and its width. Built on first use and kept in the instance's
        ``__dict__``, outside the fields, so equality and hash ignore it."""
        walls = self.board.walls
        width = len(walls[0]) + 2 * WINDOW_RADIUS
        ring = [1.0] * WINDOW_RADIUS
        grid = [1.0] * (width * WINDOW_RADIUS)
        for row in walls:
            grid += ring
            grid += [1.0 if is_wall else 0.0 for is_wall in row]
            grid += ring
        grid += [1.0] * (width * WINDOW_RADIUS)
        return grid, width


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def freeze_grid(rows: list[list[bool]]) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(row) for row in rows)


def parse_grid(text: str, glyphs: str) -> tuple[tuple[tuple[bool, ...], ...], dict[str, list[Cell]]]:
    """Frozen walls ('#') of a rectangular board of ``glyphs``, and the cells
    of each glyph in row-major order. A ragged row or a glyph outside
    ``glyphs`` raises ``ParseError`` at the first one met; so does a board of
    one row or one column, whose position features would divide by zero."""
    lines = text.rstrip("\n").split("\n")
    width = len(lines[0])
    cells: dict[str, list[Cell]] = {glyph: [] for glyph in glyphs}
    for r, line in enumerate(lines):
        if len(line) != width:
            raise ParseError(f"ragged row: expected width {width}, got {len(line)}", line=r + 1)
        for c, ch in enumerate(line):
            if ch not in cells:
                raise ParseError(f"unknown glyph {ch!r}", line=r + 1, column=c + 1)
            cells[ch].append((r, c))
    if len(lines) < 2 or width < 2:
        raise ParseError(f"board is {len(lines)}x{width}; it needs at least 2 rows and 2 columns")
    return tuple(tuple(ch == "#" for ch in line) for line in lines), cells


def single_cell(cells: list[Cell], name: str) -> Cell:
    """The one cell of a marker; a missing marker, or a second one (located at
    its second cell), raises ``ParseError``."""
    if not cells:
        raise ParseError(f"missing {name}")
    if len(cells) > 1:
        r, c = cells[1]
        raise ParseError(f"duplicate {name}", line=r + 1, column=c + 1)
    return cells[0]


def render_grid(walls, floor: str, overlay: dict[Cell, str]) -> str:
    """Rows of ``walls`` as '#' or ``floor``, then ``overlay`` written over its
    cells in insertion order, so a later entry for a cell wins."""
    rows = [["#" if is_wall else floor for is_wall in row] for row in walls]
    for (r, c), char in overlay.items():
        rows[r][c] = char
    return "\n".join("".join(row) for row in rows)


def wall_window(instance: PuzzleInstance, center: Cell) -> list[float]:
    """Flattened (2r+1)^2 window of ``instance``'s walls around ``center``,
    r = ``WINDOW_RADIUS``, row-major; out-of-board counts as wall."""
    grid, width = instance.padded_walls
    top_left = center[0] * width + center[1]  # the padding shifts the window's corner onto the cell's own index
    out = []
    for start in range(top_left, top_left + WINDOW_SIDE * width, width):
        out += grid[start:start + WINDOW_SIDE]
    return out


def cells_window(cells, center: Cell) -> list[float]:
    """The same window over a board whose only occupied cells are ``cells``."""
    r0, c0 = center
    out = [0.0] * (WINDOW_SIDE * WINDOW_SIDE)
    for r, c in cells:
        dr, dc = r - r0 + WINDOW_RADIUS, c - c0 + WINDOW_RADIUS
        if 0 <= dr < WINDOW_SIDE and 0 <= dc < WINDOW_SIDE:
            out[dr * WINDOW_SIDE + dc] = 1.0
    return out
