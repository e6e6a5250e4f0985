"""ASCII visualization of grids, regions, and query state.

Terminal-friendly debugging views: render the monitored region of an
IGERN query (alive vs dead cells), the objects on the grid, and the query
position as a character raster.  Invaluable when studying why a region
grew or a candidate was pruned; used by the docs and a couple of tests,
with no plotting dependencies.

Legend (override via keyword arguments):

- ``.`` alive cell, `` `` (space) dead cell;
- ``o`` cell holding at least one object (``A``/``B`` in bichromatic
  views), ``*`` an object inside an alive cell;
- ``Q`` the query's cell, ``C`` a monitored candidate's cell.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

from repro.grid.alive import AliveCellGrid
from repro.grid.index import GridIndex, ObjectId

_MAX_SIDE = 64


def _downsample(size: int, max_side: int = _MAX_SIDE) -> int:
    """Cells aggregated per character so the raster fits a terminal."""
    step = 1
    while size // step > max_side:
        step *= 2
    return step


def render_region(
    alive: AliveCellGrid,
    grid: Optional[GridIndex] = None,
    qpos: Optional[Tuple[float, float]] = None,
    candidates: Iterable[ObjectId] = (),
    alive_char: str = ".",
    dead_char: str = " ",
    max_side: int = _MAX_SIDE,
) -> str:
    """Render an alive/dead cell mask (and optionally what is inside it).

    When aggregating several cells per character, a block counts as alive
    (and as populated) if any member cell is.
    """
    n = alive.size
    step = _downsample(n, max_side)
    side = (n + step - 1) // step

    raster = [[dead_char] * side for _ in range(side)]
    alive_blocks = set()
    for ix, iy in alive.alive_cells():
        alive_blocks.add((ix // step, iy // step))
    # Straddler cells outside the polygon bbox are not enumerated by
    # alive_cells (they hold no surviving point); probe block corners so
    # the raster still reflects is_alive semantics for small grids.
    if step == 1:
        for ix in range(n):
            for iy in range(n):
                if (ix, iy) not in alive_blocks and alive.is_alive((ix, iy)):
                    alive_blocks.add((ix, iy))
    for bx, by in alive_blocks:
        raster[side - 1 - by][bx] = alive_char

    if grid is not None:
        candidate_set = set(candidates)
        for oid in grid.objects():
            ix, iy = grid.cell_of(oid)
            bx, by = ix // step, iy // step
            row, col = side - 1 - by, bx
            if oid in candidate_set:
                raster[row][col] = "C"
            elif raster[row][col] in (alive_char, dead_char):
                raster[row][col] = "*" if (bx, by) in alive_blocks else "o"

    if qpos is not None:
        ix, iy = _cell_of(alive, qpos)
        raster[side - 1 - iy // step][ix // step] = "Q"

    return "\n".join("".join(row) for row in raster)


def render_grid(
    grid: GridIndex,
    qpos: Optional[Tuple[float, float]] = None,
    category_chars: Optional[Mapping[object, str]] = None,
    max_side: int = _MAX_SIDE,
) -> str:
    """Render object occupancy of a grid index.

    Each character is one cell (or block of cells); the character shows
    the category of (one of) the objects inside, ``.`` for empty space
    and ``Q`` for the query's cell.
    """
    n = grid.size
    step = _downsample(n, max_side)
    side = (n + step - 1) // step
    raster = [["."] * side for _ in range(side)]
    chars = category_chars or {}
    for oid in grid.objects():
        ix, iy = grid.cell_of(oid)
        char = chars.get(grid.category(oid), "o")
        raster[side - 1 - iy // step][ix // step] = str(char)[:1]
    if qpos is not None:
        key = grid.cell_key(qpos)
        raster[side - 1 - key[1] // step][key[0] // step] = "Q"
    return "\n".join("".join(row) for row in raster)


def render_query_state(algo_state, grid: GridIndex, max_side: int = _MAX_SIDE) -> str:
    """Render the monitored state of an IGERN query: a
    :class:`repro.core.state.RegionState` of either flavour."""
    return render_region(
        algo_state.alive,
        grid=grid,
        qpos=algo_state.qpos,
        candidates=algo_state.monitored,
        max_side=max_side,
    )


def _cell_of(alive: AliveCellGrid, p: Tuple[float, float]) -> Tuple[int, int]:
    from repro.grid.cell import cell_key_of

    return cell_key_of(alive.extent, alive.size, p)
