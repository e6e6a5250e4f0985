"""Spatial routing: cells, points and queries to shard ids.

The serving layer stripes the grid extent into ``n_shards`` vertical
column bands of cells; a cell's stripe is its *owning* shard.  Ownership
is an attribution and placement policy, not a data partition — every
shard replicates the full object stream (see ``docs/SERVING.md`` for the
trade-off), so routing only decides *which shard answers for a query*
and which shard's counters an update is attributed to.

All functions here are pure and deterministic: the same inputs map to
the same shard on the gateway and in every test, which is what keeps
shard assignment reproducible across runs.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Tuple

from repro.geometry.rectangle import Rect

CellKey = Tuple[int, int]


def shard_of_cell(cell: CellKey, grid_size: int, n_shards: int) -> int:
    """The shard owning a grid cell: vertical column stripes.

    Stripe ``s`` owns columns ``[s * grid_size / n_shards, ...)``; the
    integer arithmetic distributes remainder columns over the leading
    stripes and clamps out-of-range columns into the edge stripes.
    """
    cx = min(max(cell[0], 0), grid_size - 1)
    return min(cx * n_shards // grid_size, n_shards - 1)


def cell_of_point(
    point: Iterable[float], grid_size: int, extent: Rect
) -> CellKey:
    """The grid cell containing a point (clamped into the extent)."""
    x, y = point
    fx = (x - extent.xmin) / extent.width if extent.width else 0.0
    fy = (y - extent.ymin) / extent.height if extent.height else 0.0
    cx = min(max(int(fx * grid_size), 0), grid_size - 1)
    cy = min(max(int(fy * grid_size), 0), grid_size - 1)
    return (cx, cy)


def shard_of_point(
    point: Iterable[float], grid_size: int, extent: Rect, n_shards: int
) -> int:
    """The shard owning the cell a point falls into."""
    return shard_of_cell(
        cell_of_point(point, grid_size, extent), grid_size, n_shards
    )


def shard_of_name(name: Hashable, n_shards: int) -> int:
    """Deterministic fallback placement for queries with no usable
    position (moving queries identified only by object id).  A stable
    string fold — not ``hash()``, which is salted per process."""
    text = repr(name)
    acc = 2166136261
    for ch in text:
        acc = ((acc ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    return acc % n_shards


def route_query(
    *,
    grid_size: int,
    extent: Rect,
    n_shards: int,
    name: Hashable,
    point: Optional[Tuple[float, float]] = None,
) -> int:
    """Pick the owning shard for a query.

    Preference order:

    1. **Query-point cell** — fixed-position queries (including
       footprint-less network-metric queries, which are *pinned* to this
       shard and answered from its replicated object state).
    2. **Stable name fold** — moving queries known only by object id.
    """
    if point is not None:
        return shard_of_point(point, grid_size, extent, n_shards)
    return shard_of_name(name, n_shards)
