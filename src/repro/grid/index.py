"""The N x N grid directory of moving objects.

This is the data structure ``G`` of the paper: each cell tracks the set of
objects currently inside it.  Objects carry an opaque *category* so that
the bichromatic algorithms can search A objects and scan B objects on the
same structure (category ``0`` is the default for monochromatic data).

Storage is pluggable (see :mod:`repro.grid.store`): the default
``"columnar"`` backend keeps parallel coordinate columns plus a per-cell
row index, so the search kernels can scan whole cells as array slices;
``"mapping"`` keeps the original dict-of-sets layout for differential
testing and tiny populations.  The index itself owns the geometry
(position -> cell math), the maintenance counters, and the per-tick
:class:`~repro.grid.delta.TickDelta` bookkeeping — both backends see
exactly the same sequence of primitive mutations.

The index counts *cell changes* — moves that relocate an object to a
different cell.  Figure 5a of the paper plots exactly this number as the
grid-maintenance overhead of increasing grid resolution.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Optional, Tuple

import numpy as _np

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.grid.cell import CellKey, cell_key_of, cell_rect_of
from repro.grid.delta import TickDelta
from repro.grid.store import make_store

Category = Hashable
ObjectId = Hashable

#: Below this many moves per tick the vectorized bulk path costs more in
#: array staging than it saves; the scalar loop handles small ticks.
#: Measured crossover sits between 30 and 64 movers on a 2k-object grid.
_BULK_MOVE_MIN = 48


class GridIndex:
    """Uniform grid over a rectangular data space.

    Parameters
    ----------
    size:
        Number of cells per axis (the grid is ``size x size``).
    extent:
        The indexed data space; defaults to the unit square.  Out-of-extent
        positions are accepted and clamped into boundary cells, matching
        how moving-object generators occasionally overshoot the map edge.
    store:
        Storage backend: ``"columnar"`` (struct-of-arrays, the default) or
        ``"mapping"`` (the dict-backed reference layout).  Answers are
        bit-identical between the two; only the cost profile differs.
    """

    def __init__(
        self,
        size: int,
        extent: Optional[Rect] = None,
        store: str = "columnar",
    ):
        if size < 1:
            raise ValueError(f"grid size must be positive, got {size}")
        self.size = size
        self.extent = extent if extent is not None else Rect.unit()
        # Precomputed scale factors for the (very hot) position->cell map.
        self._xmin = self.extent.xmin
        self._ymin = self.extent.ymin
        self._inv_w = size / self.extent.width
        self._inv_h = size / self.extent.height
        self.store_kind = store
        self._store = make_store(store)
        # Stable mapping view over the backend's positions: the scalar
        # search paths and the shared tick context read through it.
        self._positions = self._store.positions
        self.cell_changes = 0
        self.updates = 0
        # Monotonic count of every structural change (insert/remove/move),
        # never reset: version-stamped cache layers key their freshness on
        # it.  ``updates``/``cell_changes`` cannot serve that role — they
        # carry the paper's Figure-5a semantics, miss inserts/removes, and
        # are zeroed by :meth:`reset_counters`.
        self.mutations = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, oid: ObjectId, pos: Iterable[float], category: Category = 0) -> None:
        """Add a new object.  Raises ``KeyError`` if ``oid`` already exists."""
        if oid in self._store:
            raise KeyError(f"object {oid!r} already in the index")
        x, y = pos
        p = Point(x, y)
        key = cell_key_of(self.extent, self.size, p)
        self._store.insert(oid, p, category, key)
        self.mutations += 1

    def remove(self, oid: ObjectId) -> Point:
        """Remove an object and return its last position."""
        pos, _key, _category = self._store.remove(oid)
        self.mutations += 1
        return pos

    def move(self, oid: ObjectId, pos: Iterable[float]) -> bool:
        """Update an object's position.

        Returns ``True`` when the move crossed a cell boundary (a *cell
        change*, the grid-maintenance event Figure 5a counts).

        This is the single hottest scalar call of a simulation, so the
        cell computation is inlined.
        """
        x, y = pos
        p = Point(x, y)
        n = self.size
        ix = int((x - self._xmin) * self._inv_w)
        iy = int((y - self._ymin) * self._inv_h)
        if ix < 0:
            ix = 0
        elif ix >= n:
            ix = n - 1
        if iy < 0:
            iy = 0
        elif iy >= n:
            iy = n - 1
        self.updates += 1
        self.mutations += 1
        old_key = self._store.move(oid, p, (ix, iy))
        if old_key is None:
            return False
        self.cell_changes += 1
        return True

    def upsert(self, oid: ObjectId, pos: Iterable[float], category: Category = 0) -> None:
        """Insert or move, whichever applies."""
        if oid in self._store:
            self.move(oid, pos)
        else:
            self.insert(oid, pos, category)

    def apply_updates(
        self,
        moves: Iterable[Tuple[ObjectId, Iterable[float]]],
        inserts: Iterable[Tuple[ObjectId, Iterable[float], Category]] = (),
        removes: Iterable[ObjectId] = (),
    ) -> TickDelta:
        """Apply one tick's worth of updates in a single pass.

        Removes are applied first, then inserts, then moves — the order
        the simulator uses for churn streams.  Counter semantics are
        identical to the equivalent sequence of :meth:`move` /
        :meth:`insert` / :meth:`remove` calls.  The returned
        :class:`TickDelta` is fresh on every call: it records which
        objects moved, were inserted or were removed, and every cell they
        touched (the old and new cell of a mover, the cell of an insert or
        remove) — the raw material for the engine's skip decisions.

        A move that restates an object's current position is applied (and
        counted as an update, like :meth:`move`) but reported as *no*
        movement: a stationary object cannot affect any query.
        """
        delta = TickDelta()
        store = self._store
        touched = delta.touched_cells

        for oid in removes:
            _pos, key, _category = store.remove(oid)
            self.mutations += 1
            delta.removed.add(oid)
            touched.add(key)
        for oid, pos, category in inserts:
            self.insert(oid, pos, category)
            delta.inserted.add(oid)
            touched.add(store.cell_of(oid))

        if not isinstance(moves, (list, tuple)):
            moves = list(moves)
        n_moves = len(moves)
        if n_moves >= _BULK_MOVE_MIN and store.vectorized and self._bulk_moves(
            moves, delta
        ):
            self.updates += n_moves
            self.mutations += n_moves
            return delta

        moved = delta.moved
        n = self.size
        xmin = self._xmin
        ymin = self._ymin
        inv_w = self._inv_w
        inv_h = self._inv_h
        store_move = store.move
        # The no-op check reads raw columns on the columnar layout —
        # store.position() would materialize a Point per mover.
        col_rows = getattr(store, "row_of", None)
        if col_rows is not None:
            col_xs = store.xs
            col_ys = store.ys
        position = store.position
        for oid, pos in moves:
            x, y = pos
            if col_rows is not None:
                row = col_rows[oid]
                if col_xs[row] == x and col_ys[row] == y:
                    continue
            else:
                old = position(oid)
                if old.x == x and old.y == y:
                    continue
            p = pos if type(pos) is Point else Point(x, y)
            ix = int((x - xmin) * inv_w)
            iy = int((y - ymin) * inv_h)
            if ix < 0:
                ix = 0
            elif ix >= n:
                ix = n - 1
            if iy < 0:
                iy = 0
            elif iy >= n:
                iy = n - 1
            new_key = (ix, iy)
            old_key = store_move(oid, p, new_key)
            moved.add(oid)
            touched.add(new_key)
            if old_key is None:
                continue
            self.cell_changes += 1
            touched.add(old_key)
        self.updates += n_moves
        self.mutations += n_moves
        return delta

    def _bulk_moves(self, moves, delta: TickDelta) -> bool:
        """Vectorized move batch over the columnar backend.

        Returns ``False`` when the batch must take the scalar loop
        (duplicate movers in one tick keep last-wins semantics there)."""
        n = len(moves)
        coords = _np.empty((n, 2), dtype=_np.float64)
        oids = [None] * n
        for i, (oid, pos) in enumerate(moves):
            oids[i] = oid
            coords[i, 0] = pos[0]
            coords[i, 1] = pos[1]
        result = self._store.bulk_move(
            oids, coords, self._xmin, self._ymin, self._inv_w, self._inv_h, self.size
        )
        if result is None:
            return False
        changed_oids, touched_keys, left_keys = result
        delta.moved.update(changed_oids)
        delta.touched_cells.update(touched_keys)
        delta.touched_cells.update(left_keys)
        self.cell_changes += len(left_keys)
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._store

    def position(self, oid: ObjectId) -> Point:
        """Current position of an object."""
        return self._store.position(oid)

    def category(self, oid: ObjectId) -> Category:
        """Category tag of an object."""
        return self._store.category(oid)

    def cell_of(self, oid: ObjectId) -> CellKey:
        """Key of the cell currently holding the object."""
        return self._store.cell_of(oid)

    def cell_key(self, pos: Iterable[float]) -> CellKey:
        """Key of the cell covering a position."""
        return cell_key_of(self.extent, self.size, pos)

    def cell_rect(self, key: CellKey) -> Rect:
        """Rectangle covered by a cell."""
        return cell_rect_of(self.extent, self.size, key)

    def objects_in_cell(
        self, key: CellKey, category: Optional[Category] = None
    ) -> Iterator[ObjectId]:
        """Objects currently inside a cell, optionally of one category."""
        return self._store.objects_in_cell(key, category)

    def cell_population(self, key: CellKey, category: Optional[Category] = None) -> int:
        """Number of objects inside a cell."""
        return self._store.cell_population(key, category)

    def objects(self, category: Optional[Category] = None) -> Iterator[ObjectId]:
        """All object ids, optionally restricted to one category.

        Per-category enumeration reads the maintained id set — O(size of
        the category), not a scan of the whole population.
        """
        return self._store.objects(category)

    def count(self, category: Optional[Category] = None) -> int:
        """Number of indexed objects, optionally of one category (O(1))."""
        return self._store.count(category)

    def occupied_cells(self) -> Iterator[CellKey]:
        """Keys of all cells holding at least one object."""
        return self._store.occupied_cells()

    def occupied_count(self) -> int:
        """Number of cells holding at least one object (O(1))."""
        return self._store.occupied_count()

    def positions_snapshot(
        self, category: Optional[Category] = None
    ) -> Dict[ObjectId, Tuple[float, float]]:
        """A copy of all current positions, keyed by object id."""
        return self._store.positions_snapshot(category)

    def reset_counters(self) -> None:
        """Zero the maintenance counters (cell changes and updates)."""
        self.cell_changes = 0
        self.updates = 0
