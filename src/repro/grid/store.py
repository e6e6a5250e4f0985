"""Pluggable object stores behind :class:`repro.grid.index.GridIndex`.

Two layouts implement the same storage contract:

- :class:`MappingStore` — the original dict-of-sets layout (``oid ->
  Point``, ``cell -> category -> set``).  Object-at-a-time, allocation
  heavy, but with zero per-row indirection; still preferable for tiny
  populations and as the differential-testing reference.
- :class:`ColumnarStore` — a struct-of-arrays layout: parallel ``float64``
  coordinate columns, integer cell-coordinate columns, and a
  per-(cell, category) row index of growable ``int64`` row lists (a
  CSR-style bucket index maintained incrementally on every
  insert/remove/move).  Rows are recycled through a free list; when
  churn leaves too many holes the store compacts the columns in one pass
  so whole-cell slices stay dense.

The columnar layout is what the vectorized cell kernels in
:mod:`repro.grid.search` and :mod:`repro.grid.alive` slice: a cell scan
becomes one fancy-indexed gather over the coordinate columns plus one
vectorized certified-filter pass, with only the uncertain rows routed to
the exact predicates — answers stay bit-identical to the scalar path
because IEEE-754 double arithmetic is elementwise identical and every
filter decision is certified (see ``geometry/predicates.py``).

Row membership test used by the kernels: a row ``r`` belongs to a bucket
iff ``slots[r] < bucket.n and bucket.rows[slots[r]] == r`` — rows live in
exactly one bucket, so the slot round-trip is an exact membership check
without any per-row category column.

Module-level :data:`STATS` counts kernel work (rows scanned, rows decided
by the vectorized filter, rows routed to the exact fallback); the engine
publishes the deltas as ``store_*_total`` counters (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as _np

from repro.geometry.point import Point

CellKey = Tuple[int, int]
Category = Hashable
ObjectId = Hashable

#: Free rows tolerated before a compaction pass (and the free list must
#: also outnumber the live rows — steady small churn never compacts).
COMPACT_MIN_FREE = 256


class StoreStats:
    """Process-wide tallies of columnar kernel work."""

    __slots__ = ("rows_scanned", "filter_rows", "exact_rows")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Rows examined by vectorized cell kernels.
        self.rows_scanned = 0
        #: Rows decided by the vectorized (certified) float filter.
        self.filter_rows = 0
        #: Rows the filter could not decide, routed to exact arithmetic.
        self.exact_rows = 0

    def snapshot(self) -> dict:
        """Plain-data copy of the counters (process-boundary safe)."""
        return {
            "rows_scanned": self.rows_scanned,
            "filter_rows": self.filter_rows,
            "exact_rows": self.exact_rows,
        }

    def merge(self, delta: dict) -> None:
        """Fold another process's counter *delta* into this instance
        (the worker→gateway seam; see ``PredicateStats.merge``)."""
        self.rows_scanned += delta.get("rows_scanned", 0)
        self.filter_rows += delta.get("filter_rows", 0)
        self.exact_rows += delta.get("exact_rows", 0)


STATS = StoreStats()


class _RowList:
    """Growable ``int64`` row vector with O(1) swap-remove."""

    __slots__ = ("rows", "n")

    def __init__(self) -> None:
        self.rows = _np.empty(8, dtype=_np.int64)
        self.n = 0

    def append(self, row: int) -> int:
        n = self.n
        rows = self.rows
        if n == len(rows):
            grown = _np.empty(2 * n, dtype=_np.int64)
            grown[:n] = rows
            self.rows = rows = grown
        rows[n] = row
        self.n = n + 1
        return n

    def swap_remove(self, slot: int) -> int:
        """Drop the row at ``slot``; returns the row moved into its place
        (so the caller can fix that row's slot), or ``-1`` if none."""
        self.n = n = self.n - 1
        rows = self.rows
        if slot != n:
            last = int(rows[n])
            rows[slot] = last
            return last
        return -1

    def view(self):
        return self.rows[: self.n]


class _PositionsView:
    """Read-only ``oid -> Point`` mapping over the coordinate columns.

    Keeps every ``grid._positions[oid]`` call site working unchanged on
    the columnar layout; Points are materialized on access (the hot
    paths slice the columns directly instead)."""

    __slots__ = ("_store",)

    def __init__(self, store: "ColumnarStore"):
        self._store = store

    def __getitem__(self, oid: ObjectId) -> Point:
        s = self._store
        row = s.row_of[oid]
        return Point(float(s.xs[row]), float(s.ys[row]))

    def get(self, oid: ObjectId, default=None):
        row = self._store.row_of.get(oid)
        if row is None:
            return default
        s = self._store
        return Point(float(s.xs[row]), float(s.ys[row]))

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._store.row_of

    def __len__(self) -> int:
        return len(self._store.row_of)

    def __iter__(self) -> Iterator[ObjectId]:
        return iter(self._store.row_of)

    def items(self) -> Iterator[Tuple[ObjectId, Point]]:
        for oid in self._store.row_of:
            yield oid, self[oid]


class MappingStore:
    """The original dict-backed layout (differential-testing reference)."""

    kind = "mapping"
    vectorized = False

    def __init__(self) -> None:
        self.positions: Dict[ObjectId, Point] = {}
        self._categories: Dict[ObjectId, Category] = {}
        self._cell_of: Dict[ObjectId, CellKey] = {}
        # cell key -> category -> set of object ids.  Cells spring into
        # existence on first insert, so an almost-empty huge grid stays
        # cheap.
        self._cells: Dict[CellKey, Dict[Category, Set[ObjectId]]] = {}
        # category -> ids of that category, so per-category enumeration
        # and counting never scan the whole population.
        self._by_category: Dict[Category, Set[ObjectId]] = {}

    # -- mutation ------------------------------------------------------

    def insert(self, oid: ObjectId, p: Point, category: Category, key: CellKey) -> None:
        self.positions[oid] = p
        self._categories[oid] = category
        self._cell_of[oid] = key
        self._cells.setdefault(key, {}).setdefault(category, set()).add(oid)
        self._by_category.setdefault(category, set()).add(oid)

    def remove(self, oid: ObjectId) -> Tuple[Point, CellKey, Category]:
        pos = self.positions.pop(oid)
        category = self._categories.pop(oid)
        key = self._cell_of.pop(oid)
        bucket = self._cells[key][category]
        bucket.discard(oid)
        if not bucket:
            del self._cells[key][category]
            if not self._cells[key]:
                del self._cells[key]
        ids = self._by_category[category]
        ids.discard(oid)
        if not ids:
            del self._by_category[category]
        return pos, key, category

    def move(self, oid: ObjectId, p: Point, new_key: CellKey) -> Optional[CellKey]:
        """Update a position; returns the old cell key on a boundary
        crossing, ``None`` for a within-cell move."""
        old_key = self._cell_of[oid]
        self.positions[oid] = p
        if new_key == old_key:
            return None
        category = self._categories[oid]
        cells = self._cells
        bucket = cells[old_key][category]
        bucket.discard(oid)
        if not bucket:
            del cells[old_key][category]
            if not cells[old_key]:
                del cells[old_key]
        cells.setdefault(new_key, {}).setdefault(category, set()).add(oid)
        self._cell_of[oid] = new_key
        return old_key

    def bulk_move(self, oids, coords, xmin, ymin, inv_w, inv_h, size):
        return None  # object-at-a-time only

    # -- lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self.positions

    def position(self, oid: ObjectId) -> Point:
        return self.positions[oid]

    def category(self, oid: ObjectId) -> Category:
        return self._categories[oid]

    def cell_of(self, oid: ObjectId) -> CellKey:
        return self._cell_of[oid]

    def objects_in_cell(
        self, key: CellKey, category: Optional[Category] = None
    ) -> Iterator[ObjectId]:
        buckets = self._cells.get(key)
        if not buckets:
            return
        if category is None:
            for bucket in buckets.values():
                yield from bucket
        else:
            yield from buckets.get(category, ())

    def cell_population(self, key: CellKey, category: Optional[Category] = None) -> int:
        buckets = self._cells.get(key)
        if not buckets:
            return 0
        if category is None:
            return sum(len(bucket) for bucket in buckets.values())
        return len(buckets.get(category, ()))

    def objects(self, category: Optional[Category] = None) -> Iterator[ObjectId]:
        if category is None:
            yield from self.positions
        else:
            yield from self._by_category.get(category, ())

    def count(self, category: Optional[Category] = None) -> int:
        if category is None:
            return len(self.positions)
        return len(self._by_category.get(category, ()))

    def occupied_cells(self) -> Iterator[CellKey]:
        yield from self._cells

    def occupied_count(self) -> int:
        return len(self._cells)

    def positions_snapshot(
        self, category: Optional[Category] = None
    ) -> Dict[ObjectId, Tuple[float, float]]:
        if category is None:
            return {oid: (p.x, p.y) for oid, p in self.positions.items()}
        positions = self.positions
        return {
            oid: (positions[oid].x, positions[oid].y)
            for oid in self._by_category.get(category, ())
        }


class ColumnarStore:
    """Struct-of-arrays layout with a per-cell row index.

    Columns (parallel, indexed by *row*):

    ``xs, ys``
        float64 coordinates — ``array('d')`` buffers, so scalar row
        access yields native Python floats (indexing a numpy array
        returns ``np.float64`` scalars whose arithmetic is several times
        slower, which the row-by-row kernel paths would pay on every
        object).  ``xs_np``/``ys_np`` are zero-copy writable numpy views
        over the same buffers for the sliced kernel paths and bulk
        moves; the views are rebuilt whenever the buffers reallocate
        (growth and compaction — nowhere else).
    ``cix, ciy``
        int cell coordinates of the row's current cell (``array('q')``,
        with ``cix_np``/``ciy_np`` views).
    ``oids``
        row -> object id (``None`` for free rows).
    ``slots``
        row -> position inside its (cell, category) bucket.

    ``buckets[cell][category]`` is a growable int row list; removal is
    O(1) swap-remove with a slot fix-up.  Freed rows go to ``free`` and
    are reused by inserts; when the free list outgrows the live
    population (past :data:`COMPACT_MIN_FREE`) the store compacts all
    columns and remaps the buckets in one pass.
    """

    kind = "columnar"
    vectorized = True

    def __init__(self) -> None:
        cap = 16
        self.xs = array("d", bytes(8 * cap))
        self.ys = array("d", bytes(8 * cap))
        self.cix = array("q", bytes(8 * cap))
        self.ciy = array("q", bytes(8 * cap))
        self._refresh_views()
        self.oids: List[Optional[ObjectId]] = []
        self.slots: List[int] = []
        self.row_of: Dict[ObjectId, int] = {}
        self.free: List[int] = []
        self.buckets: Dict[CellKey, Dict[Category, object]] = {}
        self._cat_of: Dict[ObjectId, Category] = {}
        self._by_category: Dict[Category, Set[ObjectId]] = {}
        self._n = 0  # high-water row mark
        self.compactions = 0

    @property
    def positions(self) -> _PositionsView:
        """A fresh ``oid -> Point`` view (the grid index keeps one).  The
        store holds none itself: store -> view -> store would be a
        reference cycle, leaving a dropped store's columns and buckets to
        the cyclic collector."""
        return _PositionsView(self)

    # -- row plumbing --------------------------------------------------

    def _capacity(self) -> int:
        return len(self.xs)

    def _refresh_views(self) -> None:
        """Rebuild the numpy views after the backing buffers reallocated
        (stale views would alias freed memory)."""
        self.xs_np = _np.frombuffer(self.xs, dtype=_np.float64)
        self.ys_np = _np.frombuffer(self.ys, dtype=_np.float64)
        self.cix_np = _np.frombuffer(self.cix, dtype=_np.int64)
        self.ciy_np = _np.frombuffer(self.ciy, dtype=_np.int64)

    def _grow(self) -> None:
        cap = self._capacity()
        # Release the buffer exports: an array cannot resize while numpy
        # views reference it.  Gathered slices are copies, so no kernel
        # holds the raw buffers across a mutation.
        self.xs_np = self.ys_np = self.cix_np = self.ciy_np = None
        self.xs.extend(array("d", bytes(8 * cap)))
        self.ys.extend(array("d", bytes(8 * cap)))
        self.cix.extend(array("q", bytes(8 * cap)))
        self.ciy.extend(array("q", bytes(8 * cap)))
        self._refresh_views()

    def _alloc_row(self) -> int:
        free = self.free
        if free:
            return free.pop()
        row = self._n
        if row == self._capacity():
            self._grow()
        self._n = row + 1
        self.oids.append(None)
        self.slots.append(0)
        return row

    def _bucket_add(self, key: CellKey, category: Category, row: int) -> None:
        cell = self.buckets.get(key)
        if cell is None:
            cell = self.buckets[key] = {}
        bucket = cell.get(category)
        if bucket is None:
            bucket = cell[category] = _RowList()
        self.slots[row] = bucket.append(row)

    def _bucket_remove(self, key: CellKey, category: Category, row: int) -> None:
        cell = self.buckets[key]
        bucket = cell[category]
        slot = self.slots[row]
        moved = bucket.swap_remove(slot)
        if moved >= 0:
            self.slots[moved] = slot
        if not bucket.n:
            del cell[category]
            if not cell:
                del self.buckets[key]

    # -- mutation ------------------------------------------------------

    def insert(self, oid: ObjectId, p: Point, category: Category, key: CellKey) -> None:
        row = self._alloc_row()
        self.xs[row] = p.x
        self.ys[row] = p.y
        self.cix[row] = key[0]
        self.ciy[row] = key[1]
        self.oids[row] = oid
        self.row_of[oid] = row
        self._cat_of[oid] = category
        self._bucket_add(key, category, row)
        self._by_category.setdefault(category, set()).add(oid)

    def remove(self, oid: ObjectId) -> Tuple[Point, CellKey, Category]:
        row = self.row_of.pop(oid)
        category = self._cat_of.pop(oid)
        key = (int(self.cix[row]), int(self.ciy[row]))
        pos = Point(float(self.xs[row]), float(self.ys[row]))
        self._bucket_remove(key, category, row)
        self.oids[row] = None
        self.free.append(row)
        ids = self._by_category[category]
        ids.discard(oid)
        if not ids:
            del self._by_category[category]
        self._maybe_compact()
        return pos, key, category

    def move(self, oid: ObjectId, p: Point, new_key: CellKey) -> Optional[CellKey]:
        row = self.row_of[oid]
        self.xs[row] = p.x
        self.ys[row] = p.y
        ox, oy = int(self.cix[row]), int(self.ciy[row])
        if ox == new_key[0] and oy == new_key[1]:
            return None
        old_key = (ox, oy)
        category = self._cat_of[oid]
        self._bucket_remove(old_key, category, row)
        self._bucket_add(new_key, category, row)
        self.cix[row] = new_key[0]
        self.ciy[row] = new_key[1]
        return old_key

    def bulk_move(self, oids, coords, xmin, ymin, inv_w, inv_h, size):
        """Apply one tick's move batch through vectorized column math.

        ``coords`` is an ``(n, 2)`` float64 array of target positions.
        Returns ``(changed_oids, touched_keys, left_keys)``: the ids whose
        position changed, their new cells, and the old cell of each
        boundary crossing (one entry per crossing).  Returns ``None`` when
        the batch needs the scalar path (duplicate movers — their
        sequential last-wins semantics do not vectorize).  Raises
        ``KeyError`` on an unknown id, exactly like the scalar path."""
        np = _np
        row_of = self.row_of
        n = len(oids)
        rows = np.fromiter((row_of[o] for o in oids), dtype=np.int64, count=n)
        if np.unique(rows).size != n:
            return None
        nx = coords[:, 0]
        ny = coords[:, 1]
        changed = (nx != self.xs_np[rows]) | (ny != self.ys_np[rows])
        idx = np.nonzero(changed)[0]
        if not idx.size:
            return [], (), []
        crows = rows[idx]
        cx = nx[idx]
        cy = ny[idx]
        # Bit-identical to the scalar move formula: truncate-toward-zero
        # (int()/astype agree), then clamp into the grid.
        ix = ((cx - xmin) * inv_w).astype(np.int64)
        iy = ((cy - ymin) * inv_h).astype(np.int64)
        np.clip(ix, 0, size - 1, out=ix)
        np.clip(iy, 0, size - 1, out=iy)
        crossed = (ix != self.cix_np[crows]) | (iy != self.ciy_np[crows])
        self.xs_np[crows] = cx
        self.ys_np[crows] = cy
        left = []
        if crossed.any():
            cat_of = self._cat_of
            oid_col = self.oids
            cross_rows = crows[crossed].tolist()
            cross_ix = ix[crossed].tolist()
            cross_iy = iy[crossed].tolist()
            for j, row in enumerate(cross_rows):
                old_key = (self.cix[row], self.ciy[row])
                new_key = (cross_ix[j], cross_iy[j])
                category = cat_of[oid_col[row]]
                self._bucket_remove(old_key, category, row)
                self._bucket_add(new_key, category, row)
                self.cix[row] = new_key[0]
                self.ciy[row] = new_key[1]
                left.append(old_key)
        changed_oids = [oids[i] for i in idx.tolist()]
        touched = set(zip(ix.tolist(), iy.tolist()))
        return changed_oids, touched, left

    # -- compaction ----------------------------------------------------

    def _maybe_compact(self) -> None:
        free = len(self.free)
        if free >= COMPACT_MIN_FREE and free > len(self.row_of):
            self.compact()

    def compact(self) -> None:
        """Rewrite all columns densely, dropping free rows.

        Row numbers change; bucket row lists are remapped in place (their
        per-bucket order is preserved) and the free list empties.  Object
        ids, cells and positions are untouched — only the physical
        layout moves."""
        live = len(self.row_of)
        cap = max(16, live)
        old_views = (self.xs_np, self.ys_np, self.cix_np, self.ciy_np)
        old_rows = _np.fromiter(self.row_of.values(), dtype=_np.int64, count=live)
        self.xs = array("d", bytes(8 * cap))
        self.ys = array("d", bytes(8 * cap))
        self.cix = array("q", bytes(8 * cap))
        self.ciy = array("q", bytes(8 * cap))
        self._refresh_views()
        self.xs_np[:live] = old_views[0][old_rows]
        self.ys_np[:live] = old_views[1][old_rows]
        self.cix_np[:live] = old_views[2][old_rows]
        self.ciy_np[:live] = old_views[3][old_rows]
        remap = dict(zip(old_rows.tolist(), range(live)))
        self.oids = list(self.row_of)
        self.row_of = {oid: row for row, oid in enumerate(self.oids)}
        self.slots = [0] * live
        for cell in self.buckets.values():
            for bucket in cell.values():
                rows = bucket.rows
                for slot in range(bucket.n):
                    new_row = remap[int(rows[slot])]
                    rows[slot] = new_row
                    self.slots[new_row] = slot
        self.free = []
        self._n = live
        self.compactions += 1

    # -- lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.row_of)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self.row_of

    def position(self, oid: ObjectId) -> Point:
        row = self.row_of[oid]
        return Point(float(self.xs[row]), float(self.ys[row]))

    def category(self, oid: ObjectId) -> Category:
        return self._cat_of[oid]

    def cell_of(self, oid: ObjectId) -> CellKey:
        row = self.row_of[oid]
        return (int(self.cix[row]), int(self.ciy[row]))

    def cell_buckets(self, key: CellKey, category: Optional[Category]):
        """The row lists of one cell (one per category, or the single
        requested one) — the slices the vectorized kernels gather."""
        cell = self.buckets.get(key)
        if not cell:
            return ()
        if category is None:
            return tuple(cell.values())
        bucket = cell.get(category)
        return (bucket,) if bucket is not None else ()

    def objects_in_cell(
        self, key: CellKey, category: Optional[Category] = None
    ) -> Iterator[ObjectId]:
        oids = self.oids
        for bucket in self.cell_buckets(key, category):
            # One bulk int conversion beats per-element numpy extraction
            # even for callers that stop early.
            for row in bucket.view().tolist():
                yield oids[row]

    def cell_population(self, key: CellKey, category: Optional[Category] = None) -> int:
        return sum(bucket.n for bucket in self.cell_buckets(key, category))

    def objects(self, category: Optional[Category] = None) -> Iterator[ObjectId]:
        if category is None:
            yield from self.row_of
        else:
            yield from self._by_category.get(category, ())

    def count(self, category: Optional[Category] = None) -> int:
        if category is None:
            return len(self.row_of)
        return len(self._by_category.get(category, ()))

    def occupied_cells(self) -> Iterator[CellKey]:
        yield from self.buckets

    def occupied_count(self) -> int:
        return len(self.buckets)

    def positions_snapshot(
        self, category: Optional[Category] = None
    ) -> Dict[ObjectId, Tuple[float, float]]:
        xs, ys, row_of = self.xs, self.ys, self.row_of
        if category is None:
            ids: Iterable[ObjectId] = row_of
        else:
            ids = self._by_category.get(category, ())
        out = {}
        for oid in ids:
            row = row_of[oid]
            out[oid] = (float(xs[row]), float(ys[row]))
        return out

    # -- diagnostics ---------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the full row/bucket/free-list consistency contract
        (test hook; O(population))."""
        live = set()
        for key, cell in self.buckets.items():
            assert cell, f"empty cell dict left behind at {key}"
            for category, bucket in cell.items():
                assert bucket.n > 0, f"empty bucket left behind at {key}/{category}"
                for slot in range(bucket.n):
                    row = int(bucket.view()[slot])
                    assert row not in live, f"row {row} in two buckets"
                    live.add(row)
                    assert self.slots[row] == slot, f"stale slot for row {row}"
                    oid = self.oids[row]
                    assert oid is not None and self.row_of[oid] == row
                    assert self._cat_of[oid] == category
                    assert (int(self.cix[row]), int(self.ciy[row])) == key
        assert live == set(self.row_of.values()), "bucket rows != live rows"
        assert len(live) == len(self.row_of)
        for row in self.free:
            assert row not in live, f"free row {row} still referenced"
            assert self.oids[row] is None
        assert len(self.free) + len(live) == self._n
        by_cat_union: Set[ObjectId] = set()
        for category, ids in self._by_category.items():
            assert ids, f"empty category set left behind for {category!r}"
            by_cat_union |= ids
            for oid in ids:
                assert self._cat_of[oid] == category
        assert by_cat_union == set(self.row_of)


def make_store(kind: str):
    """Store factory behind ``GridIndex(store=...)``.

    ``"columnar"`` (default) — struct-of-arrays with vectorized kernels;
    ``"mapping"`` — the dict-backed reference layout."""
    if kind == "columnar":
        return ColumnarStore()
    if kind == "mapping":
        return MappingStore()
    raise ValueError(
        f"unknown store kind {kind!r} (expected 'columnar' or 'mapping')"
    )
