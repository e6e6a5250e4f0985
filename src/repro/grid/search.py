"""Instrumented best-first nearest neighbor search over the grid.

The paper evaluates every RNN algorithm on top of one shared NN subsystem
("to ensure consistency and fairness among different approaches, we use the
same underlying nearest neighbor search for all approaches").  This module
is that subsystem.  Its cost model distinguishes the three flavors used by
Section 6 of the paper:

- ``UNCONSTRAINED`` — NN over the whole space (the verification tests);
- ``CONSTRAINED`` — NN restricted to the currently alive cells (Phase I of
  the initial step);
- ``BOUNDED`` — NN inside a small bounded monitoring region (the
  incremental steps, and CRNN's per-pie searches).

Every call is tallied in :class:`SearchStats` (calls, cells visited,
objects examined) so experiments can report machine-independent operation
counts next to wall-clock times.

The search expands cells best-first from the query's cell through
4-neighbors.  Cell predicates (alive masks, pie sectors) always describe a
convex region containing the query in this codebase, whose grid cover is
4-connected, so restricting the expansion to matching cells never strands
the search.

Over the columnar store (the :class:`~repro.grid.index.GridIndex`
default) the per-cell object loops of the hot kernels — the witness
probe, :meth:`GridSearch.nearest` and the region scan — run *sliced*:
one fancy-indexed gather of the cell's coordinate columns, one vectorized
squared-distance pass, the certified float filter applied to the whole
slice at once, and only the uncertain rows routed to the exact
:mod:`~repro.geometry.predicates` fallback.  Answers are bit-identical to
the scalar loops (elementwise IEEE-754 arithmetic is the same arithmetic;
every filter decision is certified); only the cost profile changes, which
is why the per-kind operation counters still tally exactly the
non-excluded rows examined.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as _np

from repro.geometry import predicates
from repro.grid.alive import AliveCellGrid
from repro.grid.cell import CellKey, cell_key_of
from repro.grid.index import Category, GridIndex, ObjectId
from repro.grid.store import STATS as STORE_STATS

CellFilter = Callable[[CellKey], bool]
ObjectFilter = Callable[[ObjectId, "PointLike"], bool]
PointLike = Tuple[float, float]


class SearchKind(enum.IntEnum):
    """Which cost bucket of the Section 6 model a search belongs to.

    An ``IntEnum``, so the per-kind counters of :class:`SearchStats` are
    plain lists indexed by the kind itself: the kernels bump a counter
    per examined object, and a dict keyed by an ``enum.Enum`` would pay
    its Python-level ``__hash__`` every time.
    """

    UNCONSTRAINED = 0
    CONSTRAINED = 1
    BOUNDED = 2


#: Each kind's name in snapshot keys and metric labels, by kind.
_KIND_LABELS = ("NN", "NN_c", "NN_b")
#: ``SearchStats.snapshot`` keys per kind, formatted once.
_SNAPSHOT_KEYS = tuple(
    (f"calls_{label}", f"cells_{label}", f"objects_{label}")
    for label in _KIND_LABELS
)


def _per_kind() -> List[int]:
    return [0] * len(SearchKind)


@dataclass
class SearchStats:
    """Operation counters, bucketed per search kind (lists indexed by
    :class:`SearchKind`)."""

    calls: List[int] = field(default_factory=_per_kind)
    cells_visited: List[int] = field(default_factory=_per_kind)
    objects_examined: List[int] = field(default_factory=_per_kind)
    #: Witness probes (``count_closer_than`` and
    #: ``network_witness_count``) — the Phase II verification workload,
    #: attributed per query by the cost ledger.
    witness_probes: int = 0
    #: Candidates verified without a probe: monochromatic or network
    #: non-answers whose standing witness certificate held, and network
    #: answers no moved or inserted object could have entered
    #: (``repro.core.mono``, ``repro.core.network``).
    certified: int = 0

    def reset(self) -> None:
        for counters in (self.calls, self.cells_visited, self.objects_examined):
            counters[:] = _per_kind()
        self.witness_probes = 0
        self.certified = 0

    @property
    def total_calls(self) -> int:
        return sum(self.calls)

    @property
    def total_cells(self) -> int:
        return sum(self.cells_visited)

    @property
    def total_objects(self) -> int:
        return sum(self.objects_examined)

    def snapshot(self) -> Dict[str, int]:
        """A flat, immutable view suitable for metric logs."""
        out: Dict[str, int] = {}
        for kind, (calls, cells, objects) in enumerate(_SNAPSHOT_KEYS):
            out[calls] = self.calls[kind]
            out[cells] = self.cells_visited[kind]
            out[objects] = self.objects_examined[kind]
        out["witness_probes"] = self.witness_probes
        out["certified"] = self.certified
        return out


def _as_excluded(exclude: Iterable[ObjectId]):
    """The exclusion set, without copying when the caller already has one.

    Search primitives only ever *read* the exclusion set, so a caller's
    ``set``/``frozenset`` can be used as-is; every other iterable is
    materialized once.  The hot verification loops pass sets, which used
    to be re-copied on every single search call.
    """
    if type(exclude) in (set, frozenset):
        return exclude
    return set(exclude)


_NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

#: Below this many rows a cell slice is scanned scalar-wise: the fixed
#: cost of staging a numpy gather exceeds the loop it replaces.  Fine
#: grids (a few objects per cell) stay on the scalar loops; coarse grids
#: over large populations get the vectorized slices.
_VEC_MIN_ROWS = 16


def _excluded_slots(col, bucket, excluded) -> List[int]:
    """Slots of ``bucket`` holding excluded objects.

    The store keeps no per-row category column; membership of row ``r`` in
    this bucket is the slot round-trip test ``bucket.rows[slots[r]] == r``
    (each live row sits in exactly one bucket).  Cost is O(|excluded|),
    independent of the cell population — exclusion sets are tiny (the
    query object plus the current candidates) while cells can be fat.
    """
    out: List[int] = []
    row_of = col.row_of
    slots = col.slots
    rows = bucket.rows
    nb = bucket.n
    for eid in excluded:
        r = row_of.get(eid)
        if r is not None:
            s = slots[r]
            if s < nb and rows[s] == r:
                out.append(s)
    return out


class GridSearch:
    """Best-first NN search over a :class:`GridIndex`."""

    def __init__(self, grid: GridIndex, metric=None):
        self.grid = grid
        self.stats = SearchStats()
        # Distance backend seam (repro.metric).  None means Euclidean:
        # every kernel in this module compares squared straight-line
        # distances, which is only the metric's distance for Euclidean
        # backends.  Non-Euclidean metrics route witness counting
        # through :meth:`network_witness_count` (filter-and-refine over
        # the Euclidean lower bound) and never touch the bisector-based
        # kernels.
        self.metric = metric
        # The columnar store, whose cells the kernels scan as vectorized
        # slices; None routes every kernel through the original scalar
        # loops (the mapping backend).
        store = getattr(grid, "_store", None)
        self._col = store if getattr(store, "vectorized", False) else None
        # Cached cell geometry for the heap priority computation.
        extent = grid.extent
        self._xmin = extent.xmin
        self._ymin = extent.ymin
        self._cw = extent.width / grid.size
        self._ch = extent.height / grid.size
        # Extent coordinate magnitude, the unit of the conservative
        # traversal-prune padding of the exact threshold mode (cell
        # rectangles are reconstructed coordinates; see
        # predicates.prune_bound).
        self._coord_scale = max(
            abs(extent.xmin), abs(extent.xmax), abs(extent.ymin), abs(extent.ymax)
        )

    def _cell_d2(self, key: CellKey, x: float, y: float) -> float:
        """Squared distance from ``(x, y)`` to cell ``key`` (inlined math)."""
        xmin = self._xmin + key[0] * self._cw
        ymin = self._ymin + key[1] * self._ch
        xmax = xmin + self._cw
        ymax = ymin + self._ch
        dx = xmin - x if x < xmin else (x - xmax if x > xmax else 0.0)
        dy = ymin - y if y < ymin else (y - ymax if y > ymax else 0.0)
        return dx * dx + dy * dy

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------

    def nearest(
        self,
        q: Iterable[float],
        exclude: Iterable[ObjectId] = (),
        category: Optional[Category] = None,
        alive: Optional[AliveCellGrid] = None,
        cell_filter: Optional[CellFilter] = None,
        obj_filter: Optional[ObjectFilter] = None,
        radius: Optional[float] = None,
        kind: SearchKind = SearchKind.UNCONSTRAINED,
    ) -> Optional[Tuple[ObjectId, float]]:
        """The object nearest to ``q``, or ``None`` if no object qualifies.

        Parameters
        ----------
        exclude:
            Object ids never returned (typically the query object and the
            current candidate set).
        category:
            Restrict to one object category (bichromatic searches).
        alive:
            Restrict to the alive cells of this mask (constrained and
            bounded searches).
        cell_filter:
            Extra cell predicate, AND-ed with ``alive`` (pie sectors).
        obj_filter:
            Object-level predicate ``(oid, position) -> bool``; objects
            failing it are examined but never returned (e.g. the angular
            membership test of a pie, which cell granularity over-covers).
        radius:
            Ignore objects farther than this distance (bounded searches).
        kind:
            Cost bucket for the operation counters.
        """
        qx, qy = q
        excluded = _as_excluded(exclude)
        grid = self.grid
        n = grid.size
        extent = grid.extent
        stats = self.stats
        stats.calls[kind] += 1

        # Gating the *frontier* on the mask is only sound while the alive
        # region is convex: every reachable cell is then 4-connected to the
        # query's cell through matching cells.  A k > 1 mask is a union of
        # coverage-deficient cells — non-convex and possibly disconnected —
        # so dead cells must stay traversable corridors there; only object
        # examination is masked.
        porous = alive is not None and alive.k > 1

        best_id: Optional[ObjectId] = None
        best_d2 = math.inf if radius is None else radius * radius
        start = cell_key_of(extent, n, (qx, qy))
        if not porous and not _cell_matches(start, alive, cell_filter):
            # The query's own cell is filtered out; nothing reachable under
            # the convex-region contract, so the search is empty.
            return None

        heap: List[Tuple[float, CellKey]] = [(self._cell_d2(start, qx, qy), start)]
        seen: Set[CellKey] = {start}
        positions = grid._positions  # hot path: bypass the method call
        # Vectorized slices can't evaluate per-object predicates mid-scan.
        col = self._col if obj_filter is None else None

        while heap:
            d2, key = heapq.heappop(heap)
            if d2 > best_d2 or (best_id is not None and d2 >= best_d2):
                break
            stats.cells_visited[kind] += 1
            if not porous or _cell_matches(key, alive, cell_filter):
                if col is not None:
                    for bucket in col.cell_buckets(key, category):
                        if bucket.n < _VEC_MIN_ROWS:
                            brows = bucket.rows
                            oids = col.oids
                            xs = col.xs
                            ys = col.ys
                            for bi in range(bucket.n):
                                r = brows[bi]
                                oid = oids[r]
                                if oid in excluded:
                                    continue
                                stats.objects_examined[kind] += 1
                                STORE_STATS.rows_scanned += 1
                                dx = xs[r] - qx
                                dy = ys[r] - qy
                                od2 = dx * dx + dy * dy
                                if od2 < best_d2:
                                    best_d2 = float(od2)
                                    best_id = oid
                            continue
                        rows = bucket.view()
                        bx = col.xs_np[rows]
                        by = col.ys_np[rows]
                        dxs = bx - qx
                        dys = by - qy
                        od2s = dxs * dxs + dys * dys
                        skip = _excluded_slots(col, bucket, excluded) if excluded else ()
                        if skip:
                            od2s[skip] = math.inf
                        examined = bucket.n - len(skip)
                        stats.objects_examined[kind] += examined
                        STORE_STATS.rows_scanned += examined
                        STORE_STATS.filter_rows += examined
                        i = int(_np.argmin(od2s))
                        m = od2s[i]
                        if m < best_d2:
                            best_d2 = float(m)
                            best_id = col.oids[int(rows[i])]
                    ix, iy = key
                    for sx, sy in _NEIGHBOR_STEPS:
                        nkey = (ix + sx, iy + sy)
                        if (
                            0 <= nkey[0] < n
                            and 0 <= nkey[1] < n
                            and nkey not in seen
                            and (porous or _cell_matches(nkey, alive, cell_filter))
                        ):
                            seen.add(nkey)
                            nd2 = self._cell_d2(nkey, qx, qy)
                            if nd2 <= best_d2:
                                heapq.heappush(heap, (nd2, nkey))
                    continue
                for oid in grid.objects_in_cell(key, category):
                    if oid in excluded:
                        continue
                    stats.objects_examined[kind] += 1
                    p = positions[oid]
                    dx = p.x - qx
                    dy = p.y - qy
                    od2 = dx * dx + dy * dy
                    if od2 < best_d2 and (obj_filter is None or obj_filter(oid, p)):
                        best_d2 = od2
                        best_id = oid
            ix, iy = key
            for sx, sy in _NEIGHBOR_STEPS:
                nkey = (ix + sx, iy + sy)
                if (
                    0 <= nkey[0] < n
                    and 0 <= nkey[1] < n
                    and nkey not in seen
                    and (porous or _cell_matches(nkey, alive, cell_filter))
                ):
                    seen.add(nkey)
                    nd2 = self._cell_d2(nkey, qx, qy)
                    if nd2 <= best_d2:
                        heapq.heappush(heap, (nd2, nkey))

        if best_id is None:
            return None
        return (best_id, math.sqrt(best_d2))

    def count_closer_than(
        self,
        center: Iterable[float],
        threshold_sq: float,
        exclude: Iterable[ObjectId] = (),
        category: Optional[Category] = None,
        stop_at: Optional[int] = None,
        kind: SearchKind = SearchKind.UNCONSTRAINED,
        threshold_point: Optional[PointLike] = None,
        witnesses: Optional[List[Tuple[ObjectId, float]]] = None,
    ) -> int:
        """How many objects lie *strictly* closer than ``sqrt(threshold_sq)``.

        This is the verification primitive: a candidate ``o`` is a reverse
        nearest neighbor of ``q`` iff no object (RkNN: fewer than ``k``
        objects) is strictly closer to ``o`` than ``q`` is.  With
        ``stop_at`` the scan short-circuits once that many witnesses
        exist.  When a list is passed as ``witnesses``, an ``(oid,
        squared_distance)`` row is appended for every object counted, in
        the order the walk met them: the ids behind a witness certificate
        and the rows the shared tick context banks.

        The threshold is squared: squaring a rounded distance can differ
        from the directly computed squared distance by an ulp, which is
        enough to miscount an exactly equidistant witness.  Without
        ``threshold_point`` the test is the float comparison ``d2 <
        threshold_sq``, which cannot separate distances whose squares
        underflow (a subnormal threshold squares to 0.0).

        ``threshold_point`` names the point whose distance from ``center``
        *defines* the threshold — for verification, the query position;
        every algorithm passes it.  With it the per-object test is the
        exact adaptive predicate ``dist(center, obj) < dist(center,
        threshold_point)``: float squared distances settle clear cases
        and near-ties fall back to rational arithmetic, so an exactly
        equidistant object is never miscounted no matter the coordinate
        magnitudes.  Traversal pruning is padded conservatively
        (:func:`repro.geometry.predicates.prune_bound`) so a witness
        hugging both the threshold circle and a reconstructed cell
        boundary cannot be pruned away with its cell.
        """
        cx, cy = center
        excluded = _as_excluded(exclude)
        grid = self.grid
        n = grid.size
        extent = grid.extent
        stats = self.stats
        stats.calls[kind] += 1
        stats.witness_probes += 1

        t2 = threshold_sq
        exact = threshold_point is not None
        if exact:
            t2_lo, t2_hi = predicates.d2_band(t2)
            t2_prune = predicates.prune_bound(t2, self._coord_scale)
        else:
            t2_prune = t2
        count = 0
        fast_hits = 0
        start = cell_key_of(extent, n, (cx, cy))
        heap: List[Tuple[float, CellKey]] = [(self._cell_d2(start, cx, cy), start)]
        seen: Set[CellKey] = {start}
        positions = grid._positions
        col = self._col
        # A stop_at scan typically terminates within a handful of rows —
        # materializing whole-slice distances would forfeit that early
        # exit (measured 25x row inflation on large-N mono verification),
        # so short-circuiting calls walk the columns row by row instead.
        vec = stop_at is None

        while heap:
            d2, key = heapq.heappop(heap)
            if d2 >= t2_prune:
                break
            stats.cells_visited[kind] += 1
            if col is not None:
                for bucket in col.cell_buckets(key, category):
                    if not vec or bucket.n < _VEC_MIN_ROWS:
                        brows = bucket.rows
                        oids = col.oids
                        xs = col.xs
                        ys = col.ys
                        for bi in range(bucket.n):
                            r = brows[bi]
                            oid = oids[r]
                            if oid in excluded:
                                continue
                            stats.objects_examined[kind] += 1
                            STORE_STATS.rows_scanned += 1
                            dx = xs[r] - cx
                            dy = ys[r] - cy
                            od2 = dx * dx + dy * dy
                            if exact:
                                if od2 < t2_lo:
                                    closer = True
                                    fast_hits += 1
                                elif od2 > t2_hi:
                                    closer = False
                                    fast_hits += 1
                                else:
                                    closer = predicates.closer_than(
                                        center,
                                        (float(xs[r]), float(ys[r])),
                                        threshold_point,
                                    )
                            else:
                                closer = od2 < t2
                            if closer:
                                count += 1
                                if witnesses is not None:
                                    witnesses.append((oid, float(od2)))
                                if stop_at is not None and count >= stop_at:
                                    predicates.STATS.filter_hits += fast_hits
                                    return count
                        continue
                    # Whole-slice regime (stop_at is None): no early exit.
                    rows = bucket.view()
                    bx = col.xs_np[rows]
                    by = col.ys_np[rows]
                    dxs = bx - cx
                    dys = by - cy
                    od2s = dxs * dxs + dys * dys
                    skip = _excluded_slots(col, bucket, excluded) if excluded else ()
                    if skip:
                        od2s[skip] = math.inf
                    examined = bucket.n - len(skip)
                    stats.objects_examined[kind] += examined
                    STORE_STATS.rows_scanned += examined
                    if exact:
                        hits = od2s < t2_lo
                        unsure = _np.nonzero(~hits & (od2s <= t2_hi))[0]
                        n_unsure = len(unsure)
                        decided = examined - n_unsure
                        fast_hits += decided
                        STORE_STATS.filter_rows += decided
                        if n_unsure:
                            STORE_STATS.exact_rows += n_unsure
                            for i in unsure.tolist():
                                if predicates.closer_than(
                                    center,
                                    (float(bx[i]), float(by[i])),
                                    threshold_point,
                                ):
                                    hits[i] = True
                    else:
                        hits = od2s < t2
                        STORE_STATS.filter_rows += examined
                    if witnesses is None:
                        count += int(hits.sum())
                    else:
                        # One gather + tolist per slice instead of per-row
                        # numpy scalar indexing (~1us per witness); slice
                        # order is where a scalar scan would meet them.
                        hit_idx = _np.nonzero(hits)[0]
                        count += len(hit_idx)
                        oid_col = col.oids
                        witnesses.extend(
                            zip(
                                (oid_col[r] for r in rows[hit_idx].tolist()),
                                od2s[hit_idx].tolist(),
                            )
                        )
            else:
                for oid in grid.objects_in_cell(key, category):
                    if oid in excluded:
                        continue
                    stats.objects_examined[kind] += 1
                    p = positions[oid]
                    dx = p.x - cx
                    dy = p.y - cy
                    od2 = dx * dx + dy * dy
                    if exact:
                        if od2 < t2_lo:
                            closer = True
                            fast_hits += 1
                        elif od2 > t2_hi:
                            closer = False
                            fast_hits += 1
                        else:
                            closer = predicates.closer_than(
                                center, (p.x, p.y), threshold_point
                            )
                    else:
                        closer = od2 < t2
                    if closer:
                        count += 1
                        if witnesses is not None:
                            witnesses.append((oid, od2))
                        if stop_at is not None and count >= stop_at:
                            predicates.STATS.filter_hits += fast_hits
                            return count
            ix, iy = key
            for sx, sy in _NEIGHBOR_STEPS:
                nkey = (ix + sx, iy + sy)
                if 0 <= nkey[0] < n and 0 <= nkey[1] < n and nkey not in seen:
                    seen.add(nkey)
                    nd2 = self._cell_d2(nkey, cx, cy)
                    if nd2 < t2_prune:
                        heapq.heappush(heap, (nd2, nkey))
        predicates.STATS.filter_hits += fast_hits
        return count

    def iter_nearest(
        self,
        q: Iterable[float],
        exclude: Iterable[ObjectId] = (),
        category: Optional[Category] = None,
        kind: SearchKind = SearchKind.UNCONSTRAINED,
    ) -> Iterator[Tuple[ObjectId, float]]:
        """Objects in increasing distance from ``q`` (incremental NN).

        The classic best-first stream over a two-level heap (cells and
        objects).  Each *yielded* neighbor is tallied as one search call of
        ``kind``, matching the paper's cost model where retrieving the
        next-nearest neighbor is one NN operation.
        """
        qx, qy = q
        excluded = _as_excluded(exclude)
        grid = self.grid
        n = grid.size
        stats = self.stats
        start = cell_key_of(grid.extent, n, (qx, qy))
        # Heap entries: (d2, tiebreak, is_object, payload).  Cells expand
        # into their objects and neighbors; objects are yielded.  The
        # monotone tiebreaker keeps opaque object ids out of comparisons.
        tiebreak = 0
        heap: List[Tuple[float, int, int, object]] = [
            (self._cell_d2(start, qx, qy), tiebreak, 0, start)
        ]
        seen: Set[CellKey] = {start}
        positions = grid._positions

        while heap:
            d2, _, is_object, payload = heapq.heappop(heap)
            if is_object:
                stats.calls[kind] += 1
                yield (payload, math.sqrt(d2))
                continue
            key: CellKey = payload  # type: ignore[assignment]
            stats.cells_visited[kind] += 1
            for oid in grid.objects_in_cell(key, category):
                if oid in excluded:
                    continue
                stats.objects_examined[kind] += 1
                p = positions[oid]
                dx = p.x - qx
                dy = p.y - qy
                tiebreak += 1
                heapq.heappush(heap, (dx * dx + dy * dy, tiebreak, 1, oid))
            ix, iy = key
            for sx, sy in _NEIGHBOR_STEPS:
                nkey = (ix + sx, iy + sy)
                if 0 <= nkey[0] < n and 0 <= nkey[1] < n and nkey not in seen:
                    seen.add(nkey)
                    tiebreak += 1
                    heapq.heappush(
                        heap, (self._cell_d2(nkey, qx, qy), tiebreak, 0, nkey)
                    )

    def _cells_within(
        self, cx: float, cy: float, r2: float, kind: SearchKind
    ) -> Iterator[CellKey]:
        """Cells meeting the closed ball of squared radius ``r2`` around
        ``(cx, cy)``, nearest first (best-first over 4-neighbors), each
        tallied as visited when yielded.  A consumer may stop early."""
        grid = self.grid
        n = grid.size
        cells_visited = self.stats.cells_visited
        start = cell_key_of(grid.extent, n, (cx, cy))
        heap: List[Tuple[float, CellKey]] = [(self._cell_d2(start, cx, cy), start)]
        seen: Set[CellKey] = {start}
        while heap:
            d2, key = heapq.heappop(heap)
            if d2 > r2:
                return
            cells_visited[kind] += 1
            yield key
            ix, iy = key
            for sx, sy in _NEIGHBOR_STEPS:
                nkey = (ix + sx, iy + sy)
                if 0 <= nkey[0] < n and 0 <= nkey[1] < n and nkey not in seen:
                    seen.add(nkey)
                    nd2 = self._cell_d2(nkey, cx, cy)
                    if nd2 <= r2:
                        heapq.heappush(heap, (nd2, nkey))

    def objects_within(
        self,
        center: Iterable[float],
        radius: float,
        exclude: Iterable[ObjectId] = (),
        category: Optional[Category] = None,
        kind: SearchKind = SearchKind.UNCONSTRAINED,
    ) -> List[Tuple[ObjectId, float]]:
        """All objects within ``radius`` of ``center`` (closed ball),
        sorted by distance.

        The plain range-query counterpart of :meth:`nearest`; continuous
        range monitoring is the sibling problem the paper cites, and the
        examples use this for ad-hoc neighborhood inspection.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        cx, cy = center
        excluded = _as_excluded(exclude)
        grid = self.grid
        stats = self.stats
        stats.calls[kind] += 1
        r2 = radius * radius
        out: List[Tuple[float, ObjectId]] = []
        positions = grid._positions
        for key in self._cells_within(cx, cy, r2, kind):
            for oid in grid.objects_in_cell(key, category):
                if oid in excluded:
                    continue
                stats.objects_examined[kind] += 1
                p = positions[oid]
                dx = p.x - cx
                dy = p.y - cy
                od2 = dx * dx + dy * dy
                if od2 <= r2:
                    out.append((od2, oid))
        out.sort(key=lambda pair: pair[0])
        return [(oid, math.sqrt(d2)) for d2, oid in out]

    # ------------------------------------------------------------------
    # Non-Euclidean witness counting
    # ------------------------------------------------------------------

    def network_witness_count(
        self,
        metric,
        center: Iterable[float],
        threshold: float,
        exclude: Iterable[ObjectId] = (),
        category: Optional[Category] = None,
        stop_at: Optional[int] = None,
        kind: SearchKind = SearchKind.UNCONSTRAINED,
        witnesses: Optional[List[ObjectId]] = None,
    ) -> int:
        """``min(stop_at, |{p : d_net(center, p) < threshold}|)`` under a
        network metric — the verification probe of the network mode.

        Filter-and-refine: straight-line distance lower-bounds the
        spur-padded network distance, so the closed Euclidean ball of
        radius ``metric.prefilter_radius(threshold)`` is a provable
        superset of the open network ball (the multiplicative pad
        absorbs the float rounding of path sums; extra admissions are
        harmless because the refine step applies the exact shared float
        comparison from ``RoadNetwork.point_to_point``).  The ball is
        walked cell by cell, nearest cell first, and each admitted
        object is refined as soon as it is found.  The count is
        order-independent, so returning as soon as it reaches
        ``stop_at`` gives exactly what the full enumeration would clamp
        to.  When a list is passed as ``witnesses``, the id of every
        object counted is appended to it in the order the walk met them:
        a non-answer's witness certificate.
        """
        if metric is None:
            metric = self.metric
        if threshold <= 0.0:
            # Network distances are non-negative; strictly-below-zero
            # (or -equal-zero) witnesses cannot exist.
            return 0
        stats = self.stats
        stats.witness_probes += 1
        stats.calls[kind] += 1
        cx, cy = center
        radius = metric.prefilter_radius(threshold)
        r2 = radius * radius
        excluded = _as_excluded(exclude)
        grid = self.grid
        positions = grid._positions
        locate = metric.locate
        distance_located = metric.distance_located
        loc_center = locate(center)
        count = 0
        for key in self._cells_within(cx, cy, r2, kind):
            for oid in grid.objects_in_cell(key, category):
                if oid in excluded:
                    continue
                stats.objects_examined[kind] += 1
                p = positions[oid]
                dx = p.x - cx
                dy = p.y - cy
                if (
                    dx * dx + dy * dy <= r2
                    and distance_located(loc_center, locate(p)) < threshold
                ):
                    count += 1
                    if witnesses is not None:
                        witnesses.append(oid)
                    if stop_at is not None and count >= stop_at:
                        return count
        return count

    # ------------------------------------------------------------------
    # Region scans
    # ------------------------------------------------------------------

    def region_objects_by_distance(
        self,
        q: Iterable[float],
        alive: AliveCellGrid,
        category: Optional[Category] = None,
        exclude: Iterable[ObjectId] = (),
        kind: SearchKind = SearchKind.BOUNDED,
    ) -> List[Tuple[float, ObjectId]]:
        """All objects in alive cells, sorted by distance from ``q``.

        One pass over the (small) monitored region, tallied as a single
        bounded search: this is the incremental step's "bounded NN done
        only once" from the paper's cost model — the distance order lets
        the caller absorb objects exactly as the repeated nearest-in-alive
        loop would, at a fraction of the cost.  Returns ``(d2, oid)``
        pairs, closest first.

        The enumeration reads exactly ``alive.alive_cells()`` — never the
        occupied-cell directory — so the set of cells an incremental step
        can observe through this scan is precisely the footprint the tick
        scheduler monitors (see ``docs/PERFORMANCE.md``).  Each query
        scans its own region, batched or not, reading the store's cells
        live: no scan is shared across the queries of a tick.
        """
        qx, qy = q
        stats = self.stats
        stats.calls[kind] += 1
        grid = self.grid
        excluded = _as_excluded(exclude)
        out: List[Tuple[float, ObjectId]] = []
        if self._col is not None:
            col = self._col
            oid_col = col.oids
            xs = col.xs
            ys = col.ys
            xs_np = col.xs_np
            ys_np = col.ys_np
            for key in alive.alive_cells():
                for bucket in col.cell_buckets(key, category):
                    if bucket.n < _VEC_MIN_ROWS:
                        brows = bucket.rows
                        for bi in range(bucket.n):
                            r = brows[bi]
                            oid = oid_col[r]
                            if oid in excluded:
                                continue
                            stats.objects_examined[kind] += 1
                            STORE_STATS.rows_scanned += 1
                            dx = xs[r] - qx
                            dy = ys[r] - qy
                            out.append((float(dx * dx + dy * dy), oid))
                        continue
                    rows = bucket.view()
                    dxs = xs_np[rows] - qx
                    dys = ys_np[rows] - qy
                    od2s = dxs * dxs + dys * dys
                    if excluded:
                        skip = _excluded_slots(col, bucket, excluded)
                        if skip:
                            keep = _np.ones(bucket.n, dtype=bool)
                            keep[skip] = False
                            rows = rows[keep]
                            od2s = od2s[keep]
                    examined = len(rows)
                    stats.objects_examined[kind] += examined
                    STORE_STATS.rows_scanned += examined
                    out.extend(
                        zip(od2s.tolist(), (oid_col[r] for r in rows.tolist()))
                    )
        else:
            positions = grid._positions
            for key in alive.alive_cells():
                for oid in grid.objects_in_cell(key, category):
                    if oid in excluded:
                        continue
                    stats.objects_examined[kind] += 1
                    p = positions[oid]
                    dx = p.x - qx
                    dy = p.y - qy
                    out.append((dx * dx + dy * dy, oid))
        stats.cells_visited[kind] += alive.alive_cell_bound()
        out.sort(key=lambda pair: pair[0])
        return out

    def objects_in_alive(
        self,
        alive: AliveCellGrid,
        category: Optional[Category] = None,
        exclude: Iterable[ObjectId] = (),
    ) -> Iterator[ObjectId]:
        """All objects currently located in alive cells.

        Iterates whichever side is smaller: the alive cells or the occupied
        cells, since after Phase I the alive region is typically tiny while
        early on it is the whole grid.  The iteration reads the grid's
        cell directory live — callers that mutate the grid mid-stream must
        materialize the generator first (all in-tree callers do).
        """
        excluded = _as_excluded(exclude)
        grid = self.grid
        if alive.alive_cell_bound() <= grid.occupied_count():
            for key in alive.alive_cells():
                for oid in grid.objects_in_cell(key, category):
                    if oid not in excluded:
                        yield oid
        else:
            for key in grid.occupied_cells():
                if alive.is_alive(key):
                    for oid in grid.objects_in_cell(key, category):
                        if oid not in excluded:
                            yield oid


def _cell_matches(
    key: CellKey,
    alive: Optional[AliveCellGrid],
    cell_filter: Optional[CellFilter],
) -> bool:
    if alive is not None and not alive.is_alive(key):
        return False
    if cell_filter is not None and not cell_filter(key):
        return False
    return True
