"""Alive/dead cell tracking driven by bisector half-planes.

IGERN's bounded region is maintained at grid-cell granularity: every
bisector drawn between the query and a candidate kills all the cells that
lie entirely on the candidate's side ("from the bisector to the furthest
boundaries from q", in the paper's words).  A cell stays *alive* as long as
some part of it is at least as close to the query as to every candidate.

Implementation notes
--------------------

Redrawing bisectors happens every tick for every query, so the region must
be cheap to mutate.  Rather than materializing an ``N x N`` coverage array
(which costs a full-grid pass per bisector per tick), the tracker is
*lazy*:

- mutations (:meth:`add_halfplane`, :meth:`remove_halfplane`,
  :meth:`rebuild`) just update the half-plane list — O(1);
- :meth:`is_alive` evaluates a cell against the half-planes on demand and
  memoizes the answer until the next mutation (the searches only ever
  touch the few dozen cells around the query);
- region *enumeration* (:meth:`alive_cells`) exploits convexity: with the
  paper's ``k = 1`` the exact alive region is the intersection of the
  half-planes with the data space — a convex polygon.  Every cell that can
  contain a surviving *point* intersects that polygon, so enumerating the
  polygon's bounding-box cells suffices.  (Cells that merely straddle a
  bisector line far from the region are cell-level alive but contain no
  surviving point; skipping them is sound and matches what the search can
  reach anyway.)

For the RkNN extension a cell dies once covered by at least ``k``
half-planes; the point-level region is then no longer convex, so
enumeration, the region bound and redundancy checks read a dense numpy
coverage pass, computed once per mutation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry import predicates
from repro.geometry.halfplane import HalfPlane
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rectangle import Rect
from repro.grid.cell import CellKey

#: Below this many cells in the k=1 enumeration span, per-cell lazy
#: evaluation beats staging the vectorized classification pass.
_PREFILL_MIN_CELLS = 32


class AliveCellGrid:
    """Per-cell half-plane coverage over an ``n x n`` grid, evaluated lazily.

    A cell is alive while fewer than ``k`` half-planes fully cover it.
    """

    @staticmethod
    def require_euclidean(metric) -> None:
        """Refuse to drive bisector pruning with a non-Euclidean metric.

        The alive region is carved by perpendicular-bisector half-planes,
        and "the bisector separates the plane into the points closer to
        q and the points closer to the candidate" is a *Euclidean*
        theorem — under road-network distance the locus of equidistant
        points is not a line and half-plane coverage proves nothing.
        The metric seam (repro.metric) therefore routes non-Euclidean
        queries through filter-and-refine evaluation instead
        (repro.core.network); constructing the IGERN cores with such a
        metric is a wiring bug, caught here.  ``None`` means the default
        Euclidean backend and is accepted.
        """
        if metric is not None and not getattr(metric, "euclidean", False):
            raise TypeError(
                "bisector-based alive-cell pruning requires a Euclidean "
                f"metric, got {metric!r}; use the network evaluation core "
                "(repro.core.network) for road-network distances"
            )

    def __init__(self, size: int, extent: Optional[Rect] = None, k: int = 1):
        if size < 1:
            raise ValueError(f"grid size must be positive, got {size}")
        if k < 1:
            raise ValueError(f"coverage threshold k must be >= 1, got {k}")
        self.size = size
        self.extent = extent if extent is not None else Rect.unit()
        self.k = k
        self._halfplanes: List[HalfPlane] = []
        self._memo: Dict[CellKey, bool] = {}
        self._prefilled = False
        self._polygon: Optional[ConvexPolygon] = None
        #: Per-cell coverage counts (k > 1), cached until the next mutation.
        self._coverage: Optional[np.ndarray] = None
        self._xmin = self.extent.xmin
        self._ymin = self.extent.ymin
        self._cw = self.extent.width / size
        self._ch = self.extent.height / size
        # Coordinate magnitudes bounding the corner-test round-off (see
        # predicates.COVER_GUARD_REL / _cover_tol).
        self._tx = max(abs(self.extent.xmin), abs(self.extent.xmax))
        self._ty = max(abs(self.extent.ymin), abs(self.extent.ymax))

    def _cover_tol(self, hp: HalfPlane) -> float:
        """Absolute slack below which a corner value counts as boundary.

        Cell corners are reconstructed as ``origin + index * width``,
        which can land a few ulps off the true cell boundary; a corner
        must clear this margin before its cell may be killed (see
        :data:`~repro.geometry.predicates.COVER_GUARD_REL`).  The margin
        is three orders of magnitude above the evaluation error the
        adaptive predicate certifies, so "exact value < -tol" decisions
        stay conservative against the reconstruction, never against
        float rounding.
        """
        return predicates.COVER_GUARD_REL * (
            abs(hp.a) * self._tx + abs(hp.b) * self._ty + abs(hp.c)
        )

    # ------------------------------------------------------------------
    # Region construction
    # ------------------------------------------------------------------

    def _invalidate(self) -> None:
        self._memo.clear()
        self._polygon = None
        self._prefilled = False
        self._coverage = None

    def reset(self) -> None:
        """Mark every cell alive and forget all half-planes."""
        self._halfplanes.clear()
        self._invalidate()

    def add_halfplane(self, hp: HalfPlane) -> None:
        """Clip the region: cells fully outside ``hp`` move toward death.

        ``hp``'s kept side is the query side; a cell counts as covered when
        the whole cell is strictly closer to the candidate than the query.
        """
        self._halfplanes.append(hp)
        self._invalidate()

    def remove_halfplane(self, hp: HalfPlane, region_unchanged: bool = False) -> None:
        """Undo :meth:`add_halfplane` for an identical half-plane.

        Used by the candidate-pruning step: dropping a monitored object
        drops its bisector.  Raises ``ValueError`` if ``hp`` is not
        present.

        ``region_unchanged`` may be passed when the caller has already
        established (via :meth:`kills_uniquely` returning ``False``) that
        ``hp`` does not touch the region polygon: the cached polygon then
        stays valid and only the per-cell memo is dropped (straddling
        cells near ``hp``'s line can change state).
        """
        # Identity/construction scan first: callers pass the stored object
        # or a bisector rebuilt from the same generating points, and full
        # equality on constructed planes costs rational canonicalization.
        src = hp._src
        for i, existing in enumerate(self._halfplanes):
            if existing is hp or (src is not None and existing._src == src):
                del self._halfplanes[i]
                break
        else:
            self._halfplanes.remove(hp)
        if region_unchanged:
            self._memo.clear()
            self._prefilled = False
            self._coverage = None
        else:
            self._invalidate()

    def rebuild(self, halfplanes: Iterable[HalfPlane]) -> None:
        """Replace all half-planes at once.

        Used by the incremental step whenever the query or a monitored
        object moved and all bisectors must be redrawn.
        """
        self._halfplanes = list(halfplanes)
        self._invalidate()

    # ------------------------------------------------------------------
    # Cell queries
    # ------------------------------------------------------------------

    @property
    def halfplanes(self) -> List[HalfPlane]:
        """The half-planes currently shaping the region (copy)."""
        return list(self._halfplanes)

    def is_alive(self, key: CellKey) -> bool:
        """Whether cell ``key`` can still contain an answer candidate."""
        cached = self._memo.get(key)
        if cached is None:
            cached = self._compute_alive(key)
            self._memo[key] = cached
        return cached

    def covers(self, hp: HalfPlane, key: CellKey) -> bool:
        """Whether ``hp`` fully covers cell ``key`` (the corner test).

        The decision :meth:`_compute_alive` makes per half-plane, for one
        pair (:meth:`coverage`, the tests).  Both route through the same
        adaptive predicate after the same inline filter fast path of
        :func:`predicates.halfplane_below`, so they cannot disagree.
        """
        xmin = self._xmin + key[0] * self._cw
        ymin = self._ymin + key[1] * self._ch
        a, b, c = hp.a, hp.b, hp.c
        mx = xmin + self._cw if a >= 0.0 else xmin
        my = ymin + self._ch if b >= 0.0 else ymin
        t1 = a * mx
        t2 = b * my
        e = (t1 + t2) + c
        tol = predicates.COVER_GUARD_REL * (
            abs(a) * self._tx + abs(b) * self._ty + abs(c)
        )
        band = (
            predicates.HP_FILTER * (abs(t1) + abs(t2) + abs(c))
            + hp.c_err
            + predicates.ABS_GUARD
        )
        if e + band < -tol:
            predicates.STATS.filter_hits += 1
            return True
        if e - band > -tol:
            predicates.STATS.filter_hits += 1
            return False
        return predicates.halfplane_below(hp, mx, my, tol)

    def _compute_alive(self, key: CellKey) -> bool:
        needed = self.k
        covered = 0
        xmin = self._xmin + key[0] * self._cw
        ymin = self._ymin + key[1] * self._ch
        xmax = xmin + self._cw
        ymax = ymin + self._ch
        tx, ty = self._tx, self._ty
        cov_rel = predicates.COVER_GUARD_REL
        hp_filter = predicates.HP_FILTER
        abs_guard = predicates.ABS_GUARD
        stats = predicates.STATS
        for hp in self._halfplanes:
            # Corner of the cell maximizing the plane's linear function; the
            # whole cell is outside iff even that corner clearly is.  The
            # filter fast path mirrors predicates.halfplane_below inline
            # (identical arithmetic) — this loop is the region hot path.
            a, b, c = hp.a, hp.b, hp.c
            mx = xmax if a >= 0.0 else xmin
            my = ymax if b >= 0.0 else ymin
            t1 = a * mx
            t2 = b * my
            e = (t1 + t2) + c
            tol = cov_rel * (abs(a) * tx + abs(b) * ty + abs(c))
            band = hp_filter * (abs(t1) + abs(t2) + abs(c)) + hp.c_err + abs_guard
            if e + band < -tol:
                stats.filter_hits += 1
                below = True
            elif e - band > -tol:
                stats.filter_hits += 1
                below = False
            else:
                below = predicates.halfplane_below(hp, mx, my, tol)
            if below:
                covered += 1
                if covered >= needed:
                    return False
        return True

    def coverage(self, key: CellKey) -> int:
        """How many half-planes fully cover cell ``key``."""
        return sum(1 for hp in self._halfplanes if self.covers(hp, key))

    def point_alive(self, p: Iterable[float]) -> bool:
        """Point-level survival: fewer than ``k`` half-planes strictly
        exclude the point.

        Decided *exactly*: the adaptive predicate evaluates the point
        against each half-plane's exact rational coefficients, so a point
        precisely on a bisector (an equidistant object, which the paper's
        strict inequality keeps) is never excluded — no margin needed.
        Object positions are exactly-known floats, unlike reconstructed
        cell corners, which is why this test carries no slack while
        :meth:`covers` does; exactness here plus the conservative corner
        slack there preserves ``point_alive(p)  =>  cell of p alive``.
        """
        x, y = p
        excluded = 0
        for hp in self._halfplanes:
            if predicates.halfplane_sign(hp, x, y) < 0:
                excluded += 1
                if excluded >= self.k:
                    return False
        return True

    # ------------------------------------------------------------------
    # Region enumeration
    # ------------------------------------------------------------------

    def region_polygon(self) -> ConvexPolygon:
        """The exact (point-level) alive region for ``k = 1``.

        The intersection of all half-planes with the data space; cached
        until the next mutation.  Raises ``ValueError`` for ``k > 1``,
        where the point-level region is not convex.
        """
        if self.k != 1:
            raise ValueError("the exact alive region is only convex for k=1")
        if self._polygon is None:
            poly = ConvexPolygon.from_rect(self.extent)
            for hp in self._halfplanes:
                poly = poly.clip(hp)
                if poly.is_empty():
                    break
            self._polygon = poly
        return self._polygon

    def _bbox_cell_range(self) -> Optional[Tuple[int, int, int, int]]:
        """Cell index range covering the region polygon (k=1), or ``None``
        when the region is empty."""
        rect = self.region_polygon().bounding_rect()
        if rect is None:
            return None
        n = self.size
        # Widened by one cell per side: the index computation truncates,
        # so a polygon vertex exactly on a cell edge could otherwise fall
        # out of the range by a single ulp.  The extra ring is filtered by
        # the per-cell aliveness test anyway.
        ix0 = max(0, min(n - 1, int((rect.xmin - self._xmin) / self._cw) - 1))
        ix1 = max(0, min(n - 1, int((rect.xmax - self._xmin) / self._cw) + 1))
        iy0 = max(0, min(n - 1, int((rect.ymin - self._ymin) / self._ch) - 1))
        iy1 = max(0, min(n - 1, int((rect.ymax - self._ymin) / self._ch) + 1))
        return (ix0, ix1, iy0, iy1)

    def alive_cells(self) -> Iterator[CellKey]:
        """Cells that can contain a surviving point.

        For ``k = 1`` this enumerates the bounding box of the exact region
        polygon (every such cell intersects the polygon's bbox; cells that
        only straddle a bisector line far from the region hold no
        surviving point and are skipped).  For ``k > 1`` a dense pass
        enumerates every cell-level-alive cell.
        """
        if self.k == 1:
            span = self._bbox_cell_range()
            if span is None:
                return
            ix0, ix1, iy0, iy1 = span
            if not self._prefilled:
                # Decide once per invalidation; spans too small to prefill
                # would otherwise re-evaluate this guard on every call.
                self._prefilled = True
                if (
                    self._halfplanes
                    and (ix1 - ix0 + 1) * (iy1 - iy0 + 1) >= _PREFILL_MIN_CELLS
                ):
                    self._prefill_span(ix0, ix1, iy0, iy1)
            for ix in range(ix0, ix1 + 1):
                for iy in range(iy0, iy1 + 1):
                    if self.is_alive((ix, iy)):
                        yield (ix, iy)
        else:
            ixs, iys = np.nonzero(self._dense_coverage() < self.k)
            for ix, iy in zip(ixs.tolist(), iys.tolist()):
                yield (ix, iy)

    def alive_count(self) -> int:
        """Number of cells that can contain a surviving point."""
        if self.k == 1:
            return sum(1 for _ in self.alive_cells())
        return int(np.count_nonzero(self._dense_coverage() < self.k))

    def alive_cell_bound(self) -> int:
        """Cheap upper bound on :meth:`alive_count`.

        For ``k = 1`` the region polygon's bounding-box cell span (no
        cell evaluations); for ``k > 1`` the exact count of the cached
        dense coverage pass, which :meth:`alive_cells` reads anyway.
        """
        if self.k == 1:
            span = self._bbox_cell_range()
            if span is None:
                return 0
            ix0, ix1, iy0, iy1 = span
            return (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        return self.alive_count()

    def alive_fraction(self) -> float:
        """Alive cells as a fraction of all cells (the monitored area)."""
        return self.alive_count() / float(self.size * self.size)

    # ------------------------------------------------------------------
    # Redundancy (candidate pruning support)
    # ------------------------------------------------------------------

    def kills_uniquely(self, hp: HalfPlane) -> bool:
        """Whether removing ``hp`` could enlarge the monitored region.

        For ``k = 1`` the (cached) region polygon answers this: ``hp`` is
        *inactive* — and therefore safely removable — when no polygon
        vertex lies on its boundary; an inactive constraint stays strictly
        inside the intersection of the others, so dropping it leaves the
        region unchanged.  Conservative for degenerate (empty) regions,
        where every half-plane is treated as needed.

        For ``k > 1`` a dense coverage pass checks whether any cell sits at
        the death threshold only because of ``hp``.
        """
        if self.k == 1:
            poly = self.region_polygon()
            if poly.is_empty():
                return True
            # "Vertex on the boundary" over *computed* intersection
            # vertices: a relative tolerance (coefficient scale times
            # vertex magnitude) — not correctness-critical, see above,
            # but an absolute one would misjudge at large extents.
            scale = (hp.a * hp.a + hp.b * hp.b) ** 0.5
            return any(
                abs(hp.value(v))
                <= predicates.BOUNDARY_REL
                * scale
                * max(abs(v.x), abs(v.y), 1.0)
                for v in poly.vertices
            )
        coverage = self._dense_coverage()
        outside = self._dense_outside(hp)
        return bool(np.any(outside & (coverage == self.k)))

    # ------------------------------------------------------------------
    # Dense fallbacks (k > 1 and tests)
    # ------------------------------------------------------------------

    def _prefill_span(self, ix0: int, ix1: int, iy0: int, iy1: int) -> None:
        """Vectorized k=1 classification of the whole enumeration span.

        One float-filter pass per half-plane over the span's cell corners,
        with in-band cells resolved through the same exact predicate the
        scalar :meth:`_compute_alive` uses — classifications are identical,
        only computed span-at-a-time instead of cell-at-a-time.  The
        elementwise arithmetic replicates the scalar corner test term for
        term (same association), so even the filter decisions match.
        Results land in the per-cell memo, which :meth:`is_alive` then
        serves.
        """
        nx = ix1 - ix0 + 1
        ny = iy1 - iy0 + 1
        x_lo = self._xmin + np.arange(ix0, ix1 + 1) * self._cw
        y_lo = self._ymin + np.arange(iy0, iy1 + 1) * self._ch
        x_hi = x_lo + self._cw
        y_hi = y_lo + self._ch
        alive = np.ones((nx, ny), dtype=bool)
        stats = predicates.STATS
        hp_filter = predicates.HP_FILTER
        abs_guard = predicates.ABS_GUARD
        for hp in self._halfplanes:
            mx = x_hi if hp.a >= 0.0 else x_lo
            my = y_hi if hp.b >= 0.0 else y_lo
            tx = hp.a * mx
            ty = hp.b * my
            e = np.add.outer(tx, ty) + hp.c
            mag = np.add.outer(np.abs(tx), np.abs(ty)) + abs(hp.c)
            band = hp_filter * mag + (hp.c_err + abs_guard)
            tol = self._cover_tol(hp)
            covered = e + band < -tol
            uncertain = ~covered & ~(e - band > -tol)
            n_unc = int(uncertain.sum())
            stats.filter_hits += nx * ny - n_unc
            if n_unc:
                ixs, iys = np.nonzero(uncertain)
                for i, j in zip(ixs.tolist(), iys.tolist()):
                    covered[i, j] = predicates.halfplane_below(
                        hp, float(mx[i]), float(my[j]), tol
                    )
            alive &= ~covered
        memo = self._memo
        for i in range(nx):
            row = alive[i]
            for j in range(ny):
                memo[(ix0 + i, iy0 + j)] = bool(row[j])
        self._prefilled = True

    def _axis_bounds(self):
        n = self.size
        x_lo = self._xmin + np.arange(n) * self._cw
        y_lo = self._ymin + np.arange(n) * self._ch
        return x_lo, x_lo + self._cw, y_lo, y_lo + self._ch

    def _dense_outside(self, hp: HalfPlane):
        """Vectorized :meth:`covers` over every cell.

        The float pass classifies cells whose corner value clears the
        certified error band; the (rare) cells inside the band are
        resolved through the same exact predicate as the scalar path, so
        dense and per-cell classification can never disagree.
        """
        x_lo, x_hi, y_lo, y_hi = self._axis_bounds()
        mx = x_hi if hp.a >= 0.0 else x_lo
        my = y_hi if hp.b >= 0.0 else y_lo
        tx = hp.a * mx
        ty = hp.b * my
        e = np.add.outer(tx + hp.c, ty)
        mag = np.add.outer(np.abs(tx) + abs(hp.c), np.abs(ty))
        band = predicates.HP_FILTER * mag + (hp.c_err + predicates.ABS_GUARD)
        tol = self._cover_tol(hp)
        out = e < -(tol + band)
        uncertain = ~out & (e < band - tol)
        if np.any(uncertain):
            ixs, iys = np.nonzero(uncertain)
            for ix, iy in zip(ixs.tolist(), iys.tolist()):
                out[ix, iy] = predicates.halfplane_below(
                    hp, float(mx[ix]), float(my[iy]), tol
                )
        return out

    def _dense_coverage(self):
        """Per-cell covering half-plane counts, cached until the next
        mutation (treat the returned array as read-only)."""
        coverage = self._coverage
        if coverage is None:
            coverage = np.zeros((self.size, self.size), dtype=np.int32)
            for hp in self._halfplanes:
                coverage += self._dense_outside(hp)
            self._coverage = coverage
        return coverage
