"""Phase I of IGERN: the bounded region both flavours maintain.

Algorithms 2 and 4 of the paper keep their monitored region the same
way — redraw every bisector when the query or a monitored object moved,
absorb the objects that entered the alive region (each one's bisector
shrinks it further), clean the monitored set of dominated members — and
differ only in Phase II verification.  :class:`RegionCore` is that
shared skeleton; :class:`repro.core.mono.MonoIGERN` and
:class:`repro.core.bi.BiIGERN` add their own ``initial``,
``incremental`` and ``_verify`` on top.  The tightening runs over one
object category: every object for a monochromatic query
(``cat_a = None``), the A objects for a bichromatic one.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.candidates import (
    normalize_prune_mode,
    prune_candidates,
    prune_monitored,
)
from repro.core.state import SCAN_CELL_LIMIT, RegionState, StepReport
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import Point
from repro.grid.alive import AliveCellGrid
from repro.grid.index import Category, GridIndex, ObjectId
from repro.grid.search import GridSearch, SearchKind


class RegionCore:
    """The monitored-region maintenance shared by both IGERN flavours.

    Parameters
    ----------
    grid:
        The shared grid index of moving objects.
    query_id:
        Id of the query inside the grid when the query is itself an
        indexed object (of ``cat_a``, for a bichromatic query); excluded
        from monitored-set discovery and from verification.  ``None``
        for an external query point.
    k:
        Answer semantics: an object is reported when fewer than ``k``
        monitored-category objects are strictly closer to it than the
        query (``k = 1`` is the paper's RNN).
    prune:
        Monitored-set cleaning policy for the incremental step
        (Algorithm 2 line 8, Algorithm 4 line 8): ``"guarded"``
        (default) applies the domination rule with the
        region-preservation and hysteresis guards (see
        :func:`repro.core.candidates.prune_monitored`); ``"literal"``
        applies the paper's rule verbatim and rebuilds the region from
        the survivors (reproduces the paper's ~3.5 monitored objects, at
        the cost of a potentially unbounded region); ``"off"`` disables
        cleaning.
    search:
        An existing :class:`GridSearch` to share operation counters with;
        a private one is created by default.
    shared_context:
        Optional per-tick :class:`repro.grid.context.SharedTickContext`
        (normally bound by the batch executor).  Verification probes
        (witness counts, and the bichromatic nearest-A searches) then run
        through the tick-wide memos — answers stay bit-identical to the
        cold path; only redundant probes are skipped.  Region scans and
        cell classification never go through it.
    metric:
        Must be Euclidean (or ``None``): bisector pruning is a Euclidean
        theorem, and non-Euclidean metrics go through
        :mod:`repro.core.network` instead (the adapters in
        :mod:`repro.queries` dispatch on ``metric.euclidean``).
    """

    #: Category the region is tightened over, and of the monitored set:
    #: ``None`` (every object) for a monochromatic query.
    cat_a: Optional[Category] = None
    #: Category of the answers: ``None`` for a monochromatic query.
    cat_b: Optional[Category] = None

    def __init__(
        self,
        grid: GridIndex,
        query_id: Optional[ObjectId] = None,
        k: int = 1,
        prune: str = "guarded",
        search: Optional[GridSearch] = None,
        shared_context=None,
        metric=None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        AliveCellGrid.require_euclidean(metric)
        self.metric = metric
        self.grid = grid
        self.query_id = query_id
        self.k = k
        self.prune = normalize_prune_mode(prune)
        self.search = search if search is not None else GridSearch(grid)
        self.shared_context = shared_context
        #: Active :class:`repro.obs.ledger.QueryTickCost` (bound by the
        #: engine per evaluation) — ``None`` keeps phase timing off.
        self.cost = None

    def _new_state(self, qpos) -> RegionState:
        """A fresh state whose alive region is the whole grid."""
        qx, qy = qpos
        return RegionState(
            qpos=Point(qx, qy),
            alive=AliveCellGrid(self.grid.size, self.grid.extent, self.k),
            cat_a=self.cat_a,
            cat_b=self.cat_b,
        )

    def _report(
        self,
        state: RegionState,
        answer: Set[ObjectId],
        is_initial: bool,
        movement_rebuild: bool = False,
        tightened: int = 0,
        pruned: int = 0,
    ) -> StepReport:
        alive_cells = state.alive.alive_count()
        return StepReport(
            answer=frozenset(answer),
            monitored=frozenset(state.monitored),
            alive_cells=alive_cells,
            alive_fraction=alive_cells / float(self.grid.size * self.grid.size),
            is_initial=is_initial,
            movement_rebuild=movement_rebuild,
            tightened=tightened,
            pruned=pruned,
        )

    def _prune(self, state: RegionState) -> int:
        """Clean the monitored set according to the configured policy."""
        if self.prune == "guarded":
            # Dominated members whose bisector is redundant; the alive
            # mask is updated incrementally by the removals.
            return prune_monitored(state.monitored, state.qpos, state.alive, self.k)
        if self.prune == "literal":
            removed = prune_candidates(state.monitored, state.qpos, self.k)
            if removed:
                self._rebuild_region(state)
            return removed
        return 0

    def _excluded(self, state: RegionState) -> Set[ObjectId]:
        excluded = set(state.monitored)
        if self.query_id is not None:
            excluded.add(self.query_id)
        return excluded

    def _refresh_moved(self, state: RegionState, qpos) -> bool:
        """Detect query / monitored-object movement; refresh snapshots.

        Monitored objects that left the index entirely are dropped
        (deletion is a movement event whose bisector simply disappears).
        """
        qx, qy = qpos
        q = Point(qx, qy)
        moved = q != state.qpos
        state.qpos = q
        grid = self.grid
        monitored = state.monitored
        gone = [oid for oid in monitored if oid not in grid]
        for oid in gone:
            del monitored[oid]
            moved = True
        for oid, snapshot in monitored.items():
            current = grid.position(oid)
            if current != snapshot:
                monitored[oid] = current
                moved = True
        return moved

    def _rebuild_region(self, state: RegionState) -> None:
        """Redraw the bisectors that moved; only cells between q and them
        stay alive.

        A bisector is a deterministic function of its generating pair
        ``(q, pos)``, so a monitored object whose pair is unchanged keeps
        its current half-plane, found by the ``_src`` token (the identity
        :meth:`AliveCellGrid.remove_halfplane` uses too).  Only moved
        objects get new bisectors, and every object does when ``q``
        moved; the list keeps the monitored order.
        """
        q = state.qpos
        qx, qy = q
        drawn = {hp._src: hp for hp in state.alive.halfplanes}
        halfplanes = []
        for pos in state.monitored.values():
            if pos == q:
                continue
            hp = drawn.get((qx, qy, pos[0], pos[1]))
            halfplanes.append(hp if hp is not None else bisector_halfplane(q, pos))
        state.alive.rebuild(halfplanes)

    def _absorb(self, state: RegionState, oid: ObjectId, pos: Point) -> None:
        """Monitor ``oid`` at ``pos`` and clip the region by its bisector."""
        state.monitored[oid] = pos
        if pos != state.qpos:
            state.alive.add_halfplane(bisector_halfplane(state.qpos, pos))

    def _tighten(self, state: RegionState, kind: SearchKind) -> int:
        """Phase I: absorb every ``cat_a`` object inside the alive region.

        Each found object joins the monitored set and its bisector
        shrinks the region, until the alive cells hold no unmonitored
        object of the category.  Returns the number of objects absorbed.

        The initial step (``CONSTRAINED``) runs the paper's loop of
        nearest-in-alive searches — the region starts as the whole grid,
        so only best-first searches avoid touching everything.  The
        incremental step (``BOUNDED``) instead scans the already-small
        monitored region once in distance order and absorbs from that —
        the "bounded NN done only once" of the paper's cost model.
        """
        q = state.qpos
        search = self.search
        excluded = self._excluded(state)
        grid = self.grid
        found = 0
        # The one-pass scan pays for every cell in the region's bounding
        # box.  That is the right trade while the region is small (the
        # steady state); when movement momentarily unbounds the region,
        # the best-first loop is output-sensitive — each absorption
        # re-tightens before farther cells are ever touched.
        use_scan = (
            kind is SearchKind.BOUNDED
            and state.alive.alive_cell_bound() <= SCAN_CELL_LIMIT
        )
        if use_scan:
            for _, oid in search.region_objects_by_distance(
                q, state.alive, category=self.cat_a, exclude=excluded, kind=kind
            ):
                pos = grid.position(oid)
                # Earlier absorptions may have killed this object's cell.
                if not state.alive.is_alive(grid.cell_key(pos)):
                    continue
                self._absorb(state, oid, pos)
                found += 1
            return found
        while True:
            hit = search.nearest(
                q, exclude=excluded, category=self.cat_a, alive=state.alive, kind=kind
            )
            if hit is None:
                return found
            oid, _ = hit
            self._absorb(state, oid, grid.position(oid))
            excluded.add(oid)
            found += 1
