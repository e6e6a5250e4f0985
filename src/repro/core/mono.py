"""Monochromatic IGERN (Algorithms 1 and 2 of the paper).

The query and all data objects are of the same type.  An object ``o`` is a
reverse nearest neighbor (RNN) of the query ``q`` iff no other data object
is strictly closer to ``o`` than ``q`` is.  (RkNN extension: iff fewer than
``k`` other objects are strictly closer.)

The algorithm monitors one bounded region — the grid cells not yet killed
by the bisectors between ``q`` and the candidate set ``RNNcand`` — plus the
candidates themselves:

*Initial step* (:meth:`MonoIGERN.initial`)
    Phase I repeatedly finds the object nearest to ``q`` inside the alive
    cells, adds it to ``RNNcand`` and kills every cell entirely on its side
    of the bisector, until the alive region holds no further objects.
    Phase II keeps the candidates that pass the nearest neighbor test.

*Incremental step* (:meth:`MonoIGERN.incremental`)
    Runs every tick.  If ``q`` or any candidate moved, all bisectors are
    redrawn and the alive mask rebuilt.  Any object now inside an alive
    cell triggers the same tightening loop as Phase I.  The candidate set
    is then cleaned of dominated members and the answer re-verified.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.core.candidates import (
    normalize_prune_mode,
    prune_candidates,
    prune_monitored,
)
from repro.core.state import (
    SCAN_CELL_LIMIT as _SCAN_CELL_LIMIT,
    MonoState,
    ObjectId,
    StepReport,
)
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import Point, dist_sq
from repro.grid.alive import AliveCellGrid
from repro.grid.index import GridIndex
from repro.grid.search import GridSearch, SearchKind
from repro.obs.ledger import phase


class MonoIGERN:
    """Continuous monochromatic R(k)NN monitoring for one query.

    Parameters
    ----------
    grid:
        The shared grid index of moving objects.
    query_id:
        Id of the query object inside the grid, if the query is itself a
        data object (the usual monochromatic setting); it is excluded from
        candidate discovery and verification.  ``None`` for an external
        query point.
    k:
        Answer semantics: an object is reported when fewer than ``k``
        other objects are strictly closer to it than the query (``k = 1``
        is the paper's RNN).
    prune:
        Candidate-cleaning policy for the incremental step (Algorithm 2
        line 8): ``"guarded"`` (default) applies the domination rule with
        the region-preservation and hysteresis guards (see
        :func:`repro.core.candidates.prune_monitored`); ``"literal"``
        applies the paper's rule verbatim and rebuilds the region from the
        survivors (reproduces the paper's ~3.5 monitored objects, at the
        cost of a potentially unbounded region); ``"off"`` disables
        cleaning.  Booleans are accepted as aliases (True = guarded,
        False = off).
    search:
        An existing :class:`GridSearch` to share operation counters with;
        a private one is created by default.
    shared_context:
        Optional per-tick :class:`repro.grid.context.SharedTickContext`
        (normally bound by the batch executor).  Verification probes then
        run through the tick-wide witness memo — answers stay bit-identical
        to the cold path; only redundant searches are skipped.
    """

    def __init__(
        self,
        grid: GridIndex,
        query_id: Optional[ObjectId] = None,
        k: int = 1,
        prune: "str | bool" = "guarded",
        search: Optional[GridSearch] = None,
        shared_context=None,
        metric=None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Bisector pruning is a Euclidean theorem; non-Euclidean metrics
        # must go through repro.core.network instead (the adapters in
        # repro.queries dispatch on metric.euclidean).
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

    # ------------------------------------------------------------------
    # Step 1: initial answer (Algorithm 1)
    # ------------------------------------------------------------------

    def initial(self, qpos: Iterable[float]) -> "tuple[MonoState, StepReport]":
        """Compute the first answer, monitored region and candidate set."""
        qx, qy = qpos
        q = Point(qx, qy)
        state = MonoState(
            qpos=q,
            alive=AliveCellGrid(self.grid.size, self.grid.extent, self.k),
        )
        self._bind_context(state)
        cost = self.cost
        # Phase I: bounded region.
        with phase(cost, "mono.initial.tighten"):
            found = self._tighten(state, kind=SearchKind.CONSTRAINED)
        # Phase II: verification.
        with phase(cost, "mono.initial.verify"):
            answer = self._verify(state)
        state.answer = answer
        return state, self._report(state, answer, is_initial=True, tightened=found)

    # ------------------------------------------------------------------
    # Step 2: incremental maintenance (Algorithm 2)
    # ------------------------------------------------------------------

    def incremental(
        self, state: MonoState, qpos: Iterable[float]
    ) -> StepReport:
        """Maintain the answer for the current tick, updating ``state``."""
        qx, qy = qpos
        q = Point(qx, qy)
        self._bind_context(state)
        cost = self.cost
        movement = self._refresh_moved(state, q)
        if movement:
            with phase(cost, "mono.incremental.rebuild"):
                self._rebuild_region(state)
        # Scenario 3: objects inside the alive cells — the tightening
        # search doubles as the existence check (its first probe).
        with phase(cost, "mono.incremental.tighten"):
            found = self._tighten(state, kind=SearchKind.BOUNDED)
        pruned = 0
        if found:
            with phase(cost, "mono.incremental.prune"):
                pruned = self._prune(state)
        with phase(cost, "mono.incremental.verify"):
            answer = self._verify(state)
        state.answer = answer
        return self._report(
            state,
            answer,
            is_initial=False,
            movement_rebuild=movement,
            tightened=found,
            pruned=pruned,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _report(
        self,
        state: MonoState,
        answer: Set[ObjectId],
        is_initial: bool,
        movement_rebuild: bool = False,
        tightened: int = 0,
        pruned: int = 0,
    ) -> StepReport:
        alive_cells = state.alive.alive_count()
        return StepReport(
            answer=frozenset(answer),
            monitored=frozenset(state.candidates),
            alive_cells=alive_cells,
            alive_fraction=alive_cells / float(self.grid.size * self.grid.size),
            is_initial=is_initial,
            movement_rebuild=movement_rebuild,
            tightened=tightened,
            pruned=pruned,
        )

    def _bind_context(self, state: MonoState) -> None:
        """Attach (or detach) the tick's shared context to this query's
        alive grid and search, so half-plane classifications and region
        scans route through the tick-wide memos."""
        ctx = self.shared_context
        if ctx is not None:
            ctx.adopt_alive(state.alive)
        else:
            state.alive.shared_classify = None
        self.search.shared_context = ctx

    def _prune(self, state: MonoState) -> int:
        """Clean the candidate set according to the configured policy."""
        if self.prune == "guarded":
            # Dominated candidates whose bisector is redundant; the alive
            # mask is updated incrementally by the removals.
            return prune_monitored(state.candidates, state.qpos, state.alive, self.k)
        if self.prune == "literal":
            removed = prune_candidates(state.candidates, state.qpos, self.k)
            if removed:
                self._rebuild_region(state)
            return removed
        return 0

    def _excluded(self, state: MonoState) -> Set[ObjectId]:
        excluded = set(state.candidates)
        if self.query_id is not None:
            excluded.add(self.query_id)
        return excluded

    def _refresh_moved(self, state: MonoState, q: Point) -> bool:
        """Detect query/candidate movement; refresh position snapshots.

        Candidates that left the index entirely are dropped (deletion is a
        movement event whose bisector simply disappears).
        """
        moved = q != state.qpos
        state.qpos = q
        grid = self.grid
        gone = [oid for oid in state.candidates if oid not in grid]
        for oid in gone:
            del state.candidates[oid]
            moved = True
        for oid, snapshot in state.candidates.items():
            current = grid.position(oid)
            if current != snapshot:
                state.candidates[oid] = current
                moved = True
        return moved

    def _rebuild_region(self, state: MonoState) -> None:
        """Redraw all bisectors; only cells between q and them stay alive."""
        q = state.qpos
        state.alive.rebuild(
            bisector_halfplane(q, pos)
            for pos in state.candidates.values()
            if pos != q
        )

    def _tighten(self, state: MonoState, kind: SearchKind) -> int:
        """Phase I: absorb every object inside the alive region.

        Each found object becomes a candidate and its bisector shrinks the
        region, until the alive cells hold no non-candidate object.
        Returns the number of objects absorbed.

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
            and state.alive.alive_cell_bound() <= _SCAN_CELL_LIMIT
        )
        if use_scan:
            for _, oid in search.region_objects_by_distance(
                q, state.alive, exclude=excluded, kind=kind
            ):
                pos = grid.position(oid)
                # Earlier absorptions may have killed this object's cell.
                if not state.alive.is_alive(grid.cell_key(pos)):
                    continue
                state.candidates[oid] = pos
                found += 1
                if pos != q:
                    state.alive.add_halfplane(bisector_halfplane(q, pos))
            return found
        while True:
            hit = search.nearest(q, exclude=excluded, alive=state.alive, kind=kind)
            if hit is None:
                return found
            oid, _ = hit
            pos = grid.position(oid)
            state.candidates[oid] = pos
            excluded.add(oid)
            found += 1
            if pos != q:
                state.alive.add_halfplane(bisector_halfplane(q, pos))

    def _verify(self, state: MonoState) -> Set[ObjectId]:
        """Phase II: keep candidates for which q passes the (k-)NN test."""
        q = state.qpos
        answer: Set[ObjectId] = set()
        exclude_base = {self.query_id} if self.query_id is not None else set()
        ctx = self.shared_context
        for oid, pos in state.candidates.items():
            # Squared-space comparison: an exactly equidistant witness must
            # not disqualify the candidate (the paper's strict inequality).
            dq2 = dist_sq(pos, q)
            if ctx is not None:
                # Tick-shared probe: same min(k, count) semantics as the
                # cold call below, with witnesses banked for other queries
                # verifying the same candidate this tick.
                witnesses = ctx.witness_count(
                    self.search,
                    oid,
                    pos,
                    dq2,
                    frozenset(exclude_base | {oid}),
                    None,
                    self.k,
                    threshold_ref=q,
                )
                if witnesses < self.k:
                    answer.add(oid)
                continue
            # stop_at keeps the probe in the columnar kernel's row-by-row
            # early-exit regime (most verifications settle within a few
            # rows); without it the kernel would scan whole cell slices.
            witnesses = self.search.count_closer_than(
                pos,
                threshold_sq=dq2,
                exclude=exclude_base | {oid},
                stop_at=self.k,
                kind=SearchKind.UNCONSTRAINED,
                threshold_point=q,
            )
            if witnesses < self.k:
                answer.add(oid)
        return answer
