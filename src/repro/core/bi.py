"""Bichromatic IGERN (Algorithms 3 and 4 of the paper).

Two object types: the query ``q_A`` is of type A; the answer consists of
the B objects whose nearest A object is ``q_A`` (no A object strictly
closer).  Unlike the monochromatic case there is no six-answer bound — all
B objects can be answers — yet IGERN keeps the same structure:

*Initial step* (:meth:`BiIGERN.initial`)
    Phase I clips the alive region with bisectors toward the A objects
    nearest to ``q_A`` (this is ``q_A``'s Voronoi cell at grid-cell
    granularity; the monitored set ``NN_A`` collects those A objects).
    Phase II walks the B objects inside the alive region: each whose
    nearest A object is ``q_A`` joins the answer ``RNN_B``; otherwise its
    nearest A object joins ``NN_A``, its bisector further shrinks the
    region, and dominated members of ``NN_A`` are cleaned.

*Incremental step* (:meth:`BiIGERN.incremental`)
    Redraws bisectors when ``q_A`` or a monitored A object moved, absorbs
    A objects that entered the alive region (Phase I tightening), cleans
    ``NN_A``, and re-verifies the alive region's B objects as in Phase II.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.core.candidates import (
    normalize_prune_mode,
    prune_candidates,
    prune_monitored,
)
from repro.core.state import (
    SCAN_CELL_LIMIT as _SCAN_CELL_LIMIT,
    BiState,
    ObjectId,
    StepReport,
)
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import Point, dist_sq
from repro.grid.alive import AliveCellGrid
from repro.grid.index import Category, GridIndex
from repro.grid.search import GridSearch, SearchKind
from repro.obs.ledger import phase


class BiIGERN:
    """Continuous bichromatic RNN monitoring for one type-A query.

    Parameters
    ----------
    grid:
        Shared grid index holding both A and B objects (distinguished by
        their category tag).
    cat_a, cat_b:
        The category labels of the two object types.
    query_id:
        Id of the query inside the grid when ``q_A`` is itself an indexed
        A object; excluded from ``NN_A`` discovery and from the "nearest A"
        verification (where only its *position* competes, as the query).
    k:
        RkNN extension (beyond the paper, mirroring the monochromatic
        one): a B object is reported when fewer than ``k`` A objects are
        strictly closer to it than the query (``k = 1`` is the paper's
        bichromatic RNN).
    prune:
        ``NN_A``-cleaning policy: ``"guarded"`` (default), ``"literal"``
        (the paper's rule verbatim, region rebuilt from survivors) or
        ``"off"``; booleans alias guarded/off.  See
        :class:`repro.core.mono.MonoIGERN`.
    search:
        Optional shared :class:`GridSearch` for operation accounting.
    shared_context:
        Optional per-tick :class:`repro.grid.context.SharedTickContext`
        (normally bound by the batch executor).  Verification probes and
        nearest-A absorption searches then run through the tick-wide
        memos — answers stay bit-identical to the cold path; only
        redundant searches are skipped.
    """

    def __init__(
        self,
        grid: GridIndex,
        cat_a: Category = "A",
        cat_b: Category = "B",
        query_id: Optional[ObjectId] = None,
        k: int = 1,
        prune: "str | bool" = "guarded",
        search: Optional[GridSearch] = None,
        shared_context=None,
        metric=None,
    ):
        if cat_a == cat_b:
            raise ValueError("bichromatic query needs two distinct categories")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Bisector pruning is a Euclidean theorem; non-Euclidean metrics
        # must go through repro.core.network instead (the adapters in
        # repro.queries dispatch on metric.euclidean).
        AliveCellGrid.require_euclidean(metric)
        self.metric = metric
        self.grid = grid
        self.cat_a = cat_a
        self.cat_b = cat_b
        self.query_id = query_id
        self.k = k
        self.prune = normalize_prune_mode(prune)
        self.search = search if search is not None else GridSearch(grid)
        self.shared_context = shared_context
        #: Active :class:`repro.obs.ledger.QueryTickCost` (bound by the
        #: engine per evaluation) — ``None`` keeps phase timing off.
        self.cost = None

    # ------------------------------------------------------------------
    # Step 1: initial answer (Algorithm 3)
    # ------------------------------------------------------------------

    def initial(self, qpos: Iterable[float]) -> "tuple[BiState, StepReport]":
        """Compute the first answer, monitored region and ``NN_A`` set."""
        qx, qy = qpos
        q = Point(qx, qy)
        state = BiState(
            qpos=q,
            alive=AliveCellGrid(self.grid.size, self.grid.extent, k=self.k),
        )
        self._bind_context(state)
        cost = self.cost
        # Phase I: clip the region toward the nearest A objects.
        with phase(cost, "bi.initial.tighten"):
            found = self._tighten(state, kind=SearchKind.CONSTRAINED)
        # Phase II: resolve the B objects of the alive region.
        with phase(cost, "bi.initial.verify"):
            answer, extra = self._verify(state)
        state.answer = answer
        return state, self._report(
            state, answer, is_initial=True, tightened=found + extra
        )

    # ------------------------------------------------------------------
    # Step 2: incremental maintenance (Algorithm 4)
    # ------------------------------------------------------------------

    def incremental(self, state: BiState, qpos: Iterable[float]) -> StepReport:
        """Maintain the answer for the current tick, updating ``state``."""
        qx, qy = qpos
        q = Point(qx, qy)
        self._bind_context(state)
        cost = self.cost
        movement = self._refresh_moved(state, q)
        if movement:
            with phase(cost, "bi.incremental.rebuild"):
                self._rebuild_region(state)
        grid = self.grid
        if state.alive.alive_cell_bound() <= _SCAN_CELL_LIMIT:
            # Fast path: one scan of the small monitored region serves both
            # the Phase I tightening (absorb the A objects) and the Phase II
            # verification (resolve the B objects).  B objects whose cells
            # die during absorption are re-checked inside _verify, so the
            # shared enumeration stays sound.
            with phase(cost, "bi.incremental.tighten"):
                rows = self.search.region_objects_by_distance(
                    q, state.alive, kind=SearchKind.BOUNDED
                )
                excluded = self._excluded_a(state)
                found = 0
                pending = []
                for _, oid in rows:
                    if grid.category(oid) == self.cat_a:
                        if oid in excluded:
                            continue
                        pos = grid.position(oid)
                        if not state.alive.is_alive(grid.cell_key(pos)):
                            continue
                        self._absorb(state, oid)
                        found += 1
                    else:
                        pending.append(oid)
            with phase(cost, "bi.incremental.prune"):
                pruned = self._prune(state) if found else 0
            with phase(cost, "bi.incremental.verify"):
                answer, extra = self._verify(state, pending=pending)
        else:
            with phase(cost, "bi.incremental.tighten"):
                found = self._tighten(state, kind=SearchKind.BOUNDED)
            with phase(cost, "bi.incremental.prune"):
                pruned = self._prune(state) if found else 0
            with phase(cost, "bi.incremental.verify"):
                answer, extra = self._verify(state)
        state.answer = answer
        return self._report(
            state,
            answer,
            is_initial=False,
            movement_rebuild=movement,
            tightened=found + extra,
            pruned=pruned,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _report(
        self,
        state: BiState,
        answer: Set[ObjectId],
        is_initial: bool,
        movement_rebuild: bool = False,
        tightened: int = 0,
        pruned: int = 0,
    ) -> StepReport:
        alive_cells = state.alive.alive_count()
        return StepReport(
            answer=frozenset(answer),
            monitored=frozenset(state.nn_a),
            alive_cells=alive_cells,
            alive_fraction=alive_cells / float(self.grid.size * self.grid.size),
            is_initial=is_initial,
            movement_rebuild=movement_rebuild,
            tightened=tightened,
            pruned=pruned,
        )

    def _bind_context(self, state: BiState) -> None:
        """Attach (or detach) the tick's shared context to this query's
        alive grid and search (see :meth:`MonoIGERN._bind_context`)."""
        ctx = self.shared_context
        if ctx is not None:
            ctx.adopt_alive(state.alive)
        else:
            state.alive.shared_classify = None
        self.search.shared_context = ctx

    def _prune(self, state: BiState) -> int:
        """Clean ``NN_A`` according to the configured policy."""
        if self.prune == "guarded":
            return prune_monitored(state.nn_a, state.qpos, state.alive, self.k)
        if self.prune == "literal":
            removed = prune_candidates(state.nn_a, state.qpos, self.k)
            if removed:
                self._rebuild_region(state)
            return removed
        return 0

    def _excluded_a(self, state: BiState) -> Set[ObjectId]:
        excluded = set(state.nn_a)
        if self.query_id is not None:
            excluded.add(self.query_id)
        return excluded

    def _refresh_moved(self, state: BiState, q: Point) -> bool:
        """Detect query / monitored-A movement; refresh snapshots."""
        moved = q != state.qpos
        state.qpos = q
        grid = self.grid
        gone = [oid for oid in state.nn_a if oid not in grid]
        for oid in gone:
            del state.nn_a[oid]
            moved = True
        for oid, snapshot in state.nn_a.items():
            current = grid.position(oid)
            if current != snapshot:
                state.nn_a[oid] = current
                moved = True
        return moved

    def _rebuild_region(self, state: BiState) -> None:
        q = state.qpos
        state.alive.rebuild(
            bisector_halfplane(q, pos)
            for pos in state.nn_a.values()
            if pos != q
        )

    def _absorb(self, state: BiState, oid: ObjectId) -> None:
        """Add an A object to ``NN_A`` and clip the region by its bisector."""
        pos = self.grid.position(oid)
        state.nn_a[oid] = pos
        if pos != state.qpos:
            state.alive.add_halfplane(bisector_halfplane(state.qpos, pos))

    def _tighten(self, state: BiState, kind: SearchKind) -> int:
        """Phase I: absorb every A object inside the alive region.

        The initial step (``CONSTRAINED``) runs the paper's loop of
        nearest-in-alive searches; the incremental step (``BOUNDED``)
        scans the small monitored region once in distance order — the
        "bounded NN done only once" of the paper's cost model.
        """
        q = state.qpos
        search = self.search
        excluded = self._excluded_a(state)
        grid = self.grid
        found = 0
        # One-pass scan while the region is small (steady state); fall
        # back to the output-sensitive best-first loop when movement
        # momentarily unbounds the region (see MonoIGERN._tighten).
        use_scan = (
            kind is SearchKind.BOUNDED
            and state.alive.alive_cell_bound() <= _SCAN_CELL_LIMIT
        )
        if use_scan:
            for _, oid in search.region_objects_by_distance(
                q, state.alive, category=self.cat_a, exclude=excluded, kind=kind
            ):
                pos = grid.position(oid)
                if not state.alive.is_alive(grid.cell_key(pos)):
                    continue
                self._absorb(state, oid)
                found += 1
            return found
        while True:
            hit = search.nearest(
                q,
                exclude=excluded,
                category=self.cat_a,
                alive=state.alive,
                kind=kind,
            )
            if hit is None:
                return found
            oid, _ = hit
            self._absorb(state, oid)
            excluded.add(oid)
            found += 1

    def _verify(
        self, state: BiState, pending: Optional[list] = None
    ) -> Tuple[Set[ObjectId], int]:
        """Phase II: resolve the B objects inside the alive region.

        ``pending`` lets the caller reuse an enumeration it already has
        (the incremental fast path); every entry is re-checked for cell
        and point aliveness, so a stale enumeration only costs work, never
        correctness.  Returns the answer set and how many additional A
        objects were absorbed into ``NN_A`` along the way.
        """
        q = state.qpos
        grid = self.grid
        search = self.search
        answer: Set[ObjectId] = set()
        extra = 0
        exclude_nn = {self.query_id} if self.query_id is not None else set()
        ctx = self.shared_context
        sig = frozenset(exclude_nn)
        # Snapshot: the alive region only shrinks during the scan, and B
        # objects falling into freshly dead cells are provably non-answers,
        # so they are simply re-checked for aliveness before the NN test.
        if pending is None:
            pending = list(search.objects_in_alive(state.alive, category=self.cat_b))
        for ob in pending:
            if ob not in grid:
                continue
            pos = grid.position(ob)
            if not state.alive.is_alive(grid.cell_key(pos)):
                continue
            # Point-level pre-filter on the same bisectors: a B object
            # strictly closer to a monitored A object than to the query is
            # provably not an answer, sparing its nearest-A search.  (Cell
            # granularity over-covers the region by the straddling cells.)
            if not state.alive.point_alive(pos):
                continue
            dq2 = dist_sq(pos, q)
            # RkNN semantics: o_B answers when fewer than k A objects are
            # strictly closer to it than the query (k = 1: the nearest-A
            # test of the paper).  Squared-space comparisons throughout.
            if ctx is not None:
                # Tick-shared probes: B objects sitting in several queries'
                # regions are tested against the A population once.
                witnesses = ctx.witness_count(
                    search, ob, pos, dq2, sig, self.cat_a, self.k, threshold_ref=q
                )
            else:
                # stop_at keeps the probe in the columnar kernel's
                # row-by-row early-exit regime rather than a whole-slice
                # scan of every straddled A cell.
                witnesses = search.count_closer_than(
                    pos,
                    threshold_sq=dq2,
                    exclude=exclude_nn,
                    category=self.cat_a,
                    stop_at=self.k,
                    kind=SearchKind.UNCONSTRAINED,
                    threshold_point=q,
                )
            if witnesses < self.k:
                answer.add(ob)
                continue
            if ctx is not None:
                hit = ctx.nearest_excluding(search, ob, pos, sig, self.cat_a)
            else:
                hit = search.nearest(
                    pos,
                    exclude=exclude_nn,
                    category=self.cat_a,
                    kind=SearchKind.UNCONSTRAINED,
                )
            oa = hit[0] if hit is not None else None
            if oa is not None and oa not in state.nn_a:
                self._absorb(state, oa)
                extra += 1
        if extra:
            # One cleaning pass at the end of the scan: equivalent to the
            # paper's per-addition cleaning, at a fraction of the cost.
            self._prune(state)
        return answer, extra
