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

The region maintenance is :class:`repro.core.region.RegionCore`, shared
with the monochromatic algorithm and tightened over ``cat_a``; ``NN_A`` is
the state's ``monitored`` dict.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.core.region import RegionCore
from repro.core.state import SCAN_CELL_LIMIT, RegionState, StepReport
from repro.geometry.point import dist_sq
from repro.grid.index import Category, GridIndex, ObjectId
from repro.grid.search import GridSearch, SearchKind
from repro.obs.ledger import phase


class BiIGERN(RegionCore):
    """Continuous bichromatic RNN monitoring for one type-A query.

    Takes the parameters of :class:`repro.core.region.RegionCore` plus
    the two category labels: ``cat_a`` is the query's type (the
    monitored ``NN_A`` set and the witnesses), ``cat_b`` the answers'.
    ``query_id``, when ``q_A`` is itself an indexed A object, is excluded
    from ``NN_A`` discovery and from the "nearest A" verification (where
    only its *position* competes, as the query).  ``k`` extends the paper
    as in the monochromatic case: a B object is reported when fewer than
    ``k`` A objects are strictly closer to it than the query.  With a
    ``shared_context`` the verification's witness counts and nearest-A
    absorption searches run through the tick-wide memos.
    """

    def __init__(
        self,
        grid: GridIndex,
        cat_a: Category = "A",
        cat_b: Category = "B",
        query_id: Optional[ObjectId] = None,
        k: int = 1,
        prune: str = "guarded",
        search: Optional[GridSearch] = None,
        shared_context=None,
        metric=None,
    ):
        if cat_a == cat_b:
            raise ValueError("bichromatic query needs two distinct categories")
        super().__init__(grid, query_id, k, prune, search, shared_context, metric)
        self.cat_a = cat_a
        self.cat_b = cat_b

    # ------------------------------------------------------------------
    # Step 1: initial answer (Algorithm 3)
    # ------------------------------------------------------------------

    def initial(self, qpos: Iterable[float]) -> "tuple[RegionState, StepReport]":
        """Compute the first answer, monitored region and ``NN_A`` set."""
        state = self._new_state(qpos)
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

    def incremental(self, state: RegionState, qpos: Iterable[float]) -> StepReport:
        """Maintain the answer for the current tick, updating ``state``."""
        cost = self.cost
        movement = self._refresh_moved(state, qpos)
        if movement:
            with phase(cost, "bi.incremental.rebuild"):
                self._rebuild_region(state)
        grid = self.grid
        if state.alive.alive_cell_bound() <= SCAN_CELL_LIMIT:
            # Fast path: one scan of the small monitored region serves both
            # the Phase I tightening (absorb the A objects) and the Phase II
            # verification (resolve the B objects).  Absorption and the
            # guarded prune leave every B object that is point-alive at
            # verification inside this scan's cells, and _verify re-tests
            # each against the region it sees, so the shared enumeration
            # stays sound.
            with phase(cost, "bi.incremental.tighten"):
                rows = self.search.region_objects_by_distance(
                    state.qpos, state.alive, kind=SearchKind.BOUNDED
                )
                excluded = self._excluded(state)
                found = 0
                pending = []
                for _, oid in rows:
                    category = grid.category(oid)
                    if category == self.cat_a:
                        if oid in excluded:
                            continue
                        pos = grid.position(oid)
                        if not state.alive.is_alive(grid.cell_key(pos)):
                            continue
                        self._absorb(state, oid, pos)
                        found += 1
                    elif category == self.cat_b:
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

    def _verify(
        self, state: RegionState, pending: Optional[list] = None
    ) -> Tuple[Set[ObjectId], int]:
        """Phase II: resolve the B objects inside the alive region.

        ``pending`` must be the B enumeration of this evaluation's own
        region scan (the incremental fast path); without it the alive
        cells are enumerated here.  Either way it holds every B object
        that can be point-alive at verification, and the region only
        shrinks during the loop, so the objects that pass the point
        filter and are probed include every B object point-alive in the
        final region.  They are recorded as ``state.probed``, the B
        objects whose witness balls the footprint covers
        (``docs/ALGORITHM.md``, "Bichromatic footprints"); a pending
        list from an earlier scan would leave that record incomplete.
        Returns the answer set and how many additional A objects were
        absorbed into ``NN_A`` along the way.
        """
        q = state.qpos
        alive = state.alive
        positions = self.grid._positions
        search = self.search
        answer: Set[ObjectId] = set()
        probed: List[ObjectId] = []
        extra = 0
        exclude_nn = {self.query_id} if self.query_id is not None else set()
        ctx = self.shared_context
        sig = frozenset(exclude_nn)
        if pending is None:
            pending = list(search.objects_in_alive(alive, category=self.cat_b))
        for ob in pending:
            pos = positions[ob]
            # Point-level filter on the region's bisectors: a B object
            # strictly closer to k monitored A objects than to the query is
            # provably not an answer, sparing its nearest-A search.  (Cell
            # granularity over-covers the region by the straddling cells;
            # the exact point test implies the cell test.)
            if not alive.point_alive(pos):
                continue
            probed.append(ob)
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
            if oa is not None and oa not in state.monitored:
                self._absorb(state, oa, positions[oa])
                extra += 1
        # One cleaning pass at the end of the scan: equivalent to the
        # paper's per-addition cleaning, at a fraction of the cost.  A
        # half-plane it removes can revive a B object the point filter
        # skipped (the guarded rule decides redundancy per cell at
        # k >= 2), so the pending objects are then re-tested against the
        # final region.
        if extra and self._prune(state):
            probed = [ob for ob in pending if alive.point_alive(positions[ob])]
        # A literal prune rebuilds the region from the survivors, which
        # can outgrow the scanned cells: cover every B object instead.
        state.probed = probed if self.prune != "literal" else None
        return answer, extra
