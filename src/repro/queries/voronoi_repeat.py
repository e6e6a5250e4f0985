"""Repeated Voronoi-cell construction (bichromatic baseline).

A B object is a bichromatic RNN of ``q_A`` exactly when it lies inside
``q_A``'s Voronoi cell among the A objects.  Before IGERN there was no
continuous bichromatic algorithm, so the paper compares against rebuilding
that cell from scratch at every time step.

This implements the classic construction (predating IGERN's alive-cell
pruning, which is part of the paper's contribution and therefore not lent
to the baseline): retrieve A objects in increasing distance from ``q_A``
with an incremental nearest neighbor stream, clip the cell polygon with
each bisector, and stop once the next neighbor is farther than twice the
cell's current radius — a site at distance ``d`` has its bisector at
``d/2`` from the query, so once ``d/2`` exceeds the farthest cell vertex
no further site can cut the cell.  The B objects inside the cell's cells
are then verified with a nearest-A test each, exactly the ``a_t * NN_c +
b_t * NN`` structure of the paper's Section 6 cost model.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Set

from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import dist, dist_sq
from repro.geometry.polygon import ConvexPolygon
from repro.grid.index import Category, GridIndex
from repro.grid.search import SearchKind
from repro.obs.ledger import phase
from repro.queries.base import ContinuousQuery, QueryPosition


_METHODS = ("classic", "pruned")


class VoronoiRepeatQuery(ContinuousQuery):
    """Bichromatic RNNs by rebuilding the query's Voronoi cell each tick.

    Two construction methods:

    - ``"classic"`` (default): the pre-IGERN construction described in the
      module docstring (distance-ordered retrieval + 2R termination);
    - ``"pruned"``: a stateless run of IGERN's own initial step every
      tick — the strongest possible version of the baseline, useful to
      isolate exactly what the *incremental* part of IGERN buys (this
      variant reproduces the paper's Figure 9a crossover where Voronoi is
      marginally cheaper at t = 0 only).
    """

    name = "Voronoi"

    def __init__(
        self,
        grid: GridIndex,
        position: QueryPosition,
        cat_a: Category = "A",
        cat_b: Category = "B",
        method: str = "classic",
    ):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
        super().__init__(grid, position)
        self.cat_a = cat_a
        self.cat_b = cat_b
        self.method = method
        if method == "pruned":
            from repro.core.bi import BiIGERN

            self._algo = BiIGERN(
                grid,
                cat_a=cat_a,
                cat_b=cat_b,
                query_id=position.query_id,
                prune="off",
                search=self.search,
            )
        #: Number of A neighbors retrieved for the last cell construction
        #: (``a_t`` in the cost model); exposed for the experiment reports.
        self.last_neighbors = 0

    def initial(self) -> FrozenSet[Hashable]:
        return self.tick()

    def tick(self) -> FrozenSet[Hashable]:
        if self.method == "pruned":
            with phase(self.cost, "voronoi.pruned"):
                state, report = self._algo.initial(self.position.current())
            self.last_neighbors = len(state.monitored)
            self._answer = report.answer
            return self._answer
        with phase(self.cost, "voronoi.rebuild"):
            return self._tick_classic()

    def _tick_classic(self) -> FrozenSet[Hashable]:
        grid = self.grid
        search = self.search
        qpos = self.position.current()
        qid = self.position.query_id
        exclude = {qid} if qid is not None else set()

        # Step 1: the Voronoi cell of q_A among the A objects.
        cell = ConvexPolygon.from_rect(grid.extent)
        retrieved = 0
        for oid, d in search.iter_nearest(
            qpos, exclude=exclude, category=self.cat_a, kind=SearchKind.CONSTRAINED
        ):
            radius = max(dist(v, qpos) for v in cell.vertices) if cell.vertices else 0.0
            if d > 2.0 * radius:
                break
            pos = grid.position(oid)
            if pos == qpos:
                # A coincident site leaves the closed cell unchanged.
                retrieved += 1
                continue
            cell = cell.clip(bisector_halfplane(qpos, pos))
            retrieved += 1
            if cell.is_empty():
                break
        self.last_neighbors = retrieved

        # Step 2: verify the B objects around the cell with a nearest-A
        # test each (the b_t * NN term).
        answer: Set[Hashable] = set()
        bbox = cell.bounding_rect()
        if bbox is not None:
            lo = grid.cell_key((bbox.xmin, bbox.ymin))
            hi = grid.cell_key((bbox.xmax, bbox.ymax))
            for ix in range(lo[0], hi[0] + 1):
                for iy in range(lo[1], hi[1] + 1):
                    for ob in grid.objects_in_cell((ix, iy), self.cat_b):
                        bpos = grid.position(ob)
                        if not cell.contains(bpos):
                            continue
                        dq2 = dist_sq(bpos, qpos)
                        hit = search.nearest(
                            bpos,
                            exclude=exclude,
                            category=self.cat_a,
                            kind=SearchKind.UNCONSTRAINED,
                        )
                        # Squared-space comparison computed the same way on
                        # both sides (strict inequality semantics).
                        if hit is None or dist_sq(grid.position(hit[0]), bpos) >= dq2:
                            answer.add(ob)

        self._answer = frozenset(answer)
        return self._answer
