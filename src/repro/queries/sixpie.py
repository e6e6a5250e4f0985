"""Repeated snapshot evaluation of the classic six-pie RNN algorithm.

Stanoi, Agrawal and El Abbadi's filter-refine approach (the theoretical
root of both CRNN and the six-answer bound): divide the space around the
query into six 60-degree pies, find the pie-local nearest neighbor of the
query in each (the only possible RNN of that pie), then verify each
candidate with an unconstrained NN test.

As a *snapshot* algorithm it carries no state; the continuous baseline
re-runs it every tick, costing ``n_pies`` constrained pie searches plus
up to ``n_pies`` verifications per tick regardless of what moved.  CRNN
(:mod:`repro.queries.crnn`) is its continuous refinement: same structure,
but the pie searches are bounded by the previous candidates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable

from repro.geometry.pies import PiePartition
from repro.geometry.point import dist_sq
from repro.grid.cell import CellKey
from repro.grid.index import GridIndex, ObjectId
from repro.grid.search import SearchKind
from repro.obs.ledger import phase
from repro.queries.base import ContinuousQuery, QueryPosition


class SixPieSnapshotQuery(ContinuousQuery):
    """Monochromatic RNNs by re-running six-pie filter-refine per tick."""

    name = "SixPie"

    def __init__(self, grid: GridIndex, position: QueryPosition, n_pies: int = 6):
        if n_pies < 6:
            raise ValueError(
                f"the pie property needs at least 6 sectors for correctness, got {n_pies}"
            )
        super().__init__(grid, position)
        self.n_pies = n_pies

    def initial(self) -> FrozenSet[Hashable]:
        return self.tick()

    def tick(self) -> FrozenSet[Hashable]:
        with phase(self.cost, "sixpie.evaluate"):
            return self._evaluate()

    def _evaluate(self) -> FrozenSet[Hashable]:
        grid = self.grid
        search = self.search
        qpos = self.position.current()
        qid = self.position.query_id
        exclude = {qid} if qid is not None else set()
        pies = PiePartition(qpos, self.n_pies)
        rect_cache: Dict[CellKey, object] = {}

        candidates = []
        for i in range(self.n_pies):

            def in_pie_cell(key: CellKey, _i=i) -> bool:
                rect = rect_cache.get(key)
                if rect is None:
                    rect = grid.cell_rect(key)
                    rect_cache[key] = rect
                return pies.rect_intersects_pie(rect, _i)

            def in_pie(oid: ObjectId, pos, _i=i) -> bool:
                return pos != qpos and pies.pie_of(pos) == _i

            hit = search.nearest(
                qpos,
                exclude=exclude,
                cell_filter=in_pie_cell,
                obj_filter=in_pie,
                kind=SearchKind.CONSTRAINED,
            )
            if hit is not None:
                candidates.append(hit[0])

        answer = set()
        for oid in candidates:
            pos = grid.position(oid)
            witnesses = search.count_closer_than(
                pos,
                threshold_sq=dist_sq(pos, qpos),
                exclude=exclude | {oid},
                stop_at=1,
                kind=SearchKind.UNCONSTRAINED,
                threshold_point=qpos,
            )
            if witnesses == 0:
                answer.add(oid)

        # An object exactly at q belongs to no pie, but under the strict
        # inequality it is always an RNN: nothing can be strictly closer
        # to it than q's distance of zero.
        qtup = tuple(qpos)
        for oid in grid.objects_in_cell(grid.cell_key(qpos)):
            if oid not in exclude and tuple(grid.position(oid)) == qtup:
                answer.add(oid)

        self._answer = frozenset(answer)
        return self._answer
