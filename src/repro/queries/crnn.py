"""CRNN: the six-pie continuous monochromatic RNN monitor.

Our implementation of the paper's main competitor (Xia & Zhang, *Continuous
Reverse Nearest Neighbor Monitoring*, ICDE 2006).  CRNN rests on the
classic six-pie property: dividing the space around the query ``q`` into
six 60-degree sectors, the only possible RNN inside each sector is the
sector's object nearest to ``q`` — hence at most six answers, one
candidate and one monitoring region per pie.

Per tick the monitor performs, as in the paper's Section 6 cost model,
``n_pies`` bounded/constrained NN searches (re-finding each pie's
candidate, bounded by the previous candidate's distance when that bound is
still valid) plus up to ``n_pies`` unconstrained NN verifications.  It
*always* watches six regions and six objects, independent of how the data
actually falls — exactly the behavior IGERN improves on.

``n_pies`` is configurable (>= 6 stays correct; the ablation benchmark
measures 8 and 12).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, Optional

from repro.geometry.pies import PiePartition
from repro.geometry.point import Point, dist, dist_sq
from repro.grid.cell import CellKey
from repro.grid.index import GridIndex, ObjectId
from repro.grid.search import SearchKind
from repro.obs.ledger import phase
from repro.queries.base import ContinuousQuery, QueryPosition

# Relative slack applied to the previous candidate's distance when it is
# used as the bound of the pie search, so the candidate itself (sitting
# exactly at the bound) stays reachable under strict comparisons.
_BOUND_SLACK = 1e-9


class CRNNQuery(ContinuousQuery):
    """Continuous monochromatic RNN monitoring with per-pie candidates."""

    name = "CRNN"

    def __init__(self, grid: GridIndex, position: QueryPosition, n_pies: int = 6):
        if n_pies < 6:
            raise ValueError(
                f"the pie property needs at least 6 sectors for correctness, got {n_pies}"
            )
        super().__init__(grid, position)
        self.n_pies = n_pies
        self._candidates: Dict[int, ObjectId] = {}
        self._qpos_last: Optional[Point] = None

    def initial(self) -> FrozenSet[Hashable]:
        return self._evaluate(full=True)

    def tick(self) -> FrozenSet[Hashable]:
        qpos = self.position.current()
        # A moved query shifts every pie boundary, so all previous bounds
        # are invalid and each pie needs an unbounded (constrained) search.
        full = self._qpos_last is None or qpos != self._qpos_last
        return self._evaluate(full=full)

    @property
    def monitored_count(self) -> int:
        """CRNN watches one candidate per pie, every tick."""
        return len(self._candidates)

    @property
    def monitored_region_count(self) -> int:
        """Number of monitored regions (always the pie count)."""
        return self.n_pies

    def monitored_area(self) -> float:
        """Total area of the monitored pie regions, as a fraction of space.

        Each pie's monitoring region is the circular sector out to its
        candidate (anything entering it could become the new pie NN); a
        pie without a candidate is open-ended and counts as its full share
        of the data space.  This is the quantity the paper compares
        against IGERN's single bounded region ("about one sixth of the
        area monitored by CRNN").
        """
        qpos = self._qpos_last
        if qpos is None:
            return 1.0
        total_space = self.grid.extent.area
        area = 0.0
        for i in range(self.n_pies):
            oid = self._candidates.get(i)
            if oid is None or oid not in self.grid:
                area += total_space / self.n_pies
                continue
            radius = dist(self.grid.position(oid), qpos)
            sector = math.pi * radius * radius / self.n_pies
            area += min(sector, total_space / self.n_pies)
        return area / total_space

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _evaluate(self, full: bool) -> FrozenSet[Hashable]:
        grid = self.grid
        search = self.search
        qpos = self.position.current()
        qid = self.position.query_id
        exclude = {qid} if qid is not None else set()
        pies = PiePartition(qpos, self.n_pies)
        rect_cache: Dict[CellKey, object] = {}

        new_candidates: Dict[int, ObjectId] = {}
        with phase(self.cost, "crnn.pies"):
            for i in range(self.n_pies):
                bound = None
                if not full:
                    prev = self._candidates.get(i)
                    if prev is not None and prev in grid:
                        prev_pos = grid.position(prev)
                        if prev_pos != qpos and pies.pie_of(prev_pos) == i:
                            bound = dist(prev_pos, qpos) * (1.0 + _BOUND_SLACK)

                def in_pie_cell(key: CellKey, _i=i) -> bool:
                    rect = rect_cache.get(key)
                    if rect is None:
                        rect = grid.cell_rect(key)
                        rect_cache[key] = rect
                    return pies.rect_intersects_pie(rect, _i)

                def in_pie(oid: ObjectId, pos, _i=i) -> bool:
                    return tuple(pos) != tuple(qpos) and pies.pie_of(pos) == _i

                hit = search.nearest(
                    qpos,
                    exclude=exclude,
                    cell_filter=in_pie_cell,
                    obj_filter=in_pie,
                    radius=bound,
                    kind=SearchKind.BOUNDED if bound is not None else SearchKind.CONSTRAINED,
                )
                if hit is not None:
                    new_candidates[i] = hit[0]

        answer = set()
        with phase(self.cost, "crnn.verify"):
            for oid in new_candidates.values():
                pos = grid.position(oid)
                # Squared-space comparison (strict inequality semantics).
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

        # Objects exactly at q fall outside every pie, but under the
        # strict inequality they are always RNNs: nothing can be strictly
        # closer to them than q's distance of zero.
        qtup = tuple(qpos)
        for oid in grid.objects_in_cell(grid.cell_key(qpos)):
            if oid not in exclude and tuple(grid.position(oid)) == qtup:
                answer.add(oid)

        self._candidates = new_candidates
        self._qpos_last = qpos
        self._answer = frozenset(answer)
        return self._answer
