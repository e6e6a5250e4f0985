"""Executor adapter for bichromatic IGERN."""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional

from repro.core.bi import BiIGERN
from repro.core.network import NetworkBiCore
from repro.core.state import StepReport
from repro.grid.index import Category, GridIndex
from repro.leases import derive_bi_lease
from repro.metric import EUCLIDEAN, Metric
from repro.queries.base import ContinuousQuery, QueryFootprint, QueryPosition


class IGERNBiQuery(ContinuousQuery):
    """Continuous bichromatic RNN query evaluated with IGERN.

    The query is of type ``cat_a``; the answer consists of ``cat_b``
    objects whose nearest A object is the query.  ``metric`` selects the
    distance backend, exactly as on :class:`IGERNMonoQuery`: Euclidean
    runs the bisector-pruned core, a network metric the
    filter-and-refine core.
    """

    name = "IGERN-bi"
    flavor = "bi"
    #: Flipped on by the engine in lease mode (see
    #: :class:`repro.queries.igern_mono.IGERNMonoQuery.lease_enabled`).
    lease_enabled = False

    def __init__(
        self,
        grid: GridIndex,
        position: QueryPosition,
        cat_a: Category = "A",
        cat_b: Category = "B",
        k: int = 1,
        prune: "str | bool" = "guarded",
        metric: Optional[Metric] = None,
    ):
        super().__init__(grid, position)
        self.metric = EUCLIDEAN if metric is None else metric
        self.search.metric = self.metric
        if self.metric.euclidean:
            self._algo = BiIGERN(
                grid,
                cat_a=cat_a,
                cat_b=cat_b,
                query_id=position.query_id,
                k=k,
                prune=prune,
                search=self.search,
                metric=metric,
            )
        else:
            self.name = "IGERN-bi-net"
            self._algo = NetworkBiCore(
                grid,
                self.metric,
                cat_a=cat_a,
                cat_b=cat_b,
                query_id=position.query_id,
                k=k,
                search=self.search,
            )
        self._state = None
        self.last_report: Optional[StepReport] = None

    @property
    def k(self) -> int:
        return self._algo.k

    def bind_shared_context(self, context) -> None:
        self._algo.shared_context = context
        self.search.shared_context = context

    def bind_cost_recorder(self, cost) -> None:
        self._algo.cost = cost

    def initial(self) -> FrozenSet[Hashable]:
        # Network metrics mark tick boundaries on their network's memos
        # (no-op for Euclidean).
        self.metric.observe_grid(self.grid)
        self._state, report = self._algo.initial(self.position.current())
        if self.lease_enabled and self.metric.euclidean:
            report.lease = derive_bi_lease(
                self._state,
                self.grid,
                self._algo.cat_a,
                self._algo.cat_b,
                self.k,
                self.position.query_id,
            )
        self.last_report = report
        self._answer = report.answer
        return report.answer

    def tick(self) -> FrozenSet[Hashable]:
        if self._state is None:
            return self.initial()
        self.metric.observe_grid(self.grid)
        report = self._algo.incremental(self._state, self.position.current())
        if self.lease_enabled and self.metric.euclidean:
            report.lease = derive_bi_lease(
                self._state,
                self.grid,
                self._algo.cat_a,
                self._algo.cat_b,
                self.k,
                self.position.query_id,
            )
        self.last_report = report
        self._answer = report.answer
        return report.answer

    def footprint(self) -> "QueryFootprint | None":
        """Monitored cells (alive region + per-B witness balls) and the
        monitored A objects (plus the query object itself).  Network
        metrics have no bounded Euclidean footprint — always ``None``,
        so the scheduler re-evaluates every tick."""
        if not self.metric.euclidean:
            return None
        state = self._state
        if state is None:
            return None
        cells = state.footprint_cells(self.grid, self._algo.cat_b)
        if cells is None:
            return None
        objects = set(state.nn_a)
        if self.position.query_id is not None:
            objects.add(self.position.query_id)
        return QueryFootprint(cells=frozenset(cells), objects=frozenset(objects))

    def skip_tick(self):
        if self.last_report is not None:
            self.last_report = self.last_report.carried()
        return self._answer

    @property
    def monitored_count(self) -> int:
        return len(self._state.nn_a) if self._state is not None else 0

    @property
    def monitored_region_cells(self) -> int:
        if self._state is None or not self.metric.euclidean:
            return 0
        return self._state.alive.alive_count()

    def monitored_area(self) -> float:
        """Exact area of the monitored region as a fraction of the space
        (only defined for k = 1, Euclidean — network mode monitors the
        whole space)."""
        if self._state is None or not self.metric.euclidean:
            return 1.0
        polygon = self._state.alive.region_polygon()
        return polygon.area() / self.grid.extent.area
