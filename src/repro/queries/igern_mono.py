"""Executor adapter for monochromatic IGERN."""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional

from repro.core.mono import MonoIGERN
from repro.core.network import NetworkMonoCore
from repro.core.state import StepReport
from repro.grid.index import GridIndex
from repro.leases import derive_mono_lease
from repro.metric import EUCLIDEAN, Metric
from repro.queries.base import ContinuousQuery, QueryFootprint, QueryPosition


class IGERNMonoQuery(ContinuousQuery):
    """Continuous monochromatic R(k)NN query evaluated with IGERN.

    ``metric`` selects the distance backend (``repro.metric``): the
    default Euclidean metric runs the bisector-pruned IGERN core,
    byte-for-byte the pre-seam behavior; a network metric dispatches to
    the filter-and-refine core (``repro.core.network``), whose witness
    semantics — strict ``<``, equidistant objects never disqualify —
    match the paper's under the road-network distance.
    """

    name = "IGERN"
    flavor = "mono"
    #: Flipped on by the engine in lease mode: every evaluation then
    #: derives a safe-region answer lease onto its report
    #: (:mod:`repro.leases`; Euclidean only, like footprints).
    lease_enabled = False

    def __init__(
        self,
        grid: GridIndex,
        position: QueryPosition,
        k: int = 1,
        prune: "str | bool" = "guarded",
        metric: Optional[Metric] = None,
    ):
        super().__init__(grid, position)
        self.metric = EUCLIDEAN if metric is None else metric
        self.search.metric = self.metric
        if self.metric.euclidean:
            self._algo = MonoIGERN(
                grid,
                query_id=position.query_id,
                k=k,
                prune=prune,
                search=self.search,
                metric=metric,
            )
        else:
            self.name = "IGERN-net"
            self._algo = NetworkMonoCore(
                grid,
                self.metric,
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
            report.lease = derive_mono_lease(
                self._state, self.grid, self.k, self.position.query_id
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
            report.lease = derive_mono_lease(
                self._state, self.grid, self.k, self.position.query_id
            )
        self.last_report = report
        self._answer = report.answer
        return report.answer

    def footprint(self) -> "QueryFootprint | None":
        """Monitored cells (alive region + witness balls) and objects.

        ``None`` until the initial step ran, and whenever the monitored
        region is momentarily too large for a bounded footprint (the
        executor then takes the unbounded search path).  Network-metric
        queries always return ``None``: their witness sets have no
        bounded Euclidean footprint (a far-away object can be
        network-close), so the scheduler honestly re-evaluates every
        tick.
        """
        if not self.metric.euclidean:
            return None
        state = self._state
        if state is None:
            return None
        cells = state.footprint_cells(self.grid)
        if cells is None:
            return None
        objects = set(state.candidates)
        if self.position.query_id is not None:
            objects.add(self.position.query_id)
        return QueryFootprint(cells=frozenset(cells), objects=frozenset(objects))

    def skip_tick(self):
        if self.last_report is not None:
            self.last_report = self.last_report.carried()
        return self._answer

    @property
    def monitored_count(self) -> int:
        return len(self._state.candidates) if self._state is not None else 0

    @property
    def monitored_region_cells(self) -> int:
        if self._state is None or not self.metric.euclidean:
            return 0
        return self._state.alive.alive_count()

    def monitored_area(self) -> float:
        """Exact area of the monitored region as a fraction of the space
        (the convex intersection of the candidate bisectors; only defined
        for k = 1, Euclidean — network mode monitors the whole space)."""
        if self._state is None or not self.metric.euclidean:
            return 1.0
        polygon = self._state.alive.region_polygon()
        return polygon.area() / self.grid.extent.area
