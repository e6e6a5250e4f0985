"""The executor adapter shared by both IGERN flavours.

:class:`IGERNQuery` drives one IGERN core — the bisector-pruned
Euclidean one (:mod:`repro.core.mono`, :mod:`repro.core.bi`) or the
filter-and-refine network one (:mod:`repro.core.network`) — through the
engine's :class:`~repro.queries.base.ContinuousQuery` interface.
:class:`~repro.queries.igern_mono.IGERNMonoQuery` and
:class:`~repro.queries.igern_bi.IGERNBiQuery` differ only in the core
they build and the safe-region lease they derive.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Hashable, Optional

from repro.core.state import StepReport
from repro.grid.index import GridIndex
from repro.metric import EUCLIDEAN, Metric
from repro.queries.base import ContinuousQuery, QueryFootprint, QueryPosition


class IGERNQuery(ContinuousQuery):
    """Continuous R(k)NN query evaluated with an IGERN core.

    ``metric`` selects the distance backend (``repro.metric``): the
    default Euclidean metric runs the bisector-pruned core; a network
    metric the filter-and-refine core, whose witness semantics — strict
    ``<``, equidistant objects never disqualify — match the paper's
    under the road-network distance.  Subclasses build the core into
    ``self._algo`` and derive its lease in :meth:`_lease`.
    """

    #: Flipped on by the engine in lease mode: every evaluation then
    #: derives a safe-region answer lease onto its report
    #: (:mod:`repro.leases`; Euclidean only, like footprints).
    lease_enabled = False

    def __init__(
        self, grid: GridIndex, position: QueryPosition, metric: Optional[Metric]
    ):
        super().__init__(grid, position)
        self.metric = EUCLIDEAN if metric is None else metric
        self.search.metric = self.metric
        self._algo = None
        self._state = None
        self._last_report: Optional[StepReport] = None
        #: Set by :meth:`skip_tick`: the next :attr:`last_report` read
        #: returns a carried copy of the last evaluation's report.
        self._carried = False

    @abc.abstractmethod
    def _lease(self):
        """The safe-region lease of the current (Euclidean) state."""

    @property
    def k(self) -> int:
        return self._algo.k

    def bind_shared_context(self, context) -> None:
        self._algo.shared_context = context

    def bind_cost_recorder(self, cost) -> None:
        self._algo.cost = cost

    def initial(self) -> FrozenSet[Hashable]:
        # Network metrics mark tick boundaries on their network's memos
        # (no-op for Euclidean).
        self.metric.observe_grid(self.grid)
        self._state, report = self._algo.initial(self.position.current())
        return self._publish(report)

    def tick(self) -> FrozenSet[Hashable]:
        if self._state is None:
            return self.initial()
        self.metric.observe_grid(self.grid)
        report = self._algo.incremental(self._state, self.position.current())
        return self._publish(report)

    def _publish(self, report: StepReport) -> FrozenSet[Hashable]:
        if self.lease_enabled and self.metric.euclidean:
            report.lease = self._lease()
        self._last_report = report
        self._carried = False
        self._answer = report.answer
        return report.answer

    @property
    def last_report(self) -> Optional[StepReport]:
        """The report of the last step; after a skipped tick, a zero-ops
        :meth:`StepReport.carried` copy, made on the first read."""
        if self._carried:
            self._carried = False
            if self._last_report is not None:
                self._last_report = self._last_report.carried()
        return self._last_report

    def footprint(self) -> "QueryFootprint | None":
        """Monitored cells (alive region + witness balls) and objects
        (the monitored set, the query object itself, and the witnesses
        of the monochromatic candidates' certificates).

        ``None`` until the initial step ran, and whenever the monitored
        region is momentarily too large for a bounded footprint (the
        executor then takes the unbounded search path).  Network-metric
        queries always return ``None``: without a pruned region every
        object is a candidate, so any mover anywhere can change the
        answer and must dispatch the query.  (Witness balls are bounded:
        ``d_E <= d_N`` keeps each inside its padded Euclidean ball.)
        """
        if not self.metric.euclidean:
            return None
        state = self._state
        if state is None:
            return None
        cells = state.footprint_cells(self.grid)
        if cells is None:
            return None
        objects = set(state.monitored)
        objects.update(state.certificate_witnesses())
        if self.position.query_id is not None:
            objects.add(self.position.query_id)
        return QueryFootprint(cells=frozenset(cells), objects=frozenset(objects))

    def skip_tick(self):
        self._carried = True
        return self._answer

    @property
    def monitored_count(self) -> int:
        return len(self._state.monitored) if self._state is not None else 0

    @property
    def monitored_region_cells(self) -> int:
        """The ``alive_cells`` the last step's report counted from the
        region it left (nothing changes the region between steps); 0
        before the first step and under a network metric."""
        report = self._last_report
        return report.alive_cells if report is not None else 0

    def monitored_area(self) -> float:
        """Exact area of the monitored region as a fraction of the space
        (the convex intersection of the monitored bisectors; only defined
        for k = 1, Euclidean — network mode monitors the whole space)."""
        if self._state is None or not self.metric.euclidean:
            return 1.0
        polygon = self._state.alive.region_polygon()
        return polygon.area() / self.grid.extent.area
