"""Executor adapter for monochromatic IGERN."""

from __future__ import annotations

from typing import Optional

from repro.core.mono import MonoIGERN
from repro.core.network import NetworkCore
from repro.grid.index import GridIndex
from repro.leases import derive_mono_lease
from repro.metric import Metric
from repro.queries.base import QueryPosition
from repro.queries.igern import IGERNQuery


class IGERNMonoQuery(IGERNQuery):
    """Continuous monochromatic R(k)NN query evaluated with IGERN."""

    name = "IGERN"
    flavor = "mono"

    def __init__(
        self,
        grid: GridIndex,
        position: QueryPosition,
        k: int = 1,
        prune: str = "guarded",
        metric: Optional[Metric] = None,
    ):
        super().__init__(grid, position, metric)
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
            self._algo = NetworkCore(
                grid,
                self.metric,
                query_id=position.query_id,
                k=k,
                search=self.search,
            )

    def _lease(self):
        return derive_mono_lease(
            self._state, self.grid, self.k, self.position.query_id
        )
