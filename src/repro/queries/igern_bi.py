"""Executor adapter for bichromatic IGERN."""

from __future__ import annotations

from typing import Optional

from repro.core.bi import BiIGERN
from repro.core.network import NetworkCore
from repro.grid.index import Category, GridIndex
from repro.leases import derive_bi_lease
from repro.metric import Metric
from repro.queries.base import QueryPosition
from repro.queries.igern import IGERNQuery


class IGERNBiQuery(IGERNQuery):
    """Continuous bichromatic RNN query evaluated with IGERN.

    The query is of type ``cat_a``; the answer consists of ``cat_b``
    objects whose nearest A object is the query.
    """

    name = "IGERN-bi"
    flavor = "bi"

    def __init__(
        self,
        grid: GridIndex,
        position: QueryPosition,
        cat_a: Category = "A",
        cat_b: Category = "B",
        k: int = 1,
        prune: str = "guarded",
        metric: Optional[Metric] = None,
    ):
        super().__init__(grid, position, metric)
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
            self._algo = NetworkCore(
                grid,
                self.metric,
                cat_a=cat_a,
                cat_b=cat_b,
                query_id=position.query_id,
                k=k,
                search=self.search,
            )

    def _lease(self):
        return derive_bi_lease(
            self._state,
            self.grid,
            self._algo.cat_a,
            self._algo.cat_b,
            self.k,
            self.position.query_id,
        )
