"""Repeated snapshot evaluation (TPL-style baseline).

TPL (Tao, Papadias, Lian, VLDB 2004) is a snapshot RNN algorithm that
recursively filters the data with perpendicular bisectors between the query
and its nearest objects, then refines with NN tests.  The paper's Section 6
models its continuous use as re-running the snapshot algorithm every tick:
``L(q) = sum_t r_t * (NN_c(q_t) + NN(q_t))`` — a full constrained
filter pass plus verification pass per tick, with no state carried over.

IGERN's initial step *is* this filter-refine (the paper notes it "is
similar to the static approach TPL with the difference that we embed new
functionalities to produce a set of objects that will be monitored"), so
the baseline simply runs a stateless initial step each tick.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable

from repro.core.mono import MonoIGERN
from repro.grid.index import GridIndex
from repro.obs.ledger import phase
from repro.queries.base import ContinuousQuery, QueryPosition


class TPLQuery(ContinuousQuery):
    """Snapshot filter-refine RNN evaluation repeated every tick."""

    name = "TPL"

    def __init__(self, grid: GridIndex, position: QueryPosition, k: int = 1):
        super().__init__(grid, position)
        self._algo = MonoIGERN(
            grid,
            query_id=position.query_id,
            k=k,
            prune="off",
            search=self.search,
        )

    def initial(self) -> FrozenSet[Hashable]:
        return self.tick()

    def tick(self) -> FrozenSet[Hashable]:
        # The stateless re-run is one snapshot phase; the mono.initial
        # phases it re-executes every tick are not timed separately.
        with phase(self.cost, "tpl.snapshot"):
            _, report = self._algo.initial(self.position.current())
        self._answer = report.answer
        return self._answer
