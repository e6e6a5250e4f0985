"""The uniform continuous-query interface driven by the engine.

Every algorithm — IGERN and all baselines — exposes the same three-method
surface: ``initial()`` once at query registration time, ``tick()`` every
``T`` time units afterwards, and introspection properties used by the
metric collector.  That mirrors the paper's experimental setup, where all
approaches answer the same query over the same update stream and only the
evaluation machinery differs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet, Hashable, Optional, Union

from repro.geometry.point import Point
from repro.grid.cell import CellKey
from repro.grid.index import GridIndex, ObjectId
from repro.grid.search import GridSearch


@dataclass(frozen=True)
class QueryFootprint:
    """A query's relevance footprint: what this tick's answer depends on.

    The contract (see ``docs/PERFORMANCE.md``): between two executions a
    query's answer can only change if at least one of these happened —

    - an object in ``objects`` moved, was removed, or re-entered (the
      query object itself, the monitored candidates / A-neighbors);
    - any object moved *within*, entered, or left one of ``cells`` (the
      monitored alive region plus the verification witness balls, at grid
      granularity).

    A footprint must therefore be *conservative*: over-covering cells
    only costs skipped opportunities, while under-covering breaks answer
    identity.  Executors that cannot bound their dependencies (snapshot
    baselines recomputing from the whole population) return ``None`` from
    :meth:`ContinuousQuery.footprint` and are re-evaluated every tick.
    """

    cells: FrozenSet[CellKey]
    objects: FrozenSet[ObjectId]


class QueryPosition:
    """Where the query is *right now*.

    Continuous queries are themselves issued by moving objects: the mixed
    reality player monitoring her RNNs, the medical unit in the battlefield.
    ``QueryPosition`` resolves the current query location either from a
    moving object in the grid (``query_id``) or from a fixed point
    (``fixed``).
    """

    def __init__(
        self,
        grid: GridIndex,
        query_id: Optional[ObjectId] = None,
        fixed: Optional[Union[Point, tuple]] = None,
    ):
        if (query_id is None) == (fixed is None):
            raise ValueError("provide exactly one of query_id or fixed")
        self._grid = grid
        self.query_id = query_id
        if fixed is not None:
            x, y = fixed
            self._fixed: Optional[Point] = Point(x, y)
        else:
            self._fixed = None

    def current(self) -> Point:
        """The query's position at this instant."""
        if self._fixed is not None:
            return self._fixed
        return self._grid.position(self.query_id)

    @property
    def fixed_point(self) -> Optional[Point]:
        """The pinned position, or ``None`` for a moving query."""
        return self._fixed


class ContinuousQuery(abc.ABC):
    """Base class for all continuous RNN query executors."""

    #: Short algorithm label used in reports ("IGERN", "CRNN", ...).
    name: str = "?"

    #: ``"mono"`` / ``"bi"`` for IGERN executors, ``None`` for baselines.
    #: The flight recorder uses this to rebuild an equivalent fuzz
    #: scenario from a live simulator.
    flavor: "Optional[str]" = None

    def __init__(self, grid: GridIndex, position: QueryPosition):
        self.grid = grid
        self.position = position
        self.search = GridSearch(grid)
        self._answer: FrozenSet[Hashable] = frozenset()
        #: The tick's :class:`repro.obs.ledger.QueryTickCost` while the
        #: engine evaluates this query with the ledger on, else ``None``.
        self.cost = None

    @abc.abstractmethod
    def initial(self) -> FrozenSet[Hashable]:
        """Compute the first answer (executed once, at query issue time)."""

    @abc.abstractmethod
    def tick(self) -> FrozenSet[Hashable]:
        """Re-evaluate after one time interval of movement."""

    def bind_shared_context(self, context) -> None:
        """Attach the tick's shared-execution context (or ``None``).

        Called by the batch executor before evaluating this query so its
        grid probes route through the per-tick memos of
        :class:`repro.grid.context.SharedTickContext`.  The default is a
        no-op: baselines without cache-aware probe paths simply evaluate
        cold, which is always correct.
        """

    def bind_cost_recorder(self, cost) -> None:
        """Attach (or detach, with ``None``) the tick's cost record.

        Called by the engine around each evaluation when the per-query
        cost ledger is enabled, so algorithm internals can time their
        phases into the active :class:`repro.obs.ledger.QueryTickCost`
        with :func:`repro.obs.ledger.phase`.  The default keeps it on
        :attr:`cost`.
        """
        self.cost = cost

    def footprint(self) -> Optional[QueryFootprint]:
        """The cells and objects this query's next answer depends on.

        ``None`` (the default) means the dependency set is unbounded and
        the query must be re-evaluated every tick — correct for snapshot
        baselines that recompute from the full population.  Stateful
        monitors override this with their monitored region and object
        set; see :class:`QueryFootprint` for the exact contract.
        """
        return None

    def skip_tick(self) -> FrozenSet[Hashable]:
        """Account for a tick the engine proved to be a no-op.

        Called by the scheduler *instead of* :meth:`tick` when nothing in
        the query's footprint changed; carries the previous answer
        forward.  Executors with per-step reports override this to also
        record a zero-ops step.
        """
        return self._answer

    @property
    def answer(self) -> FrozenSet[Hashable]:
        """The most recent answer."""
        return self._answer

    @property
    def monitored_count(self) -> int:
        """How many moving objects the executor currently monitors.

        Snapshot algorithms monitor nothing between executions; stateful
        monitors override this.
        """
        return 0

    @property
    def monitored_region_cells(self) -> int:
        """Size (in cells) of the monitored region, 0 for snapshot methods."""
        return 0
