"""Per-tick and per-query measurement records.

The paper reports, per algorithm: CPU time per tick (Figures 7a/9a),
average CPU time (6a/8a), accumulated CPU time (7b/9b), and the number of
monitored objects (6b/8b); plus grid cell changes (5a).  The engine
captures all of these, and additionally the machine-independent operation
counts of the shared NN subsystem (cells visited / objects examined per
search kind), which mirror the Section 6 analytical cost model.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Hashable, Iterator, List, Sequence


@dataclass
class TickMetrics:
    """Everything measured for one query execution at one tick."""

    tick: int
    wall_time: float
    answer: FrozenSet[Hashable]
    monitored: int
    region_cells: int
    ops: Dict[str, int] = field(default_factory=dict)
    #: True when the tick scheduler proved this tick a no-op for the
    #: query and carried its previous answer forward without executing.
    skipped: bool = False
    #: Machine-readable code for the evaluate/skip decision (see
    #: :mod:`repro.obs.ledger`), e.g. ``"delta-disjoint"`` for a skip or
    #: ``"footprint-enter"`` for an evaluation.  Empty when the engine
    #: ran without decision recording.
    reason: str = ""

    @property
    def answer_size(self) -> int:
        return len(self.answer)


class TickOutcome(Mapping):
    """What one tick did, per query: a ``Mapping[str, TickMetrics]``.

    ``evaluated`` holds the metrics of the queries that ran, in dispatch
    order; ``skipped`` maps each query the scheduler skipped to its skip
    reason, in registration order.  Iteration yields the skipped names,
    then the evaluated ones.

    A skipped query's entry is built only when someone reads it, from
    the query's last evaluated metrics as they stood when the tick ran
    (``last``, a copy taken then), so a view kept across later ticks
    still describes its own tick: the carried answer, monitored count
    and region cells, ``wall_time`` 0, no ops, ``skipped=True``.
    Readers that need only the work done read ``evaluated`` and
    ``skipped`` and never pay for those entries.  Item assignment
    replaces an entry (the fuzz harness plants wrong answers this way).
    """

    __slots__ = ("tick", "evaluated", "skipped", "_last", "_built")

    def __init__(
        self,
        tick: int,
        evaluated: Dict[str, TickMetrics],
        skipped: Dict[str, str],
        last: Dict[str, TickMetrics],
    ):
        self.tick = tick
        self.evaluated = evaluated
        self.skipped = skipped
        self._last = last
        self._built: Dict[str, TickMetrics] = {}

    def __getitem__(self, name: str) -> TickMetrics:
        metrics = self.evaluated.get(name)
        if metrics is not None:
            return metrics
        metrics = self._built.get(name)
        if metrics is None:
            reason = self.skipped[name]
            last = self._last.get(name)
            metrics = self._built[name] = TickMetrics(
                tick=self.tick,
                wall_time=0.0,
                answer=last.answer if last is not None else frozenset(),
                monitored=last.monitored if last is not None else 0,
                region_cells=last.region_cells if last is not None else 0,
                ops={},
                skipped=True,
                reason=reason,
            )
        return metrics

    def __setitem__(self, name: str, metrics: TickMetrics) -> None:
        if name in self.skipped:
            self._built[name] = metrics
        else:
            self.evaluated[name] = metrics

    def __contains__(self, name: object) -> bool:
        return name in self.evaluated or name in self.skipped

    def __iter__(self) -> Iterator[str]:
        return chain(self.skipped, self.evaluated)

    def __len__(self) -> int:
        return len(self.skipped) + len(self.evaluated)

    def __repr__(self) -> str:
        return (
            f"TickOutcome(tick={self.tick}, evaluated={list(self.evaluated)},"
            f" skipped={self.skipped})"
        )


@dataclass
class QueryLog:
    """The tick-by-tick history of one query under one algorithm."""

    name: str
    ticks: List[TickMetrics] = field(default_factory=list)

    def append(self, metrics: TickMetrics) -> None:
        self.ticks.append(metrics)

    # -- series ---------------------------------------------------------

    def times(self) -> List[float]:
        """Wall time per tick, index 0 being the initial step."""
        return [t.wall_time for t in self.ticks]

    def accumulated_times(self) -> List[float]:
        """Running total of wall time (Figures 7b / 9b)."""
        out: List[float] = []
        total = 0.0
        for t in self.ticks:
            total += t.wall_time
            out.append(total)
        return out

    def monitored_series(self) -> List[int]:
        return [t.monitored for t in self.ticks]

    def ops_series(self, key: str) -> List[int]:
        return [t.ops.get(key, 0) for t in self.ticks]

    # -- aggregates ------------------------------------------------------

    @property
    def total_time(self) -> float:
        return sum(t.wall_time for t in self.ticks)

    @property
    def avg_time(self) -> float:
        """Mean wall time across all executions (incl. the initial step)."""
        if not self.ticks:
            return 0.0
        return self.total_time / len(self.ticks)

    @property
    def avg_incremental_time(self) -> float:
        """Mean wall time of the incremental executions only."""
        tail = self.ticks[1:]
        if not tail:
            return 0.0
        return sum(t.wall_time for t in tail) / len(tail)

    @property
    def avg_monitored(self) -> float:
        """Mean monitored-object count (Figure 6b reports ~3.5 for IGERN)."""
        if not self.ticks:
            return 0.0
        return sum(t.monitored for t in self.ticks) / len(self.ticks)

    @property
    def evaluated_count(self) -> int:
        """Ticks on which the query actually executed."""
        return sum(1 for t in self.ticks if not t.skipped)

    @property
    def skipped_count(self) -> int:
        """Ticks the scheduler skipped (answer carried forward)."""
        return sum(1 for t in self.ticks if t.skipped)

    def total_ops(self, key: str) -> int:
        return sum(t.ops.get(key, 0) for t in self.ticks)

    def ops_total(self) -> Dict[str, int]:
        """Every operation counter summed across all ticks.

        The keyless companion of :meth:`total_ops`: callers get the whole
        accumulated dict without having to know each counter name up
        front.
        """
        out: Dict[str, int] = {}
        for t in self.ticks:
            for key, value in t.ops.items():
                out[key] = out.get(key, 0) + value
        return out


@dataclass
class SimulationResult:
    """Outcome of one simulator run: one log per query plus grid stats."""

    logs: Dict[str, QueryLog] = field(default_factory=dict)
    cell_changes: int = 0
    updates: int = 0
    n_ticks: int = 0

    def __getitem__(self, name: str) -> QueryLog:
        return self.logs[name]

    def names(self) -> Sequence[str]:
        return list(self.logs)

    @property
    def queries_evaluated(self) -> int:
        """Query executions actually performed across the whole run."""
        return sum(log.evaluated_count for log in self.logs.values())

    @property
    def queries_skipped(self) -> int:
        """Query executions the tick scheduler proved unnecessary."""
        return sum(log.skipped_count for log in self.logs.values())


def diff_ops(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Operation-count delta between two :class:`SearchStats` snapshots.

    Iterates the key *union*: a counter present only in ``before`` (e.g.
    after a stats reset swapped in a narrower snapshot) still contributes
    its (negative) delta instead of being silently dropped.
    """
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in {**before, **after}
    }
