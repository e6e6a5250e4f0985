"""Per-query, per-phase cost attribution: the tick cost ledger.

The ledger is the engine's one timing source.  Every tick produces one
:class:`TickRecord` holding

- timed :class:`Entry` rows — the tick, its movement, footprint
  matching and dispatch, each evaluated query's wall, and that query's
  algorithm phases — all read from one clock (the simulator's), so a
  phase entry lies inside its query's entry and a query entry inside
  its tick;
- one :class:`QueryTickCost` per (non-paused) registered query of each
  simulator filing into the ledger: wall time, per-phase totals, search
  counters, and *why* the scheduler decided to evaluate or skip it, as a
  machine-readable reason code.  Simulators sharing a ledger and a query
  name each file their own row.

The entries feed the ``--trace`` JSON lines, the Chrome trace and the
``igern obs`` span table (:mod:`repro.obs.export`); the cost rows feed
``igern obs explain``.

Entry names (the complete vocabulary, also in ``docs/OBSERVABILITY.md``):
the engine-level :data:`TICK`, :data:`MOVEMENT`, :data:`MATCHING`,
:data:`DISPATCH` and :data:`QUERY`, and per-query phases named
``<algorithm>.<step>.<phase>`` (``mono.incremental.verify``) or
``<baseline>.<step>`` (``crnn.pies``), plus :data:`FOOTPRINT`.  A
phase's last dotted component (``verify``) keys
:attr:`QueryTickCost.phases`.

Decision reasons (the complete vocabulary, also in
``docs/OBSERVABILITY.md``):

========================  ============================================
``delta-disjoint``        skipped: the tick's grid delta touched neither
                          the query's footprint cells nor its objects
``initial``               evaluated: the query's very first execution
``resume-forced``         evaluated: first tick after ``resume_query``
                          (footprint evidence is stale by construction)
``footprint-enter``       evaluated: an object moved within / entered /
                          left one of the query's footprint cells
``object-moved``          evaluated: a monitored object (or the query
                          object itself) moved, entered, or left
``footprint-hit``         evaluated: footprint matched the delta but the
                          cheap matcher ran (ledger was enabled mid-run),
                          so cell/object attribution is unavailable
``no-footprint``          evaluated: the query registers no bounded
                          footprint (snapshot baseline, unbounded region)
``scheduler-off``         evaluated: the simulator runs without a tick
                          scheduler — everything evaluates every tick
========================  ============================================

The ledger is **off by default**.  Its disabled footprint inside the
engine is one ``is None``/``enabled`` check per tick plus a handful of
no-op phase calls per query execution (:func:`phase` returns a shared
no-op context manager); the enabled cost is bounded by
``benchmarks/test_obs_overhead.py``.  A process-global instance
(:func:`get_ledger`) is shared by every simulator unless one is
injected explicitly.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

#: Decision labels.
EVALUATED = "evaluated"
SKIPPED = "skipped"

#: Reason codes (see the module docstring for semantics).
REASON_DELTA_DISJOINT = "delta-disjoint"
REASON_INITIAL = "initial"
REASON_RESUME_FORCED = "resume-forced"
REASON_FOOTPRINT_ENTER = "footprint-enter"
REASON_OBJECT_MOVED = "object-moved"
REASON_FOOTPRINT_HIT = "footprint-hit"
REASON_NO_FOOTPRINT = "no-footprint"
REASON_SCHEDULER_OFF = "scheduler-off"
#: Lease-mode codes: a skip justified by a held safe-region lease, an
#: evaluation forced by a lease that stopped holding, and an evaluation
#: of a lease-capable query that had no lease to consult.
REASON_LEASE_HELD = "lease-held"
REASON_LEASE_BROKEN = "lease-broken"
REASON_LEASE_NONE = "lease-none"

#: Engine-level entry names: the whole tick, applying movement to the
#: grid, footprint matching, dispatch glue, and one query's evaluation.
TICK = "engine.tick"
MOVEMENT = "engine.movement"
MATCHING = "engine.matching"
DISPATCH = "engine.dispatch"
QUERY = "engine.query"
#: The footprint re-registration after an evaluation, a query phase.
FOOTPRINT = "engine.footprint"

#: Engine-level entry name -> the :class:`TickRecord` total it adds to.
_TOTALS = {
    TICK: "total_time",
    MOVEMENT: "movement_time",
    MATCHING: "scheduler_time",
    DISPATCH: "dispatch_time",
}


class Entry(NamedTuple):
    """One timed piece of a tick, in the simulator clock's seconds.

    ``query`` names the query an evaluation or phase entry belongs to
    (``None`` for engine-level entries).
    """

    name: str
    query: Optional[str]
    tick: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class QueryTickCost:
    """Everything one tick spent on (or saved for) one query.

    ``wall_time`` covers the executor call *plus* the footprint
    re-registration that follows it — the full engine-side cost of having
    evaluated the query — so per-query walls plus the movement time add
    up to (nearly) the whole tick.  ``phases`` maps algorithm phase names
    (``rebuild`` / ``tighten`` / ``prune`` / ``verify`` / ``footprint``)
    to seconds; the gap to ``wall_time`` is loop glue and shows up in
    :meth:`unattributed` rather than being smeared over the phases.
    """

    query: str
    tick: int
    decision: str  # EVALUATED | SKIPPED
    reason: str
    wall_time: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    search_calls: int = 0
    cells_visited: int = 0
    objects_examined: int = 0
    witness_probes: int = 0
    #: Candidates verified without a probe: a witness certificate held,
    #: or a network answer's ball saw no entry (``SearchStats.certified``).
    certified: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    exact_fallbacks: int = 0
    #: Columnar-store rows this query's kernels scanned (slice gathers and
    #: their tiny-bucket scalar fallbacks; zero on the mapping backend).
    store_rows: int = 0
    answer_size: int = 0
    monitored: int = 0
    #: The phase entries :func:`phase` timed, filed into the tick record
    #: by :meth:`QueryCostLedger.record`.
    entries: List[Entry] = field(default_factory=list, repr=False)
    #: The clock :func:`phase` reads: the simulator's, bound when it
    #: opens the row, so phases share the timeline of their query.
    clock: Callable[[], float] = field(
        default=time.perf_counter, repr=False, compare=False
    )

    def absorb_ops(self, ops: Dict[str, int]) -> None:
        """Fold a ``diff_ops``-style search-counter delta into this cost."""
        for key, amount in ops.items():
            if not amount:
                continue
            if key.startswith("calls_"):
                self.search_calls += amount
            elif key.startswith("cells_"):
                self.cells_visited += amount
            elif key.startswith("objects_"):
                self.objects_examined += amount
            elif key == "witness_probes":
                self.witness_probes += amount
            elif key == "certified":
                self.certified += amount

    def phase_total(self) -> float:
        return sum(self.phases.values())

    def unattributed(self) -> float:
        """Wall time not claimed by any phase (engine glue, dispatch)."""
        return max(0.0, self.wall_time - self.phase_total())


class _PhaseTimer:
    """Context manager timing one phase entry into a cost row."""

    __slots__ = ("_cost", "_name", "_start")

    def __init__(self, cost: QueryTickCost, name: str):
        self._cost = cost
        self._name = name

    def __enter__(self) -> "_PhaseTimer":
        self._start = self._cost.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        cost = self._cost
        end = cost.clock()
        name = self._name
        key = name.rpartition(".")[2]
        phases = cost.phases
        phases[key] = phases.get(key, 0.0) + (end - self._start)
        cost.entries.append(Entry(name, cost.query, cost.tick, self._start, end))
        return False


_NO_PHASE = contextlib.nullcontext()


def phase(cost: Optional[QueryTickCost], name: str):
    """Time phase ``name`` into ``cost``; a no-op when ``cost`` is None.

    The disabled path (no cost row bound — the overwhelmingly common
    case) returns one shared no-op context manager, so instrumented call
    sites cost one function call and one ``is None`` check.
    """
    if cost is None:
        return _NO_PHASE
    return _PhaseTimer(cost, name)


@dataclass
class TickRecord:
    """The ledger's view of one tick: its timed entries, every query's
    cost, and tick totals.

    The totals are sums of the engine-level entries: ``total_time`` of
    :data:`TICK` (``None`` for execution outside :meth:`Simulator.step`,
    e.g. the tick-0 initial pass, where no enclosing measurement
    exists), ``movement_time`` of :data:`MOVEMENT`, and so on.
    """

    tick: int
    #: Every query cost row filed for the tick, in filing order (one per
    #: query and simulator).
    costs: List[QueryTickCost] = field(default_factory=list)
    total_time: Optional[float] = None
    movement_time: float = 0.0
    #: Footprint matching: the scheduler's reason-annotated affected-set
    #: computation for this tick.
    scheduler_time: float = 0.0
    #: Engine dispatch: deciding who runs, batch ordering, and the
    #: skip-path bookkeeping (carried answers, counters, skip records).
    dispatch_time: float = 0.0
    #: Every timed entry of the tick, in the order they were filed.
    entries: List[Entry] = field(default_factory=list)

    @property
    def started(self) -> float:
        """The earliest entry's start: the record's timeline anchor."""
        return min((e.start for e in self.entries), default=0.0)

    def evaluated(self) -> List[QueryTickCost]:
        return [c for c in self.costs if c.decision == EVALUATED]

    def skipped(self) -> List[QueryTickCost]:
        return [c for c in self.costs if c.decision == SKIPPED]

    def rows(self, query: str) -> List[QueryTickCost]:
        """The cost rows filed for one query name at this tick."""
        return [c for c in self.costs if c.query == query]

    def top(self, n: int = 5) -> List[QueryTickCost]:
        """The ``n`` most expensive query executions, deterministically
        ordered (wall time descending, then name)."""
        ranked = sorted(
            self.evaluated(), key=lambda c: (-c.wall_time, c.query)
        )
        return ranked[:n]

    def attributed_time(self) -> float:
        """The explained tick time: movement, footprint matching, engine
        dispatch, and every per-query wall."""
        return (
            self.movement_time
            + self.scheduler_time
            + self.dispatch_time
            + sum(c.wall_time for c in self.costs)
        )

    def attributed_fraction(self) -> Optional[float]:
        """Explained share of the measured tick wall (``None`` untimed)."""
        if self.total_time is None or self.total_time <= 0.0:
            return None
        return self.attributed_time() / self.total_time


class QueryCostLedger:
    """Bounded ring of per-tick cost records with an explain report.

    ``enabled`` is a plain attribute the engine checks once per tick;
    :meth:`begin_tick` / :meth:`add` / :meth:`record` are called by the
    simulator, never by user code.  Sinks (:meth:`add_sink`) see every
    entry as it is filed, including those of ticks the ring has since
    dropped — the ``--trace`` writer is one.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled: bool = False
        self.capacity = capacity
        self._records: Deque[TickRecord] = deque(maxlen=capacity)
        self._by_tick: Dict[int, TickRecord] = {}
        self._current: Optional[TickRecord] = None
        self._sinks: List[Callable[[Entry], None]] = []

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._records.clear()
        self._by_tick.clear()
        self._current = None

    def add_sink(self, sink: Callable[[Entry], None]) -> None:
        """Forward every entry filed from now on to ``sink``."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Entry], None]) -> None:
        self._sinks.remove(sink)

    # -- recording (engine-facing) --------------------------------------

    def begin_tick(self, tick: int) -> TickRecord:
        """Open (or reopen) the record for ``tick`` and make it current.

        When several simulators replay the same tick numbers into one
        shared ledger (``igern obs``'s demo runs the mono and bi
        workloads back to back), they share the record: its entries and
        totals accumulate, so the attributed fraction stays a genuine
        ≤1 share.
        """
        record = self._by_tick.get(tick)
        if record is None:
            record = TickRecord(tick=tick)
            if len(self._records) == self._records.maxlen:
                evicted = self._records[0]
                self._by_tick.pop(evicted.tick, None)
            self._records.append(record)
            self._by_tick[tick] = record
        self._current = record
        return record

    def add(
        self, name: str, start: float, end: float, query: Optional[str] = None
    ) -> None:
        """File one engine-level entry under the current tick record
        (opened by :meth:`begin_tick`) and add it to its tick total."""
        record = self._current
        entry = Entry(name, query, record.tick, start, end)
        record.entries.append(entry)
        total = _TOTALS.get(name)
        if total is not None:
            setattr(record, total, (getattr(record, total) or 0.0) + (end - start))
        for sink in self._sinks:
            sink(entry)

    def record(self, cost: QueryTickCost) -> None:
        """File one query's cost row, and its phase entries, under the
        current tick record."""
        record = self._current
        if record is None or record.tick != cost.tick:
            record = self.begin_tick(cost.tick)
        record.costs.append(cost)
        record.entries.extend(cost.entries)
        for sink in self._sinks:
            for entry in cost.entries:
                sink(entry)

    # -- inspection ------------------------------------------------------

    def records(self) -> List[TickRecord]:
        """Retained tick records, oldest first."""
        return list(self._records)

    def latest(self) -> Optional[TickRecord]:
        return self._records[-1] if self._records else None

    def record_for(self, tick: int) -> Optional[TickRecord]:
        return self._by_tick.get(tick)

    def history(self, query: str) -> List[QueryTickCost]:
        """Every retained cost row of one query, oldest tick first."""
        return [c for r in self._records for c in r.rows(query)]

    def queries(self) -> List[str]:
        """Every query name appearing in the retained records, sorted."""
        names = {c.query for r in self._records for c in r.costs}
        return sorted(names)

    # -- reporting -------------------------------------------------------

    def explain(self, query: str, tick: Optional[int] = None) -> str:
        """A human-readable account of one query at one tick.

        ``tick=None`` picks the most recent retained tick on which the
        query appears.  When several simulators filed the query at that
        tick, each row is reported.  The report is the backend of
        ``igern obs explain <query> --tick N``.
        """
        if not self._records:
            return "ledger is empty (was it enabled while the workload ran?)"
        record: Optional[TickRecord] = None
        if tick is None:
            for candidate in reversed(self._records):
                if candidate.rows(query):
                    record = candidate
                    break
            if record is None:
                return (
                    f"no retained tick mentions query {query!r}"
                    f" (known queries: {', '.join(self.queries()) or 'none'})"
                )
        else:
            record = self._by_tick.get(tick)
            if record is None:
                lo = self._records[0].tick
                hi = self._records[-1].tick
                return (
                    f"tick {tick} is not retained"
                    f" (ledger holds ticks {lo}..{hi})"
                )
            if not record.rows(query):
                present = dict.fromkeys(c.query for c in record.costs)
                return (
                    f"query {query!r} has no entry at tick {tick}"
                    f" (present: {', '.join(present) or 'none'})"
                )
        out = io.StringIO()
        for cost in record.rows(query):
            self._format_row(out, record, cost)
        self._format_totals(out, record)
        return out.getvalue()

    def _format_row(self, out: io.StringIO, record: TickRecord, cost: QueryTickCost) -> None:
        out.write(
            f"query {cost.query!r} tick {record.tick} — {cost.decision}"
            f" ({cost.reason})"
        )
        if cost.decision == EVALUATED:
            out.write(f" in {_us(cost.wall_time)}\n")
            if cost.phases:
                parts = ", ".join(
                    f"{name} {_us(seconds)}"
                    for name, seconds in cost.phases.items()
                )
                out.write(
                    f"  phases: {parts}"
                    f" (unattributed {_us(cost.unattributed())})\n"
                )
            out.write(
                f"  search: {cost.search_calls} calls,"
                f" {cost.cells_visited} cells visited,"
                f" {cost.objects_examined} objects examined,"
                f" {cost.witness_probes} witness probes,"
                f" {cost.certified} certified\n"
            )
            probes = cost.shared_hits + cost.shared_misses
            if probes:
                out.write(
                    f"  shared context: {cost.shared_hits} hits /"
                    f" {cost.shared_misses} misses"
                    f" ({100.0 * cost.shared_hits / probes:.1f}% shared)\n"
                )
            if cost.exact_fallbacks:
                out.write(
                    f"  predicates: {cost.exact_fallbacks} exact"
                    f" fallback(s)\n"
                )
            if cost.store_rows:
                out.write(f"  store: {cost.store_rows} rows scanned\n")
            out.write(
                f"  answer: {cost.answer_size} object(s),"
                f" monitored {cost.monitored}\n"
            )
        else:
            out.write(
                f" — previous answer carried forward"
                f" ({cost.answer_size} object(s))\n"
            )

    def _format_totals(self, out: io.StringIO, record: TickRecord) -> None:
        n_eval = len(record.evaluated())
        n_skip = len(record.skipped())
        out.write(
            f"tick totals: {len(record.costs)} queries"
            f" ({n_eval} evaluated, {n_skip} skipped)"
        )
        if record.total_time is not None:
            out.write(
                f", tick wall {_us(record.total_time)},"
                f" movement {_us(record.movement_time)}"
            )
            if record.scheduler_time:
                out.write(f", matching {_us(record.scheduler_time)}")
            if record.dispatch_time:
                out.write(f", dispatch {_us(record.dispatch_time)}")
            fraction = record.attributed_fraction()
            if fraction is not None:
                out.write(f", attributed {100.0 * fraction:.1f}%")


def _us(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


_GLOBAL_LEDGER = QueryCostLedger()


def get_ledger() -> QueryCostLedger:
    """The process-wide default ledger, shared by every simulator."""
    return _GLOBAL_LEDGER
