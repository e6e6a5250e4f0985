"""The tick-driven simulator.

One :class:`Simulator` owns a grid index populated from a motion generator
and a set of registered continuous queries.  Each call to :meth:`run`
advances the workload tick by tick: the generator's updates are applied to
the grid, then every query executes its incremental step and gets measured.
All queries see the *same* update stream, which is how the paper compares
algorithms fairly.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from typing import Callable, Dict, Mapping, Optional, Set, Tuple

from repro.engine.batch import BatchExecutor
from repro.engine.metrics import (
    QueryLog,
    SimulationResult,
    TickMetrics,
    TickOutcome,
    diff_ops,
)
from repro.engine.scheduler import TickScheduler
from repro.geometry import predicates
from repro.grid.delta import TickDelta
from repro.grid.index import GridIndex
from repro.grid.store import STATS as STORE_STATS
from repro.metric import STATS as METRIC_STATS
from repro.obs.flight import FlightRecorder, TickDigest
from repro.leases import LeaseState
from repro.obs.ledger import (
    DISPATCH,
    EVALUATED,
    FOOTPRINT,
    MATCHING,
    MOVEMENT,
    QUERY,
    REASON_DELTA_DISJOINT,
    REASON_FOOTPRINT_HIT,
    REASON_INITIAL,
    REASON_LEASE_BROKEN,
    REASON_LEASE_HELD,
    REASON_LEASE_NONE,
    REASON_NO_FOOTPRINT,
    REASON_RESUME_FORCED,
    REASON_SCHEDULER_OFF,
    SKIPPED,
    TICK,
    QueryCostLedger,
    QueryTickCost,
    get_ledger,
    phase,
)
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    active_registry,
    record_ops_delta,
)
from repro.queries.base import ContinuousQuery

logger = logging.getLogger(__name__)

#: Process-global work counters a simulator mirrors into its registry:
#: ``(registry counter, stats singleton, attribute)``.
_MIRRORED = (
    ("predicate_filter_hits_total", predicates.STATS, "filter_hits"),
    ("predicate_exact_fallbacks_total", predicates.STATS, "exact_fallbacks"),
    ("store_rows_scanned_total", STORE_STATS, "rows_scanned"),
    ("store_vectorized_filter_rows_total", STORE_STATS, "filter_rows"),
    ("store_exact_fallback_rows_total", STORE_STATS, "exact_rows"),
    ("network_dijkstra_runs_total", METRIC_STATS, "dijkstra_runs"),
    ("network_dijkstra_expansions_total", METRIC_STATS, "dijkstra_expansions"),
    ("network_distance_cache_hits_total", METRIC_STATS, "cache_hits"),
    ("network_distance_cache_misses_total", METRIC_STATS, "cache_misses"),
)


def _work_counts() -> list:
    return [getattr(stats, attr) for _name, stats, attr in _MIRRORED]


class Simulator:
    """Drives moving objects and continuous queries over shared time.

    Parameters
    ----------
    generator:
        Any object with ``initial()`` (yielding ``(oid, pos, category)``)
        and ``step(dt)`` (yielding ``(oid, new_pos)`` updates) — the
        network generator, the unconstrained generators, or a replayed
        :class:`repro.motion.trace.Trace`.
    grid_size:
        Cells per axis of the grid index.
    dt:
        Simulated duration of one tick, forwarded to the generator.
    clock:
        Time source for the per-tick wall measurements and every cost
        ledger entry of this simulator's ticks (injectable for
        deterministic tests).
    extent:
        Data space of the grid index (defaults to the unit square, the
        coordinate system of the bundled generators).  The caller is
        responsible for feeding a generator whose positions live in it.
    registry:
        Metrics registry to publish per-tick counters, gauges and
        histograms into.  Defaults to the *active* registry of
        :mod:`repro.obs.metrics` (``None`` unless observability is
        enabled, in which case publishing is skipped entirely).
    scheduler:
        When ``True`` (the default), movement is applied as one batched
        grid update per tick and a :class:`TickScheduler` intersects the
        resulting delta with each query's relevance footprint, executing
        only the affected queries; the rest carry their previous answer
        forward at zero cost.  Answers are identical either way — the
        skip test is conservative — so ``False`` exists for A/B
        measurements and as the oracle in the correctness suite.
    batch:
        When ``True`` (the default), the queries evaluated in one tick
        share their witness and nearest probes through a per-tick
        :class:`~repro.grid.context.SharedTickContext`, grouped and
        ordered by footprint overlap (:class:`BatchExecutor`).  Answers
        are bit-identical to ``batch=False`` — memo reuse only skips
        provably redundant searches — so ``False`` preserves the pre-batch
        execution path for A/B measurements and lockstep checks.
        Requires the scheduler (silently off when ``scheduler=False``, so
        the oracle configurations of the correctness suite stay fully
        cold).
    ledger:
        Per-query cost ledger (:class:`repro.obs.ledger.QueryCostLedger`).
        ``None`` (the default) attaches the process-global ledger —
        recording only happens while that ledger is *enabled*, so the
        default costs one attribute check per tick.  ``False`` detaches
        cost attribution entirely; an explicit instance scopes the
        records to this simulator.
    flight:
        Tick flight recorder (:class:`repro.obs.flight.FlightRecorder`).
        ``True`` (the default) attaches a fresh recorder when the
        scheduler is on — always-on tick digests plus anomaly-triggered
        replayable incident bundles.  ``False`` disables it; an explicit
        instance allows tuned thresholds or an incident directory.
    store:
        Storage backend of the grid index: ``"columnar"`` (the default
        struct-of-arrays layout with vectorized cell kernels) or
        ``"mapping"`` (the dict-backed reference layout).  Answers are
        bit-identical; the fuzz harness runs both in lockstep.
    lease:
        When ``True``, lease-capable queries derive a safe-region answer
        lease (:mod:`repro.leases`) at every evaluation, and the engine
        skips their ticks — including footprint-affected ones — while
        the lease verifiably holds under the tick's displacement
        accounting.  Answers stay bit-identical (the lease is a sound
        certificate; the fuzz harness validates it against the brute
        oracle).  Off by default: lease derivation costs an extra
        distance pass per evaluation, so the committed benchmark
        baselines keep their cost profile.  Requires the scheduler.
    """

    def __init__(
        self,
        generator,
        grid_size: int = 64,
        dt: float = 1.0,
        clock: Callable[[], float] = time.perf_counter,
        extent=None,
        registry: Optional[MetricsRegistry] = None,
        scheduler: bool = True,
        batch: bool = True,
        ledger: "Optional[QueryCostLedger | bool]" = None,
        flight: "bool | FlightRecorder" = True,
        store: str = "columnar",
        lease: bool = False,
    ):
        self.generator = generator
        self.dt = dt
        self.clock = clock
        self.registry = registry if registry is not None else active_registry()
        self.grid = GridIndex(grid_size, extent=extent, store=store)
        for oid, pos, category in generator.initial():
            self.grid.insert(oid, pos, category)
        self._queries: Dict[str, ContinuousQuery] = {}
        self._started: Dict[str, bool] = {}
        self._paused: set = set()
        self.scheduler: Optional[TickScheduler] = (
            TickScheduler() if scheduler else None
        )
        #: Safe-region lease mode (requires the scheduler's delta path).
        self.lease_mode: bool = bool(lease and scheduler)
        #: Lifetime lease outcomes (mirrored into the registry as
        #: ``lease_issued_total`` / ``lease_held_total`` /
        #: ``lease_broken_total`` plus the ``lease_hold_ratio`` gauge).
        self.leases_issued = 0
        self.leases_held = 0
        self.leases_broken = 0
        self.batch: Optional[BatchExecutor] = (
            BatchExecutor(self.grid) if batch and scheduler else None
        )
        if ledger is None:
            self.ledger: Optional[QueryCostLedger] = get_ledger()
        elif ledger is False:
            self.ledger = None
        else:
            self.ledger = ledger
        if flight is True:
            self.flight: Optional[FlightRecorder] = (
                FlightRecorder() if scheduler else None
            )
        elif not flight:
            self.flight = None
        else:
            self.flight = flight
        #: The last tick's raw movement events ``(moves, inserts,
        #: removes)`` — kept by reference for the flight recorder's
        #: replay window (``None`` on the scheduler-off path).
        self._last_events: Optional[tuple] = None
        #: Running shared-probe totals (mirrored into the registry as
        #: ``batch_probe_hits_total`` / ``batch_probe_misses_total``).
        self.batch_probe_hits = 0
        self.batch_probe_misses = 0
        #: Names that must be evaluated at their next tick regardless of
        #: the delta (freshly resumed queries missed triggers while
        #: paused, so their footprints are stale).
        self._force_eval: set = set()
        #: Each query's last *evaluated* metrics; a skipped tick's entry
        #: is built from these only when read (:class:`TickOutcome`).
        self._last_metrics: Dict[str, TickMetrics] = {}
        #: ``ticks_skipped_total`` handles per ``(query, reason)``, valid
        #: while the registry and its generation match ``_skip_stamp``.
        self._skip_counters: Dict[Tuple[str, str], Counter] = {}
        self._skip_stamp: Optional[tuple] = None
        #: Running totals for quick introspection (mirrored into the
        #: metrics registry as ``queries_evaluated_total`` /
        #: ``ticks_skipped_total`` when one is active).
        self.queries_evaluated = 0
        self.ticks_skipped = 0
        self.current_tick = 0
        #: Set to the tick number when an exception escapes mid-
        #: :meth:`step` (movement possibly applied, scheduler/lease/
        #: ledger state stale); cleared by the next successfully
        #: completed step.  See :meth:`_poison_tick`.
        self.poisoned_tick: Optional[int] = None
        #: Values of the process-global work counters (:data:`_MIRRORED`)
        #: when this simulator's current step began, so the registry
        #: receives only the work this simulator did (``None`` between
        #: steps).
        self._work_base: Optional[list] = None
        #: This simulator's share of the network distance-map requests,
        #: for the lifetime sharing-ratio gauge.
        self.network_cache_hits = 0
        self.network_cache_misses = 0

    # ------------------------------------------------------------------
    # Query registration
    # ------------------------------------------------------------------

    def add_query(self, name: str, query: ContinuousQuery) -> ContinuousQuery:
        """Register a continuous query under a report name."""
        if name in self._queries:
            raise KeyError(f"query name {name!r} already registered")
        if query.grid is not self.grid:
            raise ValueError(
                f"query {name!r} was built over a different grid index"
            )
        self._queries[name] = query
        self._started[name] = False
        if self.lease_mode and hasattr(query, "lease_enabled"):
            query.lease_enabled = True
        logger.debug(
            "registered query %r (%s) at tick %d", name, query.name, self.current_tick
        )
        return query

    def query(self, name: str) -> ContinuousQuery:
        return self._queries[name]

    def query_names(self):
        """Names of all registered queries."""
        return list(self._queries)

    def remove_query(self, name: str) -> ContinuousQuery:
        """Deregister a continuous query; returns the executor."""
        query = self._queries.pop(name)
        self._started.pop(name, None)
        self._paused.discard(name)
        self._force_eval.discard(name)
        self._last_metrics.pop(name, None)
        for key in [key for key in self._skip_counters if key[0] == name]:
            del self._skip_counters[key]
        if self.scheduler is not None:
            self.scheduler.remove_query(name)
        logger.debug("removed query %r at tick %d", name, self.current_tick)
        return query

    def pause_query(self, name: str) -> None:
        """Stop executing a query until :meth:`resume_query`.

        A paused query keeps its monitored state and resumes
        *incrementally*: the incremental step is correct from arbitrarily
        stale state, because it redraws every bisector from the current
        positions before tightening and verifying (the movement-rebuild
        path of Algorithms 2/4 makes no assumption about how far things
        moved).
        """
        if name not in self._queries:
            raise KeyError(f"no query named {name!r}")
        self._paused.add(name)
        # Pausing forcibly invalidates any safe-region lease: a paused
        # query cannot honor its publication contract, and the forced
        # post-resume evaluation issues a fresh one.
        if self.scheduler is not None and self.scheduler.drop_lease(name):
            self.leases_broken += 1
            if self.registry is not None:
                self.registry.counter("lease_broken_total", query=name).inc()
        logger.debug("paused query %r at tick %d", name, self.current_tick)

    def resume_query(self, name: str) -> None:
        """Resume a paused query (incrementally; see :meth:`pause_query`).

        The first post-resume tick is always evaluated: movement during
        the pause never consulted the query's footprint, so its previous
        skip-safety evidence is void.
        """
        if name not in self._queries:
            raise KeyError(f"no query named {name!r}")
        self._paused.discard(name)
        self._force_eval.add(name)
        logger.debug("resumed query %r at tick %d", name, self.current_tick)

    def is_paused(self, name: str) -> bool:
        return name in self._paused

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        n_ticks: int,
        on_tick: Optional[Callable[[int, "Simulator"], None]] = None,
    ) -> SimulationResult:
        """Execute the initial step plus ``n_ticks`` incremental steps.

        Tick 0 of every query log is its initial step; ticks ``1..n`` are
        incremental.  Queries registered mid-run (between ``run`` calls)
        start with their initial step at the tick they first execute.
        """
        if n_ticks < 0:
            raise ValueError(f"n_ticks must be non-negative, got {n_ticks}")
        result = SimulationResult(
            logs={name: QueryLog(name=name) for name in self._queries},
            n_ticks=n_ticks,
        )

        def record(metrics: Mapping[str, TickMetrics]) -> None:
            for name, m in metrics.items():
                if name not in result.logs:
                    result.logs[name] = QueryLog(name=name)
                result.logs[name].append(m)

        cell_changes_before = self.grid.cell_changes
        updates_before = self.grid.updates

        record(self.execute_queries())
        for _ in range(n_ticks):
            record(self.step())
            if on_tick is not None:
                on_tick(self.current_tick, self)

        result.cell_changes = self.grid.cell_changes - cell_changes_before
        result.updates = self.grid.updates - updates_before
        return result

    def step(self) -> TickOutcome:
        """Advance time by one tick: apply movement, run affected queries.

        Returns the tick's :class:`TickOutcome`, a mapping of every
        (non-paused) query to its :class:`TickMetrics`; a skipped query's
        entry is built only when read.  This is the single-tick primitive
        behind :meth:`run`, also used directly by
        :class:`repro.engine.manager.ContinuousQueryManager`.

        With the tick scheduler enabled, movement lands as one batched
        grid update whose :class:`TickDelta` is intersected with the
        registered query footprints; queries untouched by the delta take
        the zero-cost skip path in :meth:`execute_queries`.
        """
        self.current_tick += 1
        if self.registry is not None:
            self._work_base = _work_counts()
        flight = self.flight
        ledger = self.ledger
        ledger_on = ledger is not None and ledger.enabled
        if flight is not None:
            flight.before_tick(self.current_tick, self.grid)
        self._last_events = None
        clock = self.clock
        t0 = clock()
        try:
            if ledger_on:
                ledger.begin_tick(self.current_tick)
            delta = self._apply_movement()
            if ledger_on:
                ledger.add(MOVEMENT, t0, clock())
            if self.scheduler is None or delta is None:
                out = self.execute_queries()
            else:
                sched_start = clock()
                reasons = self.scheduler.affected_reasons(delta)
                run = set(reasons)
                lease_skips = None
                if self.lease_mode:
                    lease_skips = self._apply_leases(run, reasons)
                if ledger_on:
                    ledger.add(MATCHING, sched_start, clock())
                out = self.execute_queries(
                    run=run, reasons=reasons, lease_skips=lease_skips
                )
        except Exception as exc:
            self._poison_tick()
            if flight is not None:
                latency = clock() - t0
                digest = self._digest(latency, None)
                moves, inserts, removes = self._last_events or (
                    None,
                    None,
                    None,
                )
                flight.observe(digest, moves, inserts, removes)
                flight.capture(
                    self, f"exception: {type(exc).__name__}: {exc}"
                )
            raise
        end = clock()
        latency = end - t0
        self.poisoned_tick = None
        if ledger_on:
            ledger.add(TICK, t0, end)
        if flight is not None:
            digest = self._digest(latency, out)
            moves, inserts, removes = self._last_events or (None, None, None)
            anomaly = flight.observe(digest, moves, inserts, removes)
            if anomaly is not None:
                flight.capture(self, anomaly)
        return out

    def _poison_tick(self) -> None:
        """Fail-fast bookkeeping for an exception escaping mid-tick.

        By the time an evaluation (or the dispatch glue) raises, the
        tick's movement has usually already landed in the grid while
        the queries past the failure point never executed — so their
        registered footprints, answer leases, and carried answers
        describe a *pre-movement* world.  Left alone, a later
        footprint-disjoint tick would "safely" skip them and serve a
        stale answer (the half-applied-tick bug).

        The step cannot be rolled back cheaply, so it fails *observably*
        instead: the tick is marked poisoned, every outstanding lease is
        dropped (its displacement accounting missed this tick), and
        every registered query is forced to evaluate at its next tick —
        sound from arbitrarily stale state, because the incremental step
        rebuilds from current positions (see :meth:`pause_query`).
        """
        self.poisoned_tick = self.current_tick
        self._force_eval.update(self._queries)
        scheduler = self.scheduler
        registry = self.registry
        if scheduler is not None:
            for name in list(scheduler.lease_states()):
                if scheduler.drop_lease(name):
                    self.leases_broken += 1
                    if registry is not None:
                        registry.counter(
                            "lease_broken_total", query=name
                        ).inc()
        if registry is not None:
            registry.counter("ticks_poisoned_total").inc()
        logger.warning(
            "tick %d poisoned: forcing re-evaluation of %d queries",
            self.current_tick,
            len(self._queries),
        )

    def _digest(
        self, latency: float, out: Optional[TickOutcome]
    ) -> TickDigest:
        """The flight-recorder summary of the tick just executed
        (``out`` is ``None`` when the tick raised)."""
        moves, inserts, removes = self._last_events or ([], [], [])
        evaluated = out.evaluated if out is not None else {}
        top = heapq.nlargest(
            3, ((m.wall_time, name) for name, m in evaluated.items())
        )
        return TickDigest(
            tick=self.current_tick,
            latency=latency,
            evaluated=len(evaluated),
            skipped=len(out.skipped) if out is not None else 0,
            moves=len(moves),
            inserts=len(inserts),
            removes=len(removes),
            top=[(name, wall) for wall, name in top],
        )

    def _apply_movement(self) -> Optional[TickDelta]:
        """Apply one tick of generator output to the grid.

        The tick's ``(moves, inserts, removes)`` are read once, from the
        generator's ``step_events`` when it has one, else from ``step``
        (moves only).  With the scheduler on they land as one batched
        :meth:`GridIndex.apply_updates` call whose fresh
        :class:`TickDelta` is returned; in lease mode the movers'
        displacements (taken before the grid moves them) and the tick's
        churn are then charged to the active leases through
        :meth:`TickScheduler.absorb_displacements`.  With the scheduler
        off they are applied object by object and ``None`` is returned:
        that path is the fuzz oracle's ingest, so the fuzz lockstep's
        grid-sync check compares the batched path against it.
        """
        generator = self.generator
        if hasattr(generator, "step_events"):
            events = generator.step_events(self.dt)
            moves, inserts, removes = events.moves, events.inserts, events.removes
        else:
            moves, inserts, removes = generator.step(self.dt), (), ()
        grid = self.grid
        scheduler = self.scheduler
        if scheduler is None:
            for oid in removes:
                grid.remove(oid)
            for oid, pos, category in inserts:
                grid.insert(oid, pos, category)
            for oid, pos in moves:
                grid.move(oid, pos)
            return None
        if not isinstance(moves, (list, tuple)):
            moves = list(moves)
        self._last_events = (moves, inserts, removes)
        displacements = self._displacements(moves) if self.lease_mode else None
        delta = grid.apply_updates(moves, inserts=inserts, removes=removes)
        if displacements is not None:
            scheduler.absorb_displacements(
                displacements, bool(delta.inserted or delta.removed)
            )
        return delta

    def _displacements(self, moves) -> Dict:
        """Per-object Euclidean displacement of this tick's movers.

        Computed against the *pre-apply* grid positions (the vectorized
        bulk-update path does not expose old positions), in lease mode
        only — the scheduler charges lease budgets from these magnitudes.
        """
        grid = self.grid
        hypot = math.hypot
        out: Dict = {}
        for oid, pos in moves:
            if oid not in grid:
                continue
            old = grid.position(oid)
            dx = pos[0] - old.x
            dy = pos[1] - old.y
            if dx != 0.0 or dy != 0.0:
                out[oid] = hypot(dx, dy)
        return out

    def _apply_leases(self, run: Set[str], reasons: Dict[str, str]):
        """Intersect this tick's matches with the active safe-region leases.

        Runs between the scheduler's footprint matching and the dispatch
        partition, after :meth:`_apply_movement` charged the tick's
        displacement/churn to every lease, and updates ``run`` and
        ``reasons`` in place.  A lease that still *holds* (budget
        unspent, query point inside the safe region — an exact test)
        removes its query from the to-run set even when the delta touched
        its footprint, and the skip is published under the ``lease-held``
        reason, returned in the ``{name: reason}`` lease-skip map.  A
        lease that fails either check is dropped and its query forced
        into the to-run set under ``lease-broken`` — forced, because
        after lease-held skips of footprint-touching ticks the registered
        footprint is stale and cannot justify a disjointness skip.
        """
        scheduler = self.scheduler
        registry = self.registry
        states = scheduler.lease_states()
        lease_skips: Dict[str, str] = {}
        if states:
            broken: list = []
            for name, state in states.items():
                if name in self._paused or name in self._force_eval:
                    continue
                query = self._queries.get(name)
                if query is None or not self._started.get(name, False):
                    continue
                affected = name in run
                footprint_void = scheduler.footprint(name) is None
                if not (affected or footprint_void or state.tainted):
                    # Footprint-disjoint tick with intact disjointness
                    # evidence: the ordinary skip path already covers
                    # this query; the lease only absorbed the budget.
                    continue
                if state.holds(query.position.current()):
                    run.discard(name)
                    lease_skips[name] = REASON_LEASE_HELD
                    if affected or footprint_void:
                        # This skip consumed a tick that touched (or
                        # could have touched) the footprint, so the
                        # disjointness evidence is void until the next
                        # full evaluation; only the lease justifies
                        # skips from here on.
                        state.tainted = True
                    self.leases_held += 1
                    if registry is not None:
                        registry.counter("lease_held_total", query=name).inc()
                else:
                    run.add(name)
                    broken.append(name)
                    reasons[name] = REASON_LEASE_BROKEN
                    self.leases_broken += 1
                    if registry is not None:
                        registry.counter(
                            "lease_broken_total", query=name
                        ).inc()
            for name in broken:
                scheduler.drop_lease(name)
        # Lease-capable queries evaluated with no lease to consult get
        # the explicit lease-none code: in lease mode, the absence of a
        # certificate *is* why the evaluation cost was paid.
        for name, query in self._queries.items():
            if (
                name in states
                or name in self._paused
                or not getattr(query, "lease_enabled", False)
                or not self._started.get(name, False)
                or reasons.get(name) == REASON_LEASE_BROKEN
            ):
                continue
            if name in run or scheduler.footprint(name) is None:
                reasons[name] = REASON_LEASE_NONE
        if registry is not None:
            decided = self.leases_held + self.leases_broken
            if decided:
                registry.gauge("lease_hold_ratio").set(
                    self.leases_held / decided
                )
        return lease_skips or None

    def active_lease(self, name: str) -> Optional[LeaseState]:
        """The live lease bookkeeping for a query, if any."""
        if self.scheduler is None:
            return None
        return self.scheduler.lease_state(name)

    @property
    def lease_hold_ratio(self) -> float:
        """Held fraction of all lease skip decisions so far."""
        decided = self.leases_held + self.leases_broken
        return self.leases_held / decided if decided else 0.0

    def execute_queries(
        self,
        run: Optional[Set[str]] = None,
        reasons: Optional[Dict[str, str]] = None,
        lease_skips: Optional[Dict[str, str]] = None,
    ) -> TickOutcome:
        """Execute every non-paused query at the current time, measured.

        ``run`` is the scheduler's affected-set for this tick: queries
        outside it that have already started *and* hold a registered
        footprint carry their previous answer forward without executing.
        ``None`` (scheduler off, or the initial step) evaluates everyone.
        ``reasons`` optionally annotates each ``run`` member with *why*
        it matched (:meth:`TickScheduler.affected_reasons`) — forwarded
        into the cost ledger when it is recording.  ``lease_skips`` maps
        queries whose safe-region lease held this tick to their skip
        reason code: they take the skip path even without a usable
        footprint (the lease itself is the skip-safety evidence).

        With batching enabled, the to-evaluate set is decided first, then
        evaluated in footprint-overlap group order against one fresh
        :class:`~repro.grid.context.SharedTickContext`.  Reordering is
        answer-neutral (evaluations never mutate the grid), and skipped
        queries are unaffected — they never probe.

        A skipped query costs its :meth:`skip_tick`, its reason, one
        cached counter bump while a registry is attached, and its ledger
        record while the ledger is recording; the returned
        :class:`TickOutcome` builds its entry only when someone reads it.
        """
        out: Dict[str, TickMetrics] = {}
        registry = self.registry
        if registry is not None and self._work_base is None:
            self._work_base = _work_counts()
        scheduler = self.scheduler
        batch = self.batch
        ledger = self.ledger
        ledger_on = ledger is not None and ledger.enabled
        if ledger_on:
            ledger.begin_tick(self.current_tick)
            dispatch_start = self.clock()

        skipped: Dict[str, str] = {}
        evaluated: list = []
        paused = self._paused
        started = self._started
        force_eval = self._force_eval
        footprint = scheduler.footprint if scheduler is not None else None
        for name in self._queries:
            if name in paused:
                continue
            if (
                lease_skips is not None
                and name in lease_skips
                and started[name]
            ):
                skipped[name] = lease_skips[name]
            elif (
                run is not None
                and started[name]
                and name not in run
                and name not in force_eval
                and footprint is not None
                and footprint(name) is not None
            ):
                skipped[name] = REASON_DELTA_DISJOINT
            else:
                evaluated.append(name)

        if batch is not None and evaluated:
            batch.begin_tick()
            footprints = {
                name: scheduler.footprint(name) if scheduler is not None else None
                for name in evaluated
            }
            evaluated = batch.order(evaluated, footprints)

        if skipped:
            queries = self._queries
            counters = (
                self._skip_counter_cache(registry) if registry is not None else None
            )
            for name, skip_reason in skipped.items():
                answer = queries[name].skip_tick()
                if counters is not None:
                    counter = counters.get((name, skip_reason))
                    if counter is None:
                        counter = counters[(name, skip_reason)] = registry.counter(
                            "ticks_skipped_total", query=name, reason=skip_reason
                        )
                    counter.inc()
                if ledger_on:
                    last = self._last_metrics.get(name)
                    ledger.record(
                        QueryTickCost(
                            query=name,
                            tick=self.current_tick,
                            decision=SKIPPED,
                            reason=skip_reason,
                            answer_size=len(answer),
                            monitored=last.monitored if last is not None else 0,
                        )
                    )
            self.ticks_skipped += len(skipped)

        if ledger_on:
            # Partitioning, batch ordering, and the skip-path bookkeeping
            # above are genuine tick cost owned by no single query.
            ledger.add(DISPATCH, dispatch_start, self.clock())

        for name in evaluated:
            body_start = self.clock() if ledger_on else 0.0
            query = self._queries[name]
            if batch is not None:
                query.bind_shared_context(batch.context)
            cost: Optional[QueryTickCost] = None
            if ledger_on:
                if not self._started[name]:
                    reason = REASON_INITIAL
                elif name in self._force_eval:
                    reason = REASON_RESUME_FORCED
                elif reasons is not None and name in reasons:
                    # Scheduler/lease annotations win: for footprinted
                    # queries this is the affected_reasons entry, in
                    # lease mode possibly a lease-broken / lease-none
                    # override.
                    reason = reasons[name]
                elif scheduler is None:
                    reason = REASON_SCHEDULER_OFF
                elif scheduler.footprint(name) is None:
                    reason = REASON_NO_FOOTPRINT
                else:
                    reason = REASON_FOOTPRINT_HIT
                cost = QueryTickCost(
                    query=name,
                    tick=self.current_tick,
                    decision=EVALUATED,
                    reason=reason,
                    clock=self.clock,
                )
                query.bind_cost_recorder(cost)
                ctx = batch.context if batch is not None else None
                shared_before = (
                    (ctx.hits, ctx.misses) if ctx is not None else (0, 0)
                )
                fallbacks_before = predicates.STATS.exact_fallbacks
                store_before = STORE_STATS.rows_scanned
            ops_before = query.search.stats.snapshot()
            start = self.clock()
            if not self._started[name]:
                answer = query.initial()
                self._started[name] = True
            else:
                answer = query.tick()
            elapsed = self.clock() - start
            ops_after = query.search.stats.snapshot()
            metrics = TickMetrics(
                tick=self.current_tick,
                wall_time=elapsed,
                answer=frozenset(answer),
                monitored=query.monitored_count,
                region_cells=query.monitored_region_cells,
                ops=diff_ops(ops_before, ops_after),
                reason=cost.reason if cost is not None else "",
            )
            out[name] = metrics
            self._last_metrics[name] = metrics
            self._force_eval.discard(name)
            self.queries_evaluated += 1
            if cost is not None:
                query.bind_cost_recorder(None)
                cost.absorb_ops(metrics.ops)
                if ctx is not None:
                    cost.shared_hits = ctx.hits - shared_before[0]
                    cost.shared_misses = ctx.misses - shared_before[1]
                cost.exact_fallbacks = (
                    predicates.STATS.exact_fallbacks - fallbacks_before
                )
                cost.store_rows = STORE_STATS.rows_scanned - store_before
                cost.answer_size = len(answer)
                cost.monitored = metrics.monitored
            if scheduler is not None:
                # Footprint re-registration is part of the price of having
                # evaluated this query; attributing it keeps per-query
                # walls summing to (nearly) the whole tick.
                with phase(cost, FOOTPRINT):
                    scheduler.update_footprint(name, query.footprint())
                if self.lease_mode:
                    lease = getattr(
                        getattr(query, "last_report", None), "lease", None
                    )
                    if lease is not None:
                        lease.epoch = self.current_tick
                        self.leases_issued += 1
                        if registry is not None:
                            registry.counter(
                                "lease_issued_total", query=name
                            ).inc()
                    # Every evaluation replaces the active lease
                    # wholesale; a query that produced none has its
                    # stale lease dropped.
                    scheduler.update_lease(name, lease)
            if registry is not None:
                registry.counter("queries_evaluated_total", query=name).inc()
                self._publish(registry, name, query, metrics)
            if cost is not None:
                # The query's wall is its whole dispatch-loop body —
                # context binding, the algorithm itself, footprint
                # re-registration, and metric publication; the phase dict
                # separates the algorithm's share, the remainder shows up
                # as the row's unattributed glue.
                end = self.clock()
                cost.wall_time = end - body_start
                ledger.add(QUERY, body_start, end, query=name)
                ledger.record(cost)

        if batch is not None and evaluated:
            hits, misses = batch.finish_tick()
            self.batch_probe_hits += hits
            self.batch_probe_misses += misses
            if registry is not None:
                if hits:
                    registry.counter("batch_probe_hits_total").inc(hits)
                if misses:
                    registry.counter("batch_probe_misses_total").inc(misses)
                registry.gauge("batch_sharing_ratio").set(batch.sharing_ratio)
                registry.gauge("batch_groups").set(batch.groups)

        if registry is not None:
            self._publish_work(registry)
        return TickOutcome(
            self.current_tick, out, skipped, self._last_metrics.copy()
        )

    def _skip_counter_cache(
        self, registry: MetricsRegistry
    ) -> Dict[Tuple[str, str], Counter]:
        """The ``ticks_skipped_total`` handles cached for ``registry``.

        Checked once per tick: a different registry, or a cleared one
        (its generation moved), empties the cache, so the next skip
        re-creates its counter inside the registry as an uncached
        lookup would.
        """
        stamp = (registry, registry.generation)
        if self._skip_stamp != stamp:
            self._skip_counters = {}
            self._skip_stamp = stamp
        return self._skip_counters

    def _publish_work(self, registry: MetricsRegistry) -> None:
        """Mirror the process-global work counters' growth since this
        simulator's step began into its registry: simulators sharing a
        registry (or a process) then never publish each other's work."""
        base, self._work_base = self._work_base, None
        grown = {
            name: getattr(stats, attr) - before
            for (name, stats, attr), before in zip(_MIRRORED, base)
        }
        for name, amount in grown.items():
            if amount > 0:
                registry.counter(name).inc(amount)
        self.network_cache_hits += max(0, grown["network_distance_cache_hits_total"])
        self.network_cache_misses += max(0, grown["network_distance_cache_misses_total"])
        requests = self.network_cache_hits + self.network_cache_misses
        if requests:
            registry.gauge("network_sharing_ratio").set(
                self.network_cache_hits / requests
            )

    def _publish(
        self,
        registry: MetricsRegistry,
        name: str,
        query: ContinuousQuery,
        metrics: TickMetrics,
    ) -> None:
        """Feed one query execution into the metrics registry."""
        registry.counter("query_ticks_total", query=name).inc()
        registry.histogram("query_tick_seconds", query=name).observe(metrics.wall_time)
        registry.gauge("query_monitored_objects", query=name).set(metrics.monitored)
        registry.gauge("query_region_cells", query=name).set(metrics.region_cells)
        registry.gauge("query_answer_size", query=name).set(metrics.answer_size)
        record_ops_delta(registry, metrics.ops)
