"""One spatial shard: a full simulator behind a message protocol.

A shard owns a stripe of grid cells for *attribution* but replicates the
complete object stream (see ``docs/SERVING.md``): each shard runs its
own :class:`~repro.engine.simulation.Simulator` — grid index, tick
scheduler, batch executor, lease enforcement — over the queries routed
to it.  Because a simulator's per-query answers are independent of which
*other* queries it hosts (skips are per-query, batch sharing is
answer-neutral by construction, leases are per-query certificates), a
shard's answers are bit-identical to a single-process simulator hosting
every query — the property the lockstep suite pins.

The module is deliberately transport-free: :class:`ShardState` is the
synchronous core, :func:`worker_main` wraps it in the pipe message loop
run by ``multiprocessing`` workers, and the inline transport calls
:meth:`ShardState.handle` directly.  Everything that crosses the
process boundary — configs, query specs, tick events, answers, counter
deltas — is plain picklable data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.engine.simulation import Simulator
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.metric import NetworkMetric
from repro.motion.churn import TickEvents
from repro.motion.roadnet import RoadNetwork
from repro.obs.metrics import MetricsRegistry
from repro.queries import IGERNBiQuery, IGERNMonoQuery, QueryPosition
from repro.serving.counters import stats_delta, stats_snapshot

#: Wire event lists: ``(oid, x, y)`` moves, ``(oid, x, y, cat)`` inserts,
#: bare oids for removes.
WireMoves = List[Tuple[Hashable, float, float]]
WireInserts = List[Tuple[Hashable, float, float, Hashable]]
WireRemoves = List[Hashable]


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker needs to build its simulator (picklable)."""

    shard_id: int
    n_shards: int
    grid_size: int = 64
    extent: Optional[Tuple[float, float, float, float]] = None
    lease: bool = False
    #: Road network for network-metric queries (picklable; ``None`` for
    #: pure-Euclidean serving).  :func:`build_query` gives each network
    #: query its own :class:`NetworkMetric`; all of them share the
    #: network's tick-scoped distance memo, which pickles empty.
    network: Optional[RoadNetwork] = None

    def rect(self) -> Optional[Rect]:
        return Rect(*self.extent) if self.extent is not None else None


@dataclass(frozen=True)
class QuerySpec:
    """A continuous-query subscription in wire form (picklable)."""

    name: str
    mode: str = "mono"  # "mono" | "bi"
    point: Optional[Tuple[float, float]] = None
    query_id: Optional[Hashable] = None
    k: int = 1
    cat_a: Hashable = "A"
    cat_b: Hashable = "B"
    metric: str = "euclidean"  # "euclidean" | "network"

    def __post_init__(self):
        if self.mode not in ("mono", "bi"):
            raise ValueError(f"unknown query mode {self.mode!r}")
        if self.metric not in ("euclidean", "network"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if (self.point is None) == (self.query_id is None):
            raise ValueError("provide exactly one of point or query_id")


@dataclass
class TickResult:
    """One shard's view of one tick (plain data, picklable)."""

    shard_id: int
    tick: int
    #: name -> (sorted answer tuple, skipped, reason)
    answers: Dict[str, Tuple[Tuple[Hashable, ...], bool, str]]
    #: name -> (spent, tainted, broken) for every live lease
    leases: Dict[str, Tuple[float, bool, bool]] = field(default_factory=dict)
    poisoned_tick: Optional[int] = None


def build_query(spec: QuerySpec, sim: Simulator, network: Optional[RoadNetwork]):
    """Materialize a wire :class:`QuerySpec` against a shard's simulator."""
    position = (
        QueryPosition(sim.grid, fixed=spec.point)
        if spec.point is not None
        else QueryPosition(sim.grid, query_id=spec.query_id)
    )
    metric = None
    if spec.metric == "network":
        if network is None:
            raise ValueError(
                f"query {spec.name!r} wants the network metric but the"
                " shard was configured without a road network"
            )
        metric = NetworkMetric(network)
    if spec.mode == "mono":
        return IGERNMonoQuery(sim.grid, position, k=spec.k, metric=metric)
    return IGERNBiQuery(
        sim.grid,
        position,
        cat_a=spec.cat_a,
        cat_b=spec.cat_b,
        k=spec.k,
        metric=metric,
    )


class PushFeed:
    """Generator-protocol adapter fed by the gateway, one tick at a time.

    The simulator pulls via ``initial()`` / ``step_events(dt)``; the
    shard pushes the gateway's broadcast events in before each step.
    """

    def __init__(self, initial: List[Tuple[Hashable, Point, Hashable]]):
        self._initial = initial
        self._pending: Optional[TickEvents] = None

    def initial(self):
        return list(self._initial)

    def push(self, events: TickEvents) -> None:
        if self._pending is not None:
            raise RuntimeError("previous tick's events were never consumed")
        self._pending = events

    def step_events(self, dt: float = 1.0) -> TickEvents:
        events = self._pending
        self._pending = None
        if events is None:
            return TickEvents(moves=[], inserts=[], removes=[])
        return events


def decode_events(
    moves: WireMoves, inserts: WireInserts, removes: WireRemoves
) -> TickEvents:
    """Wire tuples -> the engine's :class:`TickEvents`."""
    return TickEvents(
        moves=[(oid, Point(x, y)) for oid, x, y in moves],
        inserts=[(oid, Point(x, y), cat) for oid, x, y, cat in inserts],
        removes=list(removes),
    )


class ShardState:
    """The synchronous core of one shard (transport-agnostic)."""

    def __init__(
        self,
        config: ShardConfig,
        initial: List[Tuple[Hashable, float, float, Hashable]],
    ):
        self.config = config
        self.registry = MetricsRegistry()
        self.feed = PushFeed(
            [(oid, Point(x, y), cat) for oid, x, y, cat in initial]
        )
        self.sim = Simulator(
            self.feed,
            grid_size=config.grid_size,
            extent=config.rect(),
            registry=self.registry,
            lease=config.lease,
            flight=False,
            ledger=False,
        )
        #: name -> sorted answer tuple of the query's last evaluation,
        #: which a skipped tick's reply carries.
        self._sorted: Dict[str, Tuple[Hashable, ...]] = {}
        #: Baseline for process-global stat deltas: under the fork start
        #: method a worker inherits the parent's already-advanced
        #: singletons, so absolute snapshots would smuggle parent counts.
        self._stats_base = stats_snapshot()

    # -- operations ----------------------------------------------------

    def add_query(self, spec: QuerySpec) -> None:
        query = build_query(spec, self.sim, self.config.network)
        self.sim.add_query(spec.name, query)

    def remove_query(self, name: str) -> None:
        self.sim.remove_query(name)
        self._sorted.pop(name, None)

    def pause(self, name: str) -> None:
        self.sim.pause_query(name)

    def resume(self, name: str) -> None:
        self.sim.resume_query(name)

    def initial_eval(self) -> TickResult:
        """Tick-0 semantics: evaluate every registered query once."""
        out = self.sim.execute_queries()
        return self._result(out)

    def tick(
        self, moves: WireMoves, inserts: WireInserts, removes: WireRemoves
    ) -> TickResult:
        self.feed.push(decode_events(moves, inserts, removes))
        try:
            out = self.sim.step()
        except Exception:
            # The simulator poisoned the tick (leases dropped, every
            # query forced to re-evaluate next step); drop the unread
            # feed so the next broadcast is accepted, and let the
            # transport surface the failure.
            self.feed.step_events()
            raise
        return self._result(out)

    def counters(self) -> dict:
        """Per-shard observability payload, delta-based where global.

        The stats delta is *consumed*: each call ships only work since
        the previous call, so the gateway can merge unconditionally.
        The registry snapshot is absolute and idempotent — the gateway
        keeps the latest per shard and merges into a fresh registry.
        """
        current = stats_snapshot()
        delta = stats_delta(self._stats_base, current)
        self._stats_base = current
        return {
            "shard_id": self.config.shard_id,
            "stats": delta,
            "registry": self.registry.snapshot(),
        }

    # -- plumbing ------------------------------------------------------

    def _result(self, out) -> TickResult:
        # Every query, every tick: a skipped one carries the sorted
        # answer of its last evaluation, so no skipped entry is built.
        carried = self._sorted
        answers = {
            name: (carried[name], True, reason)
            for name, reason in out.skipped.items()
        }
        for name, m in out.evaluated.items():
            answer = carried[name] = tuple(sorted(m.answer))
            answers[name] = (answer, False, m.reason)
        leases: Dict[str, Tuple[float, bool, bool]] = {}
        scheduler = self.sim.scheduler
        if scheduler is not None:
            for name, state in scheduler.lease_states().items():
                leases[name] = (state.spent, state.tainted, state.broken)
        return TickResult(
            shard_id=self.config.shard_id,
            tick=self.sim.current_tick,
            answers=answers,
            leases=leases,
            poisoned_tick=self.sim.poisoned_tick,
        )

    def handle(self, op: str, payload: tuple):
        """Dispatch one protocol message (shared by every transport)."""
        if op == "tick":
            return self.tick(*payload)
        if op == "initial":
            return self.initial_eval()
        if op == "add_query":
            return self.add_query(*payload)
        if op == "remove_query":
            return self.remove_query(*payload)
        if op == "pause":
            return self.pause(*payload)
        if op == "resume":
            return self.resume(*payload)
        if op == "counters":
            return self.counters()
        if op == "ping":
            return "pong"
        raise ValueError(f"unknown shard op {op!r}")


def worker_main(conn) -> None:
    """Message loop of a shard worker process.

    Protocol: the gateway sends ``(op, payload)`` tuples and receives
    ``("ok", result)`` or ``("error", (type_name, message))``.  The
    first message must be ``("load", (config, initial))``; ``("stop",
    ())`` ends the loop.  Errors never kill the worker — a failed tick
    leaves a poisoned simulator that the next tick heals (forced
    re-evaluation), which the lockstep fault tests rely on.
    """
    state: Optional[ShardState] = None
    while True:
        try:
            op, payload = conn.recv()
        except EOFError:
            break
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            if op == "load":
                config, initial = payload
                state = ShardState(config, initial)
                result = config.shard_id
            elif state is None:
                raise RuntimeError("shard received work before 'load'")
            else:
                result = state.handle(op, payload)
            conn.send(("ok", result))
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            conn.send(("error", (type(exc).__name__, str(exc))))
    conn.close()
