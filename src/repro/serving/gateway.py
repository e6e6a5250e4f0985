"""The serving gateway: shard transports, the sync cluster core, and the
asyncio front door.

Layering (bottom up):

- :class:`InlineShard` / :class:`ProcessShard` — one shard behind the
  ``(op, payload)`` message protocol of :mod:`repro.serving.shard`.
  Inline runs the shard in-process (deterministic, debuggable, full
  coverage); process runs it in a ``multiprocessing`` worker over a
  pipe.  Both expose a split ``send``/``recv`` so the cluster can
  pipeline a broadcast: send to every shard first, then collect — with
  process workers the shards genuinely tick in parallel.
- :class:`ShardCluster` — the synchronous core: routes queries to their
  owning shard (:mod:`repro.serving.router`), broadcasts each tick's
  events to every shard (full-replica object state), merges answers,
  counters and lease decisions, and runs the optional fan-out agreement
  check for boundary-straddling queries.
- :class:`AsyncGateway` — the asyncio wrapper: admits object updates at
  high rate into a pending-tick buffer, drives the cluster off the event
  loop, and streams per-tick answer deltas to subscriber queues.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import time
from typing import Dict, Hashable, List, Optional, Tuple

from repro.geometry.rectangle import Rect
from repro.obs.metrics import MetricsRegistry, active_registry
from repro.serving import router
from repro.serving.counters import merge_stats
from repro.serving.shard import (
    QuerySpec,
    ShardConfig,
    ShardState,
    TickResult,
    WireInserts,
    WireMoves,
    WireRemoves,
    worker_main,
)


class ShardFault(RuntimeError):
    """A shard reported an error for a protocol message, or its worker
    is gone (``kind="WorkerLost"``)."""

    def __init__(self, shard_id: int, op: str, kind: str, message: str):
        super().__init__(f"shard {shard_id} failed {op!r}: {kind}: {message}")
        self.shard_id = shard_id
        self.op = op
        self.kind = kind


class InlineShard:
    """In-process transport: the shard state runs right here.

    ``send`` executes immediately and parks the outcome for ``recv`` —
    same call discipline as the process transport, so the cluster code
    is transport-blind.
    """

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self._state: Optional[ShardState] = None
        self._parked: Optional[Tuple[str, object]] = None
        self._op: str = ""

    def send(self, op: str, payload: tuple) -> None:
        if self._parked is not None:
            raise RuntimeError("previous reply was never collected")
        self._op = op
        try:
            if op == "load":
                config, initial = payload
                self._state = ShardState(config, initial)
                result: object = config.shard_id
            elif op == "stop":
                result = None
            elif self._state is None:
                raise RuntimeError("shard received work before 'load'")
            else:
                result = self._state.handle(op, payload)
            self._parked = ("ok", result)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self._parked = ("error", (type(exc).__name__, str(exc)))

    def recv(self):
        status, result = self._parked  # type: ignore[misc]
        self._parked = None
        if status == "error":
            kind, message = result  # type: ignore[misc]
            raise ShardFault(self.shard_id, self._op, kind, message)
        return result

    def request(self, op: str, payload: tuple = ()):
        self.send(op, payload)
        return self.recv()

    def close(self) -> None:
        self._state = None


class ProcessShard:
    """Pipe transport to a ``multiprocessing`` worker running
    :func:`repro.serving.shard.worker_main`.

    A dead worker surfaces as ``ShardFault(kind="WorkerLost")`` from
    :meth:`recv`; a send that finds the pipe broken parks that fault for
    the matching :meth:`recv`, so a broadcast still drains every live
    shard before the fault is raised.
    """

    def __init__(self, shard_id: int, ctx: Optional[str] = None):
        self.shard_id = shard_id
        mp = multiprocessing.get_context(ctx) if ctx else multiprocessing
        parent, child = mp.Pipe()
        self._conn = parent
        self._proc = mp.Process(
            target=worker_main, args=(child,), daemon=True
        )
        self._proc.start()
        child.close()
        self._op: str = ""
        self._lost: Optional[ShardFault] = None

    def _worker_lost(self, exc: BaseException) -> ShardFault:
        return ShardFault(
            self.shard_id, self._op, "WorkerLost", f"{type(exc).__name__}: {exc}"
        )

    def send(self, op: str, payload: tuple) -> None:
        self._op = op
        try:
            self._conn.send((op, payload))
        except (EOFError, OSError) as exc:  # BrokenPipeError included
            self._lost = self._worker_lost(exc)

    def recv(self):
        lost, self._lost = self._lost, None
        if lost is not None:
            raise lost
        try:
            status, result = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._worker_lost(exc) from exc
        if status == "error":
            kind, message = result
            raise ShardFault(self.shard_id, self._op, kind, message)
        return result

    def request(self, op: str, payload: tuple = ()):
        self.send(op, payload)
        return self.recv()

    def close(self) -> None:
        try:
            if self._proc.is_alive():
                self.request("stop")
        except ShardFault:
            pass
        self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=10)


class ShardCluster:
    """The synchronous sharded-serving core.

    Every shard replicates the full object stream; queries are
    partitioned by :func:`repro.serving.router.route_query`.  Per-tick
    answers for a query therefore come from exactly one shard and are
    bit-identical to a single-process simulator over the same stream —
    the merge is a dictionary union, not a spatial reconciliation.

    ``fanout_check=True`` additionally registers every query on *all*
    shards and asserts cross-shard answer agreement at merge time (the
    fan-out/merge path for boundary-straddling footprints, run as a
    continuous self-check; disagreements raise and are counted under
    ``gateway_fanout_disagreements_total``).
    """

    def __init__(
        self,
        n_shards: int,
        *,
        grid_size: int = 64,
        extent: Optional[Rect] = None,
        transport: str = "inline",
        lease: bool = False,
        network=None,
        fanout_check: bool = False,
        registry: Optional[MetricsRegistry] = None,
        mp_context: Optional[str] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if transport not in ("inline", "process"):
            raise ValueError(f"unknown transport {transport!r}")
        self.n_shards = n_shards
        self.grid_size = grid_size
        self.extent = extent if extent is not None else Rect.unit()
        self.transport = transport
        self.fanout_check = fanout_check
        self.registry = registry if registry is not None else active_registry()
        self._config_kwargs = dict(
            n_shards=n_shards,
            grid_size=grid_size,
            extent=(
                (extent.xmin, extent.ymin, extent.xmax, extent.ymax)
                if extent is not None
                else None
            ),
            lease=lease,
            network=network,
        )
        self.shards: List = []
        self.owner: Dict[str, int] = {}
        self.current_tick = 0
        self.tick_latencies: List[float] = []
        self._loaded = False
        self._registry_snapshots: Dict[int, list] = {}
        self._mp_context = mp_context

    # -- lifecycle -----------------------------------------------------

    def load(self, initial: List[Tuple[Hashable, float, float, Hashable]]) -> None:
        """Spin up the shards and replicate the initial object set."""
        if self._loaded:
            raise RuntimeError("cluster already loaded")
        for shard_id in range(self.n_shards):
            if self.transport == "process":
                shard = ProcessShard(shard_id, ctx=self._mp_context)
            else:
                shard = InlineShard(shard_id)
            self.shards.append(shard)
        config_base = self._config_kwargs
        for shard in self.shards:
            shard.send(
                "load",
                (ShardConfig(shard_id=shard.shard_id, **config_base), list(initial)),
            )
        for shard in self.shards:
            shard.recv()
        self._loaded = True

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        self.shards = []
        self._loaded = False

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries -------------------------------------------------------

    def add_query(self, spec: QuerySpec) -> int:
        """Route a subscription to its owning shard; returns the shard id."""
        if not self._loaded:
            raise RuntimeError("cluster not loaded")
        owner = router.route_query(
            grid_size=self.grid_size,
            extent=self.extent,
            n_shards=self.n_shards,
            name=spec.name,
            point=spec.point,
        )
        if spec.metric == "network" and self.registry is not None:
            # Footprint-less network queries are pinned: visible in obs.
            self.registry.counter("gateway_pinned_queries_total").inc()
        targets = (
            range(self.n_shards) if self.fanout_check else (owner,)
        )
        for shard_id in targets:
            self.shards[shard_id].send("add_query", (spec,))
        for shard_id in targets:
            self.shards[shard_id].recv()
        self.owner[spec.name] = owner
        if self.registry is not None:
            self.registry.counter("gateway_queries_total").inc()
            self.registry.gauge(
                "shard_queries", shard=str(owner)
            ).inc()
        return owner

    def remove_query(self, name: str) -> None:
        owner = self.owner.pop(name)
        targets = range(self.n_shards) if self.fanout_check else (owner,)
        for shard_id in targets:
            self.shards[shard_id].send("remove_query", (name,))
        for shard_id in targets:
            self.shards[shard_id].recv()
        if self.registry is not None:
            self.registry.gauge("shard_queries", shard=str(owner)).dec()

    def pause_query(self, name: str) -> None:
        self._per_owner(name, "pause")

    def resume_query(self, name: str) -> None:
        self._per_owner(name, "resume")

    def _per_owner(self, name: str, op: str) -> None:
        owner = self.owner[name]
        targets = range(self.n_shards) if self.fanout_check else (owner,)
        for shard_id in targets:
            self.shards[shard_id].send(op, (name,))
        for shard_id in targets:
            self.shards[shard_id].recv()

    # -- ticking -------------------------------------------------------

    def initial_eval(self) -> TickResult:
        """Tick-0 answers for every registered query (merged)."""
        return self._broadcast_collect("initial", ())

    def tick(
        self,
        moves: WireMoves,
        inserts: WireInserts = (),
        removes: WireRemoves = (),
    ) -> TickResult:
        """Broadcast one tick's events to every shard and merge."""
        t0 = time.perf_counter()
        result = self._broadcast_collect(
            "tick", (list(moves), list(inserts), list(removes))
        )
        self.current_tick = result.tick
        latency = time.perf_counter() - t0
        self.tick_latencies.append(latency)
        if self.registry is not None:
            self.registry.counter("gateway_ticks_total").inc()
            self.registry.counter("gateway_updates_total").inc(
                len(moves) + len(inserts) + len(removes)
            )
            self.registry.histogram("gateway_tick_seconds").observe(latency)
        return result

    def _broadcast_collect(self, op: str, payload: tuple) -> TickResult:
        if not self._loaded:
            raise RuntimeError("cluster not loaded")
        for shard in self.shards:
            shard.send(op, payload)
        # Drain every shard even when one faults: the cluster stays in
        # tick-sync (workers keep running; a faulted worker's simulator
        # is poisoned and heals itself by forced re-evaluation next
        # tick), and only then is the first fault surfaced.
        results: List[TickResult] = []
        fault: Optional[ShardFault] = None
        for shard in self.shards:
            try:
                results.append(shard.recv())
            except ShardFault as exc:
                if self.registry is not None:
                    self.registry.counter(
                        "shard_faults_total", shard=str(exc.shard_id)
                    ).inc()
                if fault is None:
                    fault = exc
        if fault is not None:
            raise fault
        return self._merge(results)

    def _merge(self, results: List[TickResult]) -> TickResult:
        by_shard = {r.shard_id: r for r in results}
        answers: Dict[str, Tuple[Tuple[Hashable, ...], bool, str]] = {}
        leases: Dict[str, Tuple[float, bool, bool]] = {}
        for name, owner in self.owner.items():
            owned = by_shard[owner]
            if name not in owned.answers:
                continue  # paused on its owner
            answers[name] = owned.answers[name]
            if name in owned.leases:
                leases[name] = owned.leases[name]
            if self.fanout_check:
                self._check_agreement(name, owner, by_shard)
        tick = results[0].tick
        poisoned = next(
            (r.poisoned_tick for r in results if r.poisoned_tick is not None),
            None,
        )
        return TickResult(
            shard_id=-1,
            tick=tick,
            answers=answers,
            leases=leases,
            poisoned_tick=poisoned,
        )

    def _check_agreement(
        self, name: str, owner: int, by_shard: Dict[int, TickResult]
    ) -> None:
        """Fan-out agreement: every replica must answer identically.

        Only the *answer* participates — skip/lease decisions may
        legitimately differ per shard (each shard's scheduler sees its
        own query subset), but the answers they certify may not.
        """
        expected = by_shard[owner].answers[name][0]
        for shard_id, result in by_shard.items():
            if shard_id == owner or name not in result.answers:
                continue
            if result.answers[name][0] != expected:
                if self.registry is not None:
                    self.registry.counter(
                        "gateway_fanout_disagreements_total"
                    ).inc()
                raise RuntimeError(
                    f"fan-out disagreement for {name!r} at shard"
                    f" {shard_id}: {result.answers[name][0]!r} !="
                    f" {expected!r} (owner {owner})"
                )

    # -- observability -------------------------------------------------

    def collect_counters(self) -> None:
        """Pull per-shard counters: merge worker processes' stat deltas
        into this process's singletons, keep the latest registry
        snapshots.  Inline shards counted into those singletons already."""
        for shard in self.shards:
            shard.send("counters", ())
        for shard in self.shards:
            payload = shard.recv()
            if self.transport == "process":
                merge_stats(payload["stats"])
            self._registry_snapshots[payload["shard_id"]] = payload["registry"]

    def merged_registry(self) -> MetricsRegistry:
        """A fresh registry with gateway metrics plus every shard's.

        Counters and histograms merge unlabeled so totals sum across the
        fleet; gauges get a ``shard`` label (summing last-value metrics
        across processes is meaningless).  Built from the latest
        :meth:`collect_counters` snapshots, which are absolute — merging
        into a *fresh* registry each call is what keeps this idempotent.
        """
        merged = MetricsRegistry()
        if self.registry is not None:
            merged.merge(self.registry.snapshot())
        for shard_id, entries in sorted(self._registry_snapshots.items()):
            gauges = [e for e in entries if e["kind"] == "gauge"]
            additive = [e for e in entries if e["kind"] != "gauge"]
            merged.merge(additive)
            merged.merge(gauges, shard=str(shard_id))
        return merged

    def tick_latency_percentile(self, p: float) -> float:
        """Percentile over the gateway-observed per-tick latencies
        (nearest-rank on the exact samples; no bucketing error)."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self.tick_latencies:
            return 0.0
        ordered = sorted(self.tick_latencies)
        idx = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
        return ordered[min(idx, len(ordered) - 1)]


class AnswerDelta:
    """One query's answer change at one tick, streamed to subscribers."""

    __slots__ = ("tick", "name", "added", "removed", "answer")

    def __init__(self, tick, name, added, removed, answer):
        self.tick = tick
        self.name = name
        self.added = added
        self.removed = removed
        self.answer = answer

    def __repr__(self) -> str:
        return (
            f"AnswerDelta(tick={self.tick}, name={self.name!r},"
            f" +{len(self.added)} -{len(self.removed)})"
        )


class AsyncGateway:
    """Asyncio front door over a :class:`ShardCluster`.

    Updates are admitted into a pending-tick buffer at any rate;
    :meth:`tick` seals the buffer into one engine tick, drives the
    cluster off the event loop (in a thread executor, so process shards
    overlap with ingest), and streams :class:`AnswerDelta` objects to
    every subscriber of a changed query.
    """

    def __init__(self, cluster: ShardCluster):
        self.cluster = cluster
        self._moves: Dict[Hashable, Tuple[float, float]] = {}
        self._inserts: Dict[Hashable, Tuple[float, float, Hashable]] = {}
        self._removes: set = set()
        self._answers: Dict[str, Tuple[Hashable, ...]] = {}
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        self._tick_lock = asyncio.Lock()

    # -- ingest --------------------------------------------------------

    async def submit_move(self, oid: Hashable, x: float, y: float) -> None:
        """Admit one position update (last write per object wins within
        a tick — the same coalescing one batched grid update applies)."""
        self._moves[oid] = (x, y)

    async def submit_insert(
        self, oid: Hashable, x: float, y: float, category: Hashable = 0
    ) -> None:
        self._inserts[oid] = (x, y, category)
        self._removes.discard(oid)

    async def submit_remove(self, oid: Hashable) -> None:
        if oid in self._inserts:
            del self._inserts[oid]
        else:
            self._removes.add(oid)
        self._moves.pop(oid, None)

    @property
    def pending_updates(self) -> int:
        return len(self._moves) + len(self._inserts) + len(self._removes)

    # -- lifecycle -----------------------------------------------------

    async def load(self, initial) -> None:
        """Spin the cluster up with the initial object set."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.cluster.load, initial)

    # -- subscriptions -------------------------------------------------

    async def subscribe(self, spec: QuerySpec) -> asyncio.Queue:
        """Register a continuous query; returns the delta stream queue."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.cluster.add_query, spec)
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(spec.name, []).append(queue)
        return queue

    async def unsubscribe(self, name: str) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.cluster.remove_query, name)
        self._subscribers.pop(name, None)
        self._answers.pop(name, None)

    # -- ticking -------------------------------------------------------

    async def initial_eval(self) -> TickResult:
        loop = asyncio.get_running_loop()
        async with self._tick_lock:
            result = await loop.run_in_executor(
                None, self.cluster.initial_eval
            )
            await self._publish(result)
            return result

    async def tick(self) -> TickResult:
        """Seal the pending buffer into one tick and stream the deltas."""
        loop = asyncio.get_running_loop()
        async with self._tick_lock:
            moves = [(oid, x, y) for oid, (x, y) in self._moves.items()]
            inserts = [
                (oid, x, y, cat)
                for oid, (x, y, cat) in self._inserts.items()
            ]
            removes = list(self._removes)
            self._moves.clear()
            self._inserts.clear()
            self._removes.clear()
            result = await loop.run_in_executor(
                None, self.cluster.tick, moves, inserts, removes
            )
            await self._publish(result)
            return result

    async def _publish(self, result: TickResult) -> None:
        for name, (answer, _skipped, _reason) in result.answers.items():
            previous = self._answers.get(name)
            if previous == answer:
                continue
            self._answers[name] = answer
            queues = self._subscribers.get(name)
            if not queues:
                continue
            old = frozenset(previous or ())
            new = frozenset(answer)
            delta = AnswerDelta(
                tick=result.tick,
                name=name,
                added=tuple(sorted(new - old)),
                removed=tuple(sorted(old - new)),
                answer=answer,
            )
            for queue in queues:
                queue.put_nowait(delta)

    # -- teardown ------------------------------------------------------

    async def close(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.cluster.close)
