"""The system under test, driven through its public entry points.

``LocalSystem`` runs one :class:`ContinuousQueryManager` in this process;
``ServedSystem`` runs :class:`AsyncGateway` over a process-sharded
:class:`ShardCluster`.  Both expose the same closed-loop client surface:
``setup()`` (load objects, subscribe every query, wait for every first
answer), ``tick(inp, events)`` (hand over one tick's updates, wait until
every answer change reached its subscriber) and ``close()``.  Each subscriber
rebuilds its query's answer from the changes it was delivered.

With a :class:`~spans.Spans` recorder the system wraps the public calls
into each layer on its instances; without one nothing is wrapped.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from typing import Dict, FrozenSet, Hashable, Optional

from repro import ContinuousQueryManager, Simulator
from repro.serving import AsyncGateway, PushFeed, ShardCluster, build_query
from repro.serving import stats_snapshot

_EMPTY: FrozenSet[Hashable] = frozenset()


def _stats() -> Dict[str, int]:
    """The process-global program counters, flattened."""
    return {
        f"{group}.{key}": value
        for group, counters in stats_snapshot().items()
        for key, value in counters.items()
    }


def _counter_total(registry, name: str) -> float:
    return sum(m.value for m in registry.collect() if m.name == name)


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Decisions:
    """Evaluate/skip/unchanged tallies from what each tick returns.

    Fed the ``TickMetrics`` of ``Simulator.step`` (local) or the merged
    ``TickResult`` of ``AsyncGateway.tick`` (served).  An evaluation is
    *unchanged* when the query already had an answer and the new one is
    identical: evaluated-but-unchanged is the dispatch waste.
    """

    def __init__(self):
        self._prev: Dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        self.evaluated = self.skipped = self.unchanged = self.search_calls = 0

    def prime(self, answers) -> None:
        """Start from answers delivered before the first fed tick."""
        self._prev.update(answers)

    def _one(self, name: str, answer, skipped: bool) -> None:
        if skipped:
            self.skipped += 1
        else:
            self.evaluated += 1
            if self._prev.get(name) == answer:
                self.unchanged += 1
        self._prev[name] = answer

    def local(self, metrics) -> None:
        for name, m in metrics.items():
            self._one(name, m.answer, m.skipped)
            if not m.skipped:
                self.search_calls += sum(
                    v for k, v in m.ops.items() if k.startswith("calls_")
                )

    def served(self, result) -> None:
        for name, (answer, skipped, _reason) in result.answers.items():
            self._one(name, answer, skipped)


class LocalSystem:
    """One ``ContinuousQueryManager`` over a ``Simulator`` in this process."""

    def __init__(self, wl, script, spans=None):
        self.wl = wl
        self.script = script
        self.spans = spans
        self.decisions = Decisions()
        self.answers: Dict[str, FrozenSet[Hashable]] = {}
        self.changes = 0
        self.sim: Optional[Simulator] = None

    def setup(self) -> float:
        start = time.perf_counter()
        self.feed = PushFeed(self.script.initial)
        self.sim = Simulator(self.feed, grid_size=int(self.wl.params["grid"]))
        self.manager = ContinuousQueryManager(self.sim)
        if self.spans is not None:
            self._instrument()
        for spec in self.script.specs:
            self._subscribe(spec)
        # Registered queries evaluate at the next step; it delivers every
        # first answer.
        self.manager.step()
        return time.perf_counter() - start

    def _subscribe(self, spec) -> None:
        query = build_query(spec, self.sim, self.script.network)
        spans = self.spans
        if spans is not None:
            spans.wrap(query, "initial", "queries.initial")
            spans.wrap(query, "tick", "queries.tick")
            spans.wrap(query, "footprint", "queries.footprint")
            spans.wrap(query, "skip_tick", "queries.skip_tick")
            spans.wrap(query.search, "objects_within", "grid.objects_within")
        self.manager.register(spec.name, query, on_change=self._on_change)

    def _on_change(self, change) -> None:
        self.changes += 1
        name = change.query
        self.answers[name] = (
            self.answers.get(name, _EMPTY) - change.removed
        ) | change.added

    def tick(self, inp, events) -> float:
        start = time.perf_counter()
        if inp.unsubscribe is not None:
            self.manager.unregister(inp.unsubscribe)
            self.answers.pop(inp.unsubscribe, None)
        if inp.subscribe is not None:
            self._subscribe(inp.subscribe)
        self.feed.push(events)
        try:
            self.manager.step()
        except Exception:
            # Drop events a failed step never consumed so the next push
            # is accepted (the simulator heals by forced re-evaluation).
            self.feed.step_events()
            raise
        return time.perf_counter() - start

    def _instrument(self) -> None:
        spans, sim = self.spans, self.sim
        spans.wrap(self.manager, "step", "engine.manager.step")
        spans.wrap(sim, "step", "engine.simulation.step",
                   result=self.decisions.local)
        spans.wrap(sim.grid, "apply_updates", "grid.apply_updates")
        for attr in ("affected", "affected_reasons"):
            spans.wrap(sim.scheduler, attr, "engine.scheduler.affected")
        spans.wrap(sim.scheduler, "update_footprint",
                   "engine.scheduler.update_footprint")
        spans.wrap(sim.batch, "order", "engine.batch.order")
        for attr in ("before_tick", "observe", "capture"):
            spans.wrap(sim.flight, attr, f"obs.flight.{attr}")

    def counters(self) -> Dict[str, float]:
        sim = self.sim
        out = _stats()
        out.update(
            evaluated=sim.queries_evaluated,
            probe_hits=sim.batch_probe_hits,
            probe_misses=sim.batch_probe_misses,
            search_calls=self.decisions.search_calls,
        )
        return out

    def worker_hwm_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        self.sim = self.manager = self.feed = None


class ServedSystem:
    """``AsyncGateway`` over a ``ShardCluster`` of worker processes."""

    def __init__(self, wl, script, spans=None):
        self.wl = wl
        self.script = script
        self.spans = spans
        self.decisions = Decisions()
        self.answers: Dict[str, FrozenSet[Hashable]] = {}
        self.changes = 0
        self.queues: Dict[str, asyncio.Queue] = {}
        self.loop = asyncio.new_event_loop()
        self.cluster: Optional[ShardCluster] = None

    def setup(self) -> float:
        start = time.perf_counter()
        self.cluster = ShardCluster(
            int(self.wl.params["shards"]),
            grid_size=int(self.wl.params["grid"]),
            transport="process",
            mp_context="fork",
            network=self.script.network,
        )
        self.gateway = AsyncGateway(self.cluster)
        self.loop.run_until_complete(self._setup())
        elapsed = time.perf_counter() - start
        if self.spans is not None:
            self._instrument()
        return elapsed

    async def _setup(self) -> None:
        gateway = self.gateway
        await gateway.load(self.script.wire_initial)
        for spec in self.script.specs:
            self.queues[spec.name] = await gateway.subscribe(spec)
        await gateway.initial_eval()
        self._drain()

    def _drain(self) -> None:
        answers = self.answers
        for name, queue in self.queues.items():
            while not queue.empty():
                delta = queue.get_nowait()
                self.changes += 1
                answers[name] = (
                    answers.get(name, _EMPTY) - frozenset(delta.removed)
                ) | frozenset(delta.added)

    def tick(self, inp, events) -> float:
        return self.loop.run_until_complete(self._tick(inp, events))

    async def _tick(self, inp, events) -> float:
        start = time.perf_counter()
        gateway = self.gateway
        if inp.unsubscribe is not None:
            await gateway.unsubscribe(inp.unsubscribe)
            self.queues.pop(inp.unsubscribe, None)
            self.answers.pop(inp.unsubscribe, None)
        if inp.subscribe is not None:
            spec = inp.subscribe
            self.queues[spec.name] = await gateway.subscribe(spec)
        for oid in events.removes:
            await gateway.submit_remove(oid)
        for oid, (x, y), cat in events.inserts:
            await gateway.submit_insert(oid, x, y, cat)
        for oid, (x, y) in events.moves:
            await gateway.submit_move(oid, x, y)
        await gateway.tick()
        self._drain()
        return time.perf_counter() - start

    def _instrument(self) -> None:
        spans = self.spans
        self.decisions.prime(
            {name: tuple(sorted(answer)) for name, answer in self.answers.items()}
        )
        spans.wrap_async(self.gateway, "tick", "serving.gateway.tick",
                         result=self.decisions.served)
        spans.wrap(self.cluster, "tick", "serving.cluster.tick")
        for shard in self.cluster.shards:
            spans.wrap(shard, "send", "serving.send")
            spans.wrap(shard, "recv", "serving.recv")
            # Message sizes are the pickled bytes the shard's pipe
            # (``multiprocessing`` Connection) writes and reads inside those
            # spans, so sizing them re-pickles nothing.
            conn = shard._conn
            spans.wrap_size(conn, "_send_bytes",
                            lambda args, out: memoryview(args[0]).nbytes)
            spans.wrap_size(conn, "_recv_bytes",
                            lambda args, out: out.getbuffer().nbytes)

    def counters(self) -> Dict[str, float]:
        cluster = self.cluster
        cluster.collect_counters()
        registry = cluster.merged_registry()
        out = _stats()
        out.update(
            evaluated=_counter_total(registry, "queries_evaluated_total"),
            probe_hits=_counter_total(registry, "batch_probe_hits_total"),
            probe_misses=_counter_total(registry, "batch_probe_misses_total"),
            search_calls=_counter_total(registry, "search_calls_total"),
        )
        return out

    def worker_hwm_mb(self) -> float:
        return sum(_vm_hwm_mb(p.pid) for p in multiprocessing.active_children())

    def close(self) -> None:
        try:
            if self.cluster is not None:
                self.loop.run_until_complete(self.gateway.close())
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
        finally:
            self.loop.close()
            self.cluster = None


def make_system(wl, script, spans=None):
    return (ServedSystem if wl.served else LocalSystem)(wl, script, spans)
