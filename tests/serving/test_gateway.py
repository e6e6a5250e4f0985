"""Gateway behavior: async front door, counter merging, observability."""

import asyncio
import os
import random
import signal

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serving import AsyncGateway, QuerySpec, ShardCluster
from repro.serving.counters import stats_snapshot
from repro.serving.gateway import ShardFault

N = 100


def _initial(seed=1):
    rng = random.Random(seed)
    return [(i, rng.random(), rng.random(), 0) for i in range(N)]


def _run(coro):
    return asyncio.run(coro)


def test_async_gateway_streams_answer_deltas():
    async def main():
        with ShardCluster(2, grid_size=8, transport="inline") as cluster:
            gateway = AsyncGateway(cluster)
            await gateway.load(_initial(1))
            queue = await gateway.subscribe(QuerySpec(name="q0", point=(0.5, 0.5)))
            await gateway.initial_eval()
            first = queue.get_nowait()
            assert first.tick == 0
            assert first.answer == tuple(sorted(first.added))

            # Drive objects far away: q0's answer should eventually
            # change; every published delta must reconcile exactly.
            answer = set(first.answer)
            rng = random.Random(2)
            changes = 0
            for _ in range(8):
                for oid in rng.sample(range(N), 30):
                    await gateway.submit_move(oid, rng.random(), rng.random())
                result = await gateway.tick()
                while not queue.empty():
                    delta = queue.get_nowait()
                    answer -= set(delta.removed)
                    answer |= set(delta.added)
                    assert tuple(sorted(answer)) == delta.answer
                    changes += 1
                assert tuple(sorted(answer)) == result.answers["q0"][0]
            assert changes > 0, "workload never changed the answer"
    _run(main())


def test_async_gateway_coalesces_pending_updates():
    async def main():
        with ShardCluster(2, grid_size=8, transport="inline") as cluster:
            gateway = AsyncGateway(cluster)
            await gateway.load(_initial(1))
            await gateway.subscribe(QuerySpec(name="q0", point=(0.5, 0.5)))
            await gateway.initial_eval()
            # Many writes to one object within a tick: last wins, one
            # pending update.
            for _ in range(50):
                await gateway.submit_move(3, random.random(), random.random())
            await gateway.submit_move(3, 0.9, 0.9)
            assert gateway.pending_updates == 1
            # insert-then-remove within one tick cancels out.
            await gateway.submit_insert(999, 0.1, 0.1)
            await gateway.submit_remove(999)
            assert gateway.pending_updates == 1
            await gateway.tick()
            assert gateway.pending_updates == 0
            assert cluster.shards[0]._state.sim.grid.position(3) == (0.9, 0.9)
    _run(main())


def test_async_gateway_unsubscribe_stops_stream():
    async def main():
        with ShardCluster(2, grid_size=8, transport="inline") as cluster:
            gateway = AsyncGateway(cluster)
            await gateway.load(_initial(1))
            await gateway.subscribe(QuerySpec(name="q0", point=(0.5, 0.5)))
            await gateway.initial_eval()
            await gateway.unsubscribe("q0")
            result = await gateway.tick()
            assert "q0" not in result.answers
    _run(main())


def test_tick_latency_percentile_nearest_rank():
    cluster = ShardCluster(1, grid_size=8)
    cluster.tick_latencies = [0.01 * i for i in range(1, 101)]
    assert cluster.tick_latency_percentile(50.0) == pytest.approx(0.50)
    assert cluster.tick_latency_percentile(99.0) == pytest.approx(0.99)
    assert cluster.tick_latency_percentile(100.0) == pytest.approx(1.00)
    with pytest.raises(ValueError):
        cluster.tick_latency_percentile(0.0)


def test_process_counters_merge_into_gateway_process():
    """The lost-counts bug, end to end through the serving stack: work
    done inside worker processes must land in the gateway's
    process-global STATS once counters are collected."""
    initial = _initial(7)
    rng = random.Random(8)
    before = stats_snapshot()
    with ShardCluster(
        2, grid_size=8, transport="process", mp_context="fork"
    ) as cluster:
        cluster.load(initial)
        for i in range(4):
            cluster.add_query(
                QuerySpec(name=f"q{i}", point=(rng.random(), rng.random()), k=2)
            )
        cluster.initial_eval()
        for _ in range(6):
            cluster.tick(
                [(oid, rng.random(), rng.random()) for oid in rng.sample(range(N), 25)]
            )
        cluster.collect_counters()
        merged = cluster.merged_registry()
    after = stats_snapshot()
    gained = sum(
        after[group][key] - before[group][key]
        for group in after
        for key in after[group]
    )
    assert gained > 0, "worker STATS never reached the gateway process"
    # The merged registry carries the workers' engine series: counters
    # and histograms summed across shards, gauges shard-labeled.
    assert len(merged) > 0
    assert any(m.kind == "gauge" and dict(m.labels).get("shard") for m in merged.collect())


@pytest.mark.parametrize("victim", [0, 1])
def test_dead_worker_surfaces_as_shard_fault(victim):
    """SIGKILL one worker of a two-shard process cluster.  The next tick
    drains the live shard, counts the fault and raises it as
    ``ShardFault(kind="WorkerLost")``; the live shard's pipe stays in
    sync, so its next reply answers the next request."""
    registry = MetricsRegistry()
    rng = random.Random(11)
    with ShardCluster(
        2, grid_size=8, transport="process", mp_context="fork", registry=registry
    ) as cluster:
        cluster.load(_initial(11))
        cluster.add_query(QuerySpec(name="q0", point=(0.5, 0.5)))
        cluster.initial_eval()
        dead = cluster.shards[victim]
        os.kill(dead._proc.pid, signal.SIGKILL)
        dead._proc.join(timeout=10)
        moves = [(oid, rng.random(), rng.random()) for oid in rng.sample(range(N), 10)]
        for _ in range(2):  # a lost worker stays lost, tick after tick
            with pytest.raises(ShardFault) as info:
                cluster.tick(moves)
            assert (info.value.shard_id, info.value.kind) == (victim, "WorkerLost")
        faults = registry.counter("shard_faults_total", shard=str(victim))
        assert faults.value == 2
        live = cluster.shards[1 - victim]
        assert live.request("counters")["shard_id"] == live.shard_id


def test_counters_requests_ship_deltas_not_totals():
    """Two collections in a row: the second must not double-count."""
    initial = _initial(9)
    rng = random.Random(10)
    with ShardCluster(
        1, grid_size=8, transport="process", mp_context="fork"
    ) as cluster:
        cluster.load(initial)
        cluster.add_query(QuerySpec(name="q0", point=(0.5, 0.5), k=2))
        cluster.initial_eval()
        for _ in range(3):
            cluster.tick(
                [(oid, rng.random(), rng.random()) for oid in rng.sample(range(N), 20)]
            )
        before = stats_snapshot()
        cluster.collect_counters()
        mid = stats_snapshot()
        # No further shard work: an immediate re-collection ships an
        # all-zero delta, so the singletons stay put.
        cluster.collect_counters()
        after = stats_snapshot()
    assert mid != before or after == mid  # first pull moved something
    assert after == mid


def test_gateway_metrics_published():
    registry_probe = {}

    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    with ShardCluster(
        2, grid_size=8, transport="inline", registry=registry
    ) as cluster:
        cluster.load(_initial(11))
        cluster.add_query(QuerySpec(name="q0", point=(0.5, 0.5)))
        cluster.add_query(QuerySpec(name="net", point=(0.2, 0.2)))
        cluster.initial_eval()
        cluster.tick([(0, 0.4, 0.4), (1, 0.6, 0.6)])
        registry_probe["queries"] = registry.get("gateway_queries_total")
        registry_probe["ticks"] = registry.get("gateway_ticks_total")
        registry_probe["updates"] = registry.get("gateway_updates_total")
        registry_probe["hist"] = registry.get("gateway_tick_seconds")
    assert registry_probe["queries"].value == 2
    assert registry_probe["ticks"].value == 1
    assert registry_probe["updates"].value == 2
    assert registry_probe["hist"].count == 1
