"""Process-global stats must survive the process boundary.

Regression tests for the lost-counts bug: the engine accounts low-level
work in three process-global mutable singletons
(``repro.geometry.predicates.STATS``, ``repro.metric.STATS``,
``repro.grid.store.STATS``).  Before the snapshot/merge seam, a
multiprocessing deployment silently dropped every count accumulated in a
worker — the parent's obs totals reflected only the parent's own (near
zero) work.  These tests pin the seam itself and the end-to-end
guarantee: a two-process run sums to the single-process totals.
"""

import multiprocessing
import random

import pytest

from repro.engine.simulation import Simulator
from repro.geometry.predicates import PredicateStats
from repro.grid.store import StoreStats
from repro.metric import MetricStats
from repro.motion.uniform import RandomWalkGenerator
from repro.obs.metrics import MetricsRegistry
from repro.queries import IGERNMonoQuery, QueryPosition
from repro.serving import QuerySpec, ShardCluster
from repro.serving.counters import merge_stats, stats_delta, stats_snapshot


# ----------------------------------------------------------------------
# Seam units
# ----------------------------------------------------------------------


def test_predicate_stats_snapshot_and_merge():
    stats = PredicateStats()
    stats.filter_hits = 3
    stats.exact_fallbacks = 1
    snap = stats.snapshot()
    assert snap == {"filter_hits": 3, "exact_fallbacks": 1}
    other = PredicateStats()
    other.filter_hits = 10
    other.merge(snap)
    assert other.filter_hits == 13
    assert other.exact_fallbacks == 1


def test_metric_stats_snapshot_and_merge():
    stats = MetricStats()
    stats.dijkstra_runs = 2
    stats.cache_hits = 5
    other = MetricStats()
    other.cache_misses = 4
    other.merge(stats.snapshot())
    assert other.dijkstra_runs == 2
    assert other.cache_hits == 5
    assert other.cache_misses == 4


def test_store_stats_snapshot_and_merge():
    stats = StoreStats()
    stats.rows_scanned = 7
    stats.exact_rows = 2
    other = StoreStats()
    other.merge(stats.snapshot())
    assert other.rows_scanned == 7
    assert other.filter_rows == 0
    assert other.exact_rows == 2


def test_stats_delta_is_per_counter_difference():
    base = {"metric": {"cache_hits": 3, "cache_misses": 1}}
    current = {"metric": {"cache_hits": 10, "cache_misses": 1}}
    assert stats_delta(base, current) == {
        "metric": {"cache_hits": 7, "cache_misses": 0}
    }


def test_registry_snapshot_merge_roundtrip():
    source = MetricsRegistry()
    source.counter("ticks_total").inc(4)
    source.gauge("objects_monitored").set(17)
    hist = source.histogram("tick_seconds", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)

    target = MetricsRegistry()
    target.counter("ticks_total").inc(1)
    target.merge(source.snapshot())

    assert target.counter("ticks_total").value == 5
    assert target.gauge("objects_monitored").value == 17
    merged = target.histogram("tick_seconds", buckets=(0.1, 1.0))
    assert merged.count == 3
    assert merged.total == pytest.approx(5.55)
    assert merged.bucket_counts == [1, 1, 1]


def test_registry_merge_tags_extra_labels():
    source = MetricsRegistry()
    source.counter("shard_ticks_total").inc(2)
    target = MetricsRegistry()
    target.merge(source.snapshot(), shard="3")
    assert target.counter("shard_ticks_total", shard="3").value == 2


def test_registry_merge_rejects_mismatched_histogram_buckets():
    source = MetricsRegistry()
    source.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
    target = MetricsRegistry()
    target.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
    with pytest.raises(ValueError):
        target.merge(source.snapshot())


# ----------------------------------------------------------------------
# Two-process summation (the bug end to end)
# ----------------------------------------------------------------------


def _run_workload(seed: int) -> dict:
    """One small monochromatic workload; returns the stats delta it
    produced in *this* process.  Module-level so fork children can run
    it."""
    base = stats_snapshot()
    generator = RandomWalkGenerator(40, seed=seed, step_sigma=0.03)
    sim = Simulator(generator, grid_size=8, scheduler=False, flight=False)
    sim.add_query(
        "igern",
        IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)), k=2),
    )
    sim.run(6)
    return stats_delta(base, stats_snapshot())


def _child_workload(seed: int, queue) -> None:
    queue.put(_run_workload(seed))


def _total(delta: dict) -> int:
    return sum(sum(group.values()) for group in delta.values())


def test_two_process_run_sums_to_single_process_totals():
    # Reference: both workloads in this process, sequentially.
    expected_a = _run_workload(11)
    expected_b = _run_workload(12)

    # Same workloads, one per forked worker.  Fork inherits the parent's
    # already-advanced singletons, which is exactly why workers must ship
    # deltas, not absolute snapshots.
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_child_workload, args=(seed, queue))
        for seed in (11, 12)
    ]
    for worker in workers:
        worker.start()
    deltas = [queue.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0

    before = stats_snapshot()
    for delta in deltas:
        merge_stats(delta)
    merged = stats_delta(before, stats_snapshot())

    combined = {
        group: {
            key: expected_a[group][key] + expected_b[group][key]
            for key in expected_a[group]
        }
        for group in expected_a
    }
    assert merged == combined
    # The workloads actually exercised the counters — a vacuous zero/zero
    # equality would not have caught the original bug.
    assert _total(merged) > 0


# ----------------------------------------------------------------------
# One process, several engines: every unit of work counted once
# ----------------------------------------------------------------------

#: Registry counter -> the process-global stat it mirrors.
MIRRORED = {
    "predicate_filter_hits_total": ("predicates", "filter_hits"),
    "predicate_exact_fallbacks_total": ("predicates", "exact_fallbacks"),
    "store_rows_scanned_total": ("store", "rows_scanned"),
    "store_vectorized_filter_rows_total": ("store", "filter_rows"),
    "store_exact_fallback_rows_total": ("store", "exact_rows"),
    "network_dijkstra_runs_total": ("metric", "dijkstra_runs"),
    "network_dijkstra_expansions_total": ("metric", "dijkstra_expansions"),
    "network_distance_cache_hits_total": ("metric", "cache_hits"),
    "network_distance_cache_misses_total": ("metric", "cache_misses"),
}


@pytest.mark.parametrize("n_sims", [1, 3])
def test_simulators_sharing_a_registry_publish_only_their_own_work(n_sims):
    registry = MetricsRegistry()
    sims = []
    for seed in range(n_sims):
        sim = Simulator(
            RandomWalkGenerator(300, seed=seed, step_sigma=0.03),
            grid_size=8,
            registry=registry,
            flight=False,
        )
        sim.add_query(
            "igern",
            IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5))),
        )
        sims.append(sim)
    before = stats_snapshot()
    for sim in sims:
        sim.execute_queries()
    for _ in range(10):
        for sim in sims:
            sim.step()
    worked = stats_delta(before, stats_snapshot())
    assert worked["predicates"]["filter_hits"] > 0
    assert worked["store"]["rows_scanned"] > 0
    for counter, (group, key) in MIRRORED.items():
        assert registry.counter(counter).value == worked[group][key], counter


@pytest.mark.parametrize("n_shards", [1, 3])
def test_inline_shards_do_not_merge_their_counts_twice(n_shards):
    """Inline shards count into this process's singletons as they work;
    collecting their counters must not add that work a second time."""
    rng = random.Random(7)
    initial = [(i, rng.random(), rng.random(), 0) for i in range(300)]
    specs = [
        QuerySpec(name=f"q{i}", point=(rng.random(), rng.random()))
        for i in range(6)
    ]
    ticks = [
        [(i, rng.random(), rng.random()) for i in rng.sample(range(300), 30)]
        for _ in range(10)
    ]
    before = stats_snapshot()
    with ShardCluster(n_shards, grid_size=8, transport="inline") as cluster:
        cluster.load(initial)
        for spec in specs:
            cluster.add_query(spec)
        cluster.initial_eval()
        for moves in ticks:
            cluster.tick(moves)
        worked = stats_delta(before, stats_snapshot())
        cluster.collect_counters()
        assert stats_delta(before, stats_snapshot()) == worked
    assert worked["predicates"]["filter_hits"] > 0
