"""The sharded serving layer must be bit-identical to the engine.

Lockstep correctness harness for ``repro.serving``: the same frozen
event stream is replayed through a single-process simulator and through
the sharded cluster (inline and ``multiprocessing`` transports), and
every per-tick answer and lease decision must match exactly.  On top of
the deterministic scenarios here, the fuzz stream runs with the serving
participant enabled — mono and bi modes, k up to 3, churn, road-network
metrics and lease mode all ride the generated coverage.
"""

import random

import pytest

from repro.engine.simulation import Simulator
from repro.fuzz.runner import run_fuzz
from repro.geometry.point import Point
from repro.motion.roadnet import RoadNetwork
from repro.queries import QueryPosition
from repro.queries.base import ContinuousQuery
from repro.serving import QuerySpec, ShardCluster, ShardFault, build_query
from repro.serving.router import shard_of_cell
from repro.serving.shard import PushFeed, decode_events

GRID_SIZE = 16
N_SHARDS = 3


def _workload(seed: int, n_objects: int = 120, n_ticks: int = 8, bi: bool = False):
    """A deterministic wire-format workload: initial set + per-tick moves."""
    rng = random.Random(seed)
    cats = ("A", "B") if bi else (0,)
    initial = [
        (i, rng.random(), rng.random(), cats[i % len(cats)])
        for i in range(n_objects)
    ]
    ticks = []
    for _ in range(n_ticks):
        moved = rng.sample(range(n_objects), max(1, n_objects // 6))
        ticks.append([(i, rng.random(), rng.random()) for i in moved])
    return initial, ticks


def _reference(initial, ticks, specs, *, lease=False, network=None):
    """Single-process per-tick answers (and lease states) for the same
    stream: the oracle every sharded run is held to."""
    feed = PushFeed([(o, Point(x, y), c) for o, x, y, c in initial])
    sim = Simulator(feed, grid_size=GRID_SIZE, flight=False, lease=lease)
    for spec in specs:
        sim.add_query(spec.name, build_query(spec, sim, network))
    answers = [
        {n: tuple(sorted(m.answer)) for n, m in sim.execute_queries().items()}
    ]
    leases = [_lease_states(sim)]
    for moves in ticks:
        feed.push(decode_events(moves, [], []))
        answers.append({n: tuple(sorted(m.answer)) for n, m in sim.step().items()})
        leases.append(_lease_states(sim))
    return answers, leases


def _lease_states(sim):
    if sim.scheduler is None:
        return {}
    return {
        name: (state.spent, state.tainted, state.broken)
        for name, state in sim.scheduler.lease_states().items()
    }


def _drive(cluster, initial, ticks, specs):
    """Load, subscribe, and replay; returns per-tick merged answers and
    lease decisions."""
    cluster.load(initial)
    for spec in specs:
        cluster.add_query(spec)
    result = cluster.initial_eval()
    answers = [{n: a for n, (a, _s, _r) in result.answers.items()}]
    leases = [dict(result.leases)]
    for moves in ticks:
        result = cluster.tick(moves)
        answers.append({n: a for n, (a, _s, _r) in result.answers.items()})
        leases.append(dict(result.leases))
    return answers, leases


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_mono_answers_bit_identical(transport):
    initial, ticks = _workload(seed=101)
    rng = random.Random(5)
    specs = [
        QuerySpec(name=f"q{i}", point=(rng.random(), rng.random()), k=1 + i % 3)
        for i in range(6)
    ]
    expected, _ = _reference(initial, ticks, specs)
    with ShardCluster(
        N_SHARDS, grid_size=GRID_SIZE, transport=transport, mp_context="fork"
    ) as cluster:
        got, _ = _drive(cluster, initial, ticks, specs)
    assert got == expected


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_bi_answers_bit_identical(transport):
    initial, ticks = _workload(seed=202, bi=True)
    rng = random.Random(9)
    specs = [
        QuerySpec(
            name=f"b{i}", mode="bi", point=(rng.random(), rng.random()), k=1 + i % 2
        )
        for i in range(4)
    ]
    expected, _ = _reference(initial, ticks, specs)
    with ShardCluster(
        N_SHARDS, grid_size=GRID_SIZE, transport=transport, mp_context="fork"
    ) as cluster:
        got, _ = _drive(cluster, initial, ticks, specs)
    assert got == expected


def test_boundary_straddling_footprints_fanout_agree():
    """Queries dropped exactly on stripe boundaries, with the fan-out
    agreement check registering every query on every shard: any replica
    disagreement raises at merge time.  The test also proves the
    scenario really straddles — at least one registered footprint spans
    more than one stripe."""
    initial, ticks = _workload(seed=303, n_objects=150)
    # Stripe boundaries of 3 shards over a 16-column grid fall after
    # columns 5 and 10; x just around 6/16 and 11/16 lands cells on both
    # sides of a boundary into the query footprints.
    boundary_points = [(6 / 16, 0.5), (11 / 16, 0.4), (6 / 16 - 0.01, 0.6)]
    specs = [
        QuerySpec(name=f"edge{i}", point=pt, k=2)
        for i, pt in enumerate(boundary_points)
    ]
    expected, _ = _reference(initial, ticks, specs)
    with ShardCluster(
        N_SHARDS, grid_size=GRID_SIZE, transport="inline", fanout_check=True
    ) as cluster:
        got, _ = _drive(cluster, initial, ticks, specs)
        straddlers = 0
        shard0 = cluster.shards[0]._state.sim
        for spec in specs:
            fp = shard0.scheduler.footprint(spec.name)
            if fp is not None and len(
                {shard_of_cell(c, GRID_SIZE, N_SHARDS) for c in fp.cells}
            ) > 1:
                straddlers += 1
        assert straddlers > 0, "no footprint straddled a stripe boundary"
    assert got == expected


def test_network_queries_pinned_and_identical():
    """Footprint-less network-metric queries are pinned to their owning
    shard and answered from its full replica, bit-identically."""
    network = RoadNetwork.grid_city(rows=6, cols=6, seed=4)
    initial, ticks = _workload(seed=404, n_objects=40, n_ticks=5)
    specs = [
        QuerySpec(name="net0", point=(0.3, 0.5), metric="network"),
        QuerySpec(name="net1", point=(0.8, 0.2), metric="network", k=2),
        QuerySpec(name="euc0", point=(0.5, 0.5), k=1),
    ]
    expected, _ = _reference(initial, ticks, specs, network=network)
    with ShardCluster(
        N_SHARDS, grid_size=GRID_SIZE, transport="inline", network=network
    ) as cluster:
        got, _ = _drive(cluster, initial, ticks, specs)
        owners = {cluster.owner["net0"], cluster.owner["net1"]}
        assert owners <= set(range(N_SHARDS))
    assert got == expected


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_lease_decisions_bit_identical(transport):
    """Lease mode across the cluster: answers *and* the lease ledger
    (spent budget / taint / break per live lease) match the
    single-process lease-mode engine, and at least one lease actually
    holds so the comparison is not vacuous."""
    rng = random.Random(77)
    initial = [(i, rng.random(), rng.random(), 0) for i in range(150)]
    # Mostly-static regime: tiny jitter on a handful of objects per
    # tick, so derived leases survive several ticks.
    positions = {oid: (x, y) for oid, x, y, _c in initial}
    ticks = []
    for _ in range(10):
        moved = rng.sample(range(150), 5)
        tick = []
        for oid in moved:
            x, y = positions[oid]
            nx = min(max(x + rng.uniform(-0.004, 0.004), 0.0), 1.0)
            ny = min(max(y + rng.uniform(-0.004, 0.004), 0.0), 1.0)
            positions[oid] = (nx, ny)
            tick.append((oid, nx, ny))
        ticks.append(tick)
    specs = [
        QuerySpec(name=f"q{i}", point=(rng.random(), rng.random()))
        for i in range(5)
    ]
    expected, expected_leases = _reference(initial, ticks, specs, lease=True)
    with ShardCluster(
        N_SHARDS,
        grid_size=GRID_SIZE,
        transport=transport,
        lease=True,
        mp_context="fork",
    ) as cluster:
        got, got_leases = _drive(cluster, initial, ticks, specs)
    assert got == expected
    assert got_leases == expected_leases
    assert any(expected_leases), "no lease was ever issued; test is vacuous"


def test_pause_resume_matches_single_process():
    initial, ticks = _workload(seed=505, n_ticks=6)
    spec = QuerySpec(name="q0", point=(0.5, 0.5), k=2)
    other = QuerySpec(name="q1", point=(0.2, 0.8))

    # Reference with the same pause window (ticks 2-3 silent).
    feed = PushFeed([(o, Point(x, y), c) for o, x, y, c in initial])
    ref = Simulator(feed, grid_size=GRID_SIZE, flight=False)
    for query in (spec, other):
        ref.add_query(query.name, build_query(query, ref, None))
    expected = [
        {n: tuple(sorted(m.answer)) for n, m in ref.execute_queries().items()}
    ]
    for t, moves in enumerate(ticks, start=1):
        if t == 2:
            ref.pause_query("q0")
        if t == 4:
            ref.resume_query("q0")
        feed.push(decode_events(moves, [], []))
        expected.append({n: tuple(sorted(m.answer)) for n, m in ref.step().items()})

    with ShardCluster(N_SHARDS, grid_size=GRID_SIZE, transport="inline") as cluster:
        cluster.load(initial)
        cluster.add_query(spec)
        cluster.add_query(other)
        result = cluster.initial_eval()
        got = [{n: a for n, (a, _s, _r) in result.answers.items()}]
        for t, moves in enumerate(ticks, start=1):
            if t == 2:
                cluster.pause_query("q0")
            if t == 4:
                cluster.resume_query("q0")
            result = cluster.tick(moves)
            got.append({n: a for n, (a, _s, _r) in result.answers.items()})

    # While paused, the owning shard omits q0 from its tick results; the
    # reference simulator does the same.
    assert got == expected
    assert all("q0" not in tick_answers for tick_answers in got[2:4])


def test_fuzz_scenarios_with_serving_participant():
    """Generated coverage: the serving cluster rides the differential
    fuzz stream (mono/bi, k<=3, churn, road networks, lease mode) and
    must never diverge from the lockstep table's simulators."""
    report = run_fuzz(seed=8162, max_scenarios=6, serving=True)
    assert report.ok, report.summary()
    assert report.scenarios == 6


class _BombQuery(ContinuousQuery):
    name = "BOMB"

    def __init__(self, grid, position):
        super().__init__(grid, position)
        self.armed = False

    def initial(self):
        if self.armed:
            raise RuntimeError("injected shard fault")
        return self._answer

    def tick(self):
        if self.armed:
            raise RuntimeError("injected shard fault")
        return self._answer


def test_shard_fault_surfaces_and_heals():
    """A query blowing up inside a shard surfaces as :class:`ShardFault`
    at the gateway, and the next tick serves correct answers again — the
    worker's poisoned-tick bookkeeping forces full re-evaluation instead
    of trusting footprints whose tick was half-applied."""
    initial, ticks = _workload(seed=606, n_ticks=4)
    spec = QuerySpec(name="q0", point=(0.5, 0.5), k=2)
    expected, _ = _reference(initial, ticks, [spec])

    with ShardCluster(N_SHARDS, grid_size=GRID_SIZE, transport="inline") as cluster:
        cluster.load(initial)
        cluster.add_query(spec)
        cluster.initial_eval()
        owner = cluster.owner["q0"]
        shard_sim = cluster.shards[owner]._state.sim
        bomb = _BombQuery(
            shard_sim.grid, QueryPosition(shard_sim.grid, fixed=(0.5, 0.5))
        )
        shard_sim.add_query("bomb", bomb)
        cluster.tick(ticks[0])

        bomb.armed = True
        with pytest.raises(ShardFault, match="injected shard fault"):
            cluster.tick(ticks[1])
        assert shard_sim.poisoned_tick == 2

        bomb.armed = False
        result = cluster.tick(ticks[2])
        assert shard_sim.poisoned_tick is None
        # Tick numbering: the faulted tick still consumed tick 2 on the
        # owner, so this is tick 3 — compare against the reference's
        # tick-3 answers (index 3: initial + ticks 1..3).
        assert result.answers["q0"][0] == expected[3]["q0"]
