"""Lockstep conformance of the road-network distance mode.

The network-metric counterpart of ``tests/engine/test_scheduler.py``:
IGERN evaluating under shortest-path distance (the filter-and-refine
core of ``repro.core.network``) must produce bit-identical per-tick
answers with the scheduler on and off, with batching on and off, and —
at every tick of every configuration — match the independent networkx
brute oracle registered in the same simulator.

Network queries report no footprint (every object is a candidate, so
any mover can change the answer), so the scheduler must honestly
re-evaluate them every tick; that property is pinned here too.

Most lockstep cases move the query object every tick, which takes the
core's full re-evaluation path.  The fixed-query cases below move about
one object in ten, the path a monitoring workload runs: most candidates
keep their verdict through a witness certificate or the padded entry
test, and the answer must still match the oracle at every tick.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.mono import MonoIGERN
from repro.engine.simulation import Simulator
from repro.engine.workload import (
    WorkloadSpec,
    build_network,
    build_simulator,
    central_object,
)
from repro.fuzz.scenario import ScriptedWorkload
from repro.metric import STATS, NetworkMetric
from repro.motion.churn import ChurnRandomWalkGenerator
from repro.queries import (
    IGERNBiQuery,
    IGERNMonoQuery,
    NetworkBruteBiQuery,
    NetworkBruteMonoQuery,
    QueryPosition,
)


def _network_spec(kind: str, move_fraction: float = 1.0) -> WorkloadSpec:
    """A small road workload: objects move along a 36-node street grid
    (kept small because the oracle is quadratic in network distances)."""
    return WorkloadSpec(
        n_objects=80,
        grid_size=16,
        seed=11,
        network="grid_city",
        network_nodes=36,
        move_fraction=move_fraction,
        bichromatic=(kind == "bi"),
    )


def _register(sim: Simulator, network, kind: str, k: int) -> None:
    """The network-metric IGERN query plus the brute oracle, on the same
    (moving) query object — same seed in both simulators, same ids."""
    if kind == "mono":
        qid = central_object(sim)
        pos = QueryPosition(sim.grid, query_id=qid)
        sim.add_query(
            "q",
            IGERNMonoQuery(sim.grid, pos, k=k, metric=NetworkMetric(network)),
        )
        sim.add_query("oracle", NetworkBruteMonoQuery(sim.grid, pos, network, k=k))
    else:
        qid = central_object(sim, "A")
        pos = QueryPosition(sim.grid, query_id=qid)
        sim.add_query(
            "q",
            IGERNBiQuery(sim.grid, pos, k=k, metric=NetworkMetric(network)),
        )
        sim.add_query("oracle", NetworkBruteBiQuery(sim.grid, pos, network, k=k))


def _assert_network_lockstep(
    sim_on: Simulator, sim_off: Simulator, n_ticks: int
) -> None:
    res_on = sim_on.run(n_ticks)
    res_off = sim_off.run(n_ticks)
    answers_on = [t.answer for t in res_on["q"].ticks]
    answers_off = [t.answer for t in res_off["q"].ticks]
    assert answers_on == answers_off, "scheduler on/off answers diverged"
    for res, side in ((res_on, "on"), (res_off, "off")):
        igern = [t.answer for t in res["q"].ticks]
        oracle = [t.answer for t in res["oracle"].ticks]
        assert igern == oracle, f"engine differs from brute oracle ({side})"
    # Network queries carry no footprint, so nothing is ever skipped:
    # every answer above was honestly recomputed this tick.
    assert res_on.queries_skipped == 0
    assert res_off.queries_skipped == 0
    assert all(not t.skipped for t in res_on["q"].ticks)


@pytest.mark.parametrize(
    "kind,k",
    [("mono", 1), ("mono", 2), ("mono", 3), ("bi", 1), ("bi", 2), ("bi", 3)],
)
def test_lockstep_matrix(kind: str, k: int):
    """Scheduler on vs off vs brute oracle across mono/bi and k.

    The query object is part of the moving population, so every run is
    also a moving-query run."""
    spec = _network_spec(kind)
    network = build_network(spec)
    sim_on = build_simulator(spec, scheduler=True)
    sim_off = build_simulator(spec, scheduler=False)
    _register(sim_on, network, kind, k)
    _register(sim_off, network, kind, k)
    _assert_network_lockstep(sim_on, sim_off, n_ticks=6)


@pytest.mark.parametrize("kind", ["mono", "bi"])
def test_lockstep_partial_movement(kind: str):
    """Only half the population moves: the tick deltas are sparse, the
    skip machinery is tempted, and network answers must not go stale."""
    spec = _network_spec(kind, move_fraction=0.5)
    network = build_network(spec)
    sim_on = build_simulator(spec, scheduler=True)
    sim_off = build_simulator(spec, scheduler=False)
    _register(sim_on, network, kind, 2)
    _register(sim_off, network, kind, 2)
    _assert_network_lockstep(sim_on, sim_off, n_ticks=6)


@pytest.mark.parametrize("kind", ["mono", "bi"])
def test_lockstep_under_churn(kind: str):
    """Births and deaths of *off-network* objects: the spur (access
    cost) half of the distance spec, exercised end to end.  The fixed
    query sits mid-edge on the network."""
    categories = {"A": 0.4, "B": 0.6} if kind == "bi" else None
    network = build_network(_network_spec(kind))
    u, v, length = network.sorted_edges()[7]
    qpoint = network.point_on_edge(u, v, 0.5 * length)

    def make_sim(scheduler: bool) -> Simulator:
        gen = ChurnRandomWalkGenerator(
            70,
            seed=5,
            step_sigma=0.012,
            birth_rate=0.05,
            death_rate=0.05,
            categories=categories,
        )
        sim = Simulator(gen, grid_size=16, scheduler=scheduler)
        pos = QueryPosition(sim.grid, fixed=(qpoint.x, qpoint.y))
        if kind == "mono":
            sim.add_query(
                "q", IGERNMonoQuery(sim.grid, pos, metric=NetworkMetric(network))
            )
            sim.add_query("oracle", NetworkBruteMonoQuery(sim.grid, pos, network))
        else:
            sim.add_query(
                "q", IGERNBiQuery(sim.grid, pos, metric=NetworkMetric(network))
            )
            sim.add_query("oracle", NetworkBruteBiQuery(sim.grid, pos, network))
        return sim

    _assert_network_lockstep(make_sim(True), make_sim(False), n_ticks=8)


def _run_fixed_query(sim: Simulator, network, kind: str, k: int, n_ticks: int):
    """Register a network query at a fixed mid-edge point and its brute
    oracle, run, and check the answers and the state at every tick."""
    u, v, length = network.sorted_edges()[11]
    qpoint = network.point_on_edge(u, v, 0.5 * length)
    pos = QueryPosition(sim.grid, fixed=(qpoint.x, qpoint.y))
    metric = NetworkMetric(network)
    if kind == "mono":
        query = IGERNMonoQuery(sim.grid, pos, k=k, metric=metric)
        oracle = NetworkBruteMonoQuery(sim.grid, pos, network, k=k)
    else:
        query = IGERNBiQuery(sim.grid, pos, k=k, metric=metric)
        oracle = NetworkBruteBiQuery(sim.grid, pos, network, k=k)
    sim.add_query("q", query)
    sim.add_query("oracle", oracle)
    problems = []
    rebuilds = []

    def check(tick: int, sim: Simulator) -> None:
        problems.extend(query._state.check_invariants(sim.grid, k=k))
        rebuilds.append(query.last_report.movement_rebuild)

    res = sim.run(n_ticks, on_tick=check)
    igern = [t.answer for t in res["q"].ticks]
    assert igern == [t.answer for t in res["oracle"].ticks]
    assert problems == []
    # The query never moves, so no step is a full rebuild.
    assert not any(rebuilds)
    return query


@pytest.mark.parametrize(
    "kind,k",
    [("mono", 1), ("mono", 2), ("mono", 3), ("bi", 1), ("bi", 2), ("bi", 3)],
)
def test_fixed_query_sparse_movers_certified(kind: str, k: int):
    """A fixed query over road movers, one in ten moving a tick: the
    oracle's answer at every tick, and verdicts kept without a probe.
    Movers run several times the default speed, so within the run
    witnesses leave candidates' balls and enter answers' balls."""
    spec = dataclasses.replace(
        _network_spec(kind, move_fraction=0.1), speed_range=(0.02, 0.06)
    )
    network = build_network(spec)
    sim = build_simulator(spec, scheduler=True)
    query = _run_fixed_query(sim, network, kind, k, n_ticks=24)
    assert query.search.stats.certified > 0


def _sparse_churn_script(network, kind: str, seed: int, n_ticks: int) -> dict:
    """Road objects of which about one in ten jumps each tick, plus one
    off-network birth and one death per tick."""
    rng = random.Random(seed)
    edges = network.sorted_edges()

    def road_point():
        u, v, length = edges[rng.randrange(len(edges))]
        p = network.point_on_edge(u, v, rng.uniform(0.0, length))
        return [p.x, p.y]

    def category():
        return 0 if kind == "mono" else rng.choice(["A", "B"])

    live = list(range(60))
    script = {
        "initial": [[oid, *road_point(), category()] for oid in live],
        "ticks": [],
    }
    next_id = len(live)
    for _ in range(n_ticks):
        movers = rng.sample(live, len(live) // 10)
        gone = rng.choice([oid for oid in live if oid not in movers])
        live.remove(gone)
        born = [next_id, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), category()]
        live.append(next_id)
        next_id += 1
        script["ticks"].append(
            {
                "moves": [[oid, *road_point()] for oid in movers],
                "inserts": [born],
                "removes": [gone],
            }
        )
    return script


@pytest.mark.parametrize("kind", ["mono", "bi"])
def test_fixed_query_sparse_churn_certified(kind: str):
    """Sparse movers plus a birth off the network and a death every
    tick: inserted objects are new candidates and may enter an answer's
    ball, removed ones break the certificates naming them."""
    network = build_network(_network_spec(kind))
    script = _sparse_churn_script(network, kind, seed=17, n_ticks=12)
    sim = Simulator(ScriptedWorkload(script), grid_size=16, scheduler=True)
    query = _run_fixed_query(sim, network, kind, 2, n_ticks=12)
    assert query.search.stats.certified > 0


def test_batched_run_matches_cold_and_shares_maps():
    """batch=True answers equal batch=False answers bit for bit, and the
    shared tick context actually serves Dijkstra maps across the
    co-evaluated queries (the BRkNN-light sharing the counters report)."""
    spec = _network_spec("mono")
    network = build_network(spec)

    def make_sim(batch: bool) -> Simulator:
        sim = build_simulator(spec, scheduler=True, batch=batch)
        qid = central_object(sim)
        sim.add_query(
            "q1",
            IGERNMonoQuery(
                sim.grid,
                QueryPosition(sim.grid, query_id=qid),
                metric=NetworkMetric(network),
            ),
        )
        sim.add_query(
            "q2",
            IGERNMonoQuery(
                sim.grid,
                QueryPosition(sim.grid, fixed=(0.5, 0.5)),
                metric=NetworkMetric(network),
            ),
        )
        return sim

    hits_before = STATS.cache_hits
    res_batch = make_sim(True).run(4)
    assert STATS.cache_hits > hits_before
    res_cold = make_sim(False).run(4)
    for name in ("q1", "q2"):
        batched = [t.answer for t in res_batch[name].ticks]
        cold = [t.answer for t in res_cold[name].ticks]
        assert batched == cold, f"batched answers diverged for {name!r}"


def test_network_queries_report_no_footprint():
    """footprint() is None under a network metric: Euclidean cell boxes
    cannot bound network reach, so the query opts out of skipping and
    the scheduler treats it as always-affected."""
    spec = _network_spec("mono")
    network = build_network(spec)
    sim = build_simulator(spec, scheduler=True)
    qid = central_object(sim)
    query = IGERNMonoQuery(
        sim.grid,
        QueryPosition(sim.grid, query_id=qid),
        metric=NetworkMetric(network),
    )
    sim.add_query("q", query)
    sim.execute_queries()
    assert query.footprint() is None
    assert sim.scheduler.footprint("q") is None
    assert query.monitored_region_cells == 0
    assert query.monitored_area() == 1.0


def test_euclidean_core_refuses_network_metric():
    """The bisector-pruning core is a Euclidean-only theorem; handing it
    a network metric must fail loudly, not prune wrongly."""
    spec = _network_spec("mono")
    network = build_network(spec)
    sim = build_simulator(spec, scheduler=False)
    with pytest.raises(TypeError, match="[Ee]uclidean"):
        MonoIGERN(sim.grid, metric=NetworkMetric(network))


def test_default_metric_is_euclidean_and_unchanged():
    """Omitting ``metric`` keeps the exact pre-seam IGERN behavior —
    same core class, footprints present, scheduler skipping allowed."""
    spec = WorkloadSpec(n_objects=60, grid_size=12, seed=3, network="walk")
    sim = build_simulator(spec, scheduler=True)
    qid = central_object(sim)
    query = IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
    sim.add_query("q", query)
    sim.execute_queries()
    assert query.metric.euclidean
    assert query.footprint() is not None
