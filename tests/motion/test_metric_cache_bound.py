"""A road network's memos must stay bounded across ticks.

A :class:`RoadNetwork` memoizes edge snaps (``snap_memo``) and
single-source distance maps (``distance_memo``) for every
:class:`NetworkMetric` over it.  Networks are immutable, so entries
never go stale and retention is a pure memory policy: at each tick
boundary — a new ``GridIndex.mutations`` stamp seen by
:meth:`RoadNetwork.observe_grid` — both memos drop what the finished
tick did not request, and nothing is evicted within a tick.  There is
no entry cap: a tick that needs more sources than any cap would
otherwise recompute them over and over.
"""

import pickle
import random

from repro.core.network import NetworkCore
from repro.engine.simulation import Simulator
from repro.fuzz.scenario import ScriptedWorkload
from repro.grid.index import GridIndex
from repro.metric import STATS, NetworkMetric
from repro.motion.churn import ChurnRandomWalkGenerator
from repro.motion.generator import NetworkMovingObjectGenerator
from repro.motion.roadnet import RoadNetwork
from repro.queries import IGERNMonoQuery, QueryPosition


def _one_object_grid() -> GridIndex:
    grid = GridIndex(4)
    grid.insert("a", (0.5, 0.5))
    return grid


def _network_query(sim: Simulator, metric: NetworkMetric) -> None:
    sim.add_query(
        "net",
        IGERNMonoQuery(
            sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)), metric=metric
        ),
    )


def test_each_source_costs_one_run_within_a_tick():
    # 20x20 grid city: 400 nodes, more sources than a 256-entry cap.
    net = RoadNetwork.grid_city(rows=20, cols=20, seed=3)
    grid = _one_object_grid()
    metrics = [NetworkMetric(net), NetworkMetric(net)]
    runs = STATS.dijkstra_runs
    for metric in metrics:
        metric.observe_grid(grid)
        for source in net.nodes:
            metric.node_distances(source)
    assert STATS.dijkstra_runs - runs == len(net.nodes) > 256


def test_epoch_change_evicts_untouched_sources():
    net = RoadNetwork.grid_city(rows=4, cols=4, seed=1)
    memo = net.distance_memo
    metric = NetworkMetric(net)
    grid = _one_object_grid()
    metric.observe_grid(grid)
    first_six = list(net.nodes[:6])
    straggler = net.nodes[6]
    for source in first_six:
        metric.node_distances(source)
    assert len(memo) == 6

    # Epoch boundary: everything was touched last epoch, so all survive.
    grid.move("a", (0.6, 0.6))
    metric.observe_grid(grid)
    assert len(memo) == 6

    # Only the straggler is touched this epoch; the next boundary drops
    # the first six.
    metric.node_distances(straggler)
    grid.move("a", (0.7, 0.7))
    metric.observe_grid(grid)
    assert len(memo) == 1 and straggler in memo

    # Same stamp again: no further eviction.
    metric.observe_grid(grid)
    assert len(memo) == 1 and straggler in memo


def test_evicted_sources_recompute_identically():
    net = RoadNetwork.grid_city(rows=5, cols=5, seed=2)
    metric = NetworkMetric(net)
    grid = _one_object_grid()
    a, b = net.nodes[0], net.nodes[1]
    metric.observe_grid(grid)
    first = metric.node_distances(a)
    # Two boundaries with ``a`` unrequested in between evict it.
    for target in ((0.6, 0.6), (0.7, 0.7)):
        grid.move("a", target)
        metric.observe_grid(grid)
        metric.node_distances(b)
    assert a not in net.distance_memo
    again = metric.node_distances(a)
    assert again == first and again is not first


class _RecordingMetric(NetworkMetric):
    """Records every distance-map request, for the retention bound."""

    def __init__(self, network):
        super().__init__(network)
        self.requested = set()

    def node_distances(self, source):
        self.requested.add(source)
        return super().node_distances(source)


def test_cache_pinned_over_long_churn_run():
    """End to end: a scheduler-off network simulator over heavy churn
    holds the network's distance memo at the current and previous
    ticks' sources, not at one entry per source node ever touched."""
    net = RoadNetwork.grid_city(rows=20, cols=20, seed=9)
    generator = ChurnRandomWalkGenerator(
        24, seed=5, step_sigma=0.05, birth_rate=0.3, death_rate=0.3
    )
    sim = Simulator(generator, grid_size=8, scheduler=False, flight=False)
    metric = _RecordingMetric(net)
    _network_query(sim, metric)
    sim.run(0)
    previous = set(metric.requested)
    union = set(previous)
    largest_tick = len(previous)
    for _ in range(30):
        metric.requested = set()
        sim.step()
        current = metric.requested
        assert len(net.distance_memo) <= len(previous | current)
        union |= current
        largest_tick = max(largest_tick, len(current))
        previous = current
    # The bound has teeth: the run touched far more sources than two
    # ticks' worth.
    assert len(union) > 2 * largest_tick


def test_snap_memo_bounded_by_two_ticks_of_positions():
    """Every move snaps a new raw position; the snap memo must forget
    the positions objects have left instead of keeping one per move."""
    net = RoadNetwork.grid_city(rows=6, cols=6, seed=1)
    generator = NetworkMovingObjectGenerator(net, 16, seed=3)
    sim = Simulator(generator, grid_size=8, flight=False)
    _network_query(sim, NetworkMetric(net))
    sim.run(0)
    # Per tick: the live positions plus the query point.
    per_tick = len(sim.grid) + 1
    for _ in range(300):
        sim.step()
        assert len(net.snap_memo) <= 2 * per_tick


def test_second_tick_runs_at_most_two_dijkstras_per_moved_object():
    """With maps kept across ticks, a tick recomputes only the sources
    a move introduced — the two endpoints of the mover's new edge."""
    net = RoadNetwork.grid_city(rows=6, cols=6, seed=4)
    rng = random.Random(7)
    edges = net.sorted_edges()

    def road_point():
        u, v, length = edges[rng.randrange(len(edges))]
        p = net.point_on_edge(u, v, rng.uniform(0.0, length))
        return [p.x, p.y]

    script = {
        "initial": [[oid, *road_point(), 0] for oid in range(12)],
        "ticks": [{"moves": [[0, *road_point()]]} for _ in range(2)],
    }
    sim = Simulator(ScriptedWorkload(script), grid_size=8, batch=True, flight=False)
    _network_query(sim, NetworkMetric(net))
    sim.run(0)
    sim.step()
    runs = STATS.dijkstra_runs
    sim.step()
    assert STATS.dijkstra_runs - runs <= 2


def test_pickled_network_carries_no_memo_entries():
    net = RoadNetwork.grid_city(rows=4, cols=4, seed=0)
    metric = NetworkMetric(net)
    metric.distance((0.1, 0.1), (0.9, 0.9))
    assert len(net.snap_memo) and len(net.distance_memo)
    clone = pickle.loads(pickle.dumps(net))
    assert len(clone.snap_memo) == 0 and len(clone.distance_memo) == 0
    assert NetworkMetric(clone).distance((0.1, 0.1), (0.9, 0.9)) == metric.distance(
        (0.1, 0.1), (0.9, 0.9)
    )


class _EveryCandidateCore(NetworkCore):
    """Re-probes every candidate every step, as the core did before it
    kept witness certificates: the reference for the retention bound."""

    def incremental(self, state, qpos):
        fresh, report = self.initial(qpos)
        vars(state).update(vars(fresh))
        return report


def test_certificates_keep_memos_and_dijkstra_runs_at_every_candidate_levels():
    """Verdicts kept without a probe still read the snap and the two
    distance maps a probe would, so on a fixed-query run with one mover
    in ten neither memo outgrows a run that re-probes every candidate,
    and Dijkstra stays at most one run a tick once the memos are warm."""
    points = [(0.3, 0.3), (0.7, 0.7), (0.7, 0.3), (0.3, 0.7),
              (0.5, 0.5), (0.5, 0.2), (0.2, 0.5), (0.8, 0.5)]

    def make_sim(reference: bool):
        net = RoadNetwork.grid_city(rows=12, cols=12, seed=0)
        generator = NetworkMovingObjectGenerator(net, 40, seed=6, move_fraction=0.1)
        sim = Simulator(generator, grid_size=8, flight=False)
        queries = []
        for i, point in enumerate(points):
            query = IGERNMonoQuery(
                sim.grid, QueryPosition(sim.grid, fixed=point), metric=NetworkMetric(net)
            )
            if reference:
                query._algo = _EveryCandidateCore(
                    sim.grid, query.metric, search=query.search
                )
            sim.add_query(f"q{i}", query)
            queries.append(query)
        return sim, net, queries

    sim, net, queries = make_sim(reference=False)
    ref_sim, ref_net, _ = make_sim(reference=True)
    sim.run(0)
    ref_sim.run(0)
    runs = ref_runs = 0
    warm_up, n_ticks = 5, 60
    for tick in range(1, n_ticks + 1):
        before = STATS.dijkstra_runs
        sim.step()
        between = STATS.dijkstra_runs
        ref_sim.step()
        if tick > warm_up:
            runs += between - before
            ref_runs += STATS.dijkstra_runs - between
        assert sim.grid.positions_snapshot() == ref_sim.grid.positions_snapshot()
        assert len(net.snap_memo) <= len(ref_net.snap_memo)
        assert len(net.distance_memo) <= len(ref_net.distance_memo)
    assert runs <= ref_runs
    assert runs <= n_ticks - warm_up
    # The run did take the certificate path.
    assert sum(q.search.stats.certified for q in queries) > 0


def test_retention_reads_keep_entries_without_counting_requests():
    """``NetworkMetric.retain`` carries a point's snap and its edge's two
    endpoint maps across tick boundaries, and counts no cache request,
    hit or miss, and no Dijkstra run."""
    net = RoadNetwork.grid_city(rows=4, cols=4, seed=1)
    metric = NetworkMetric(net)
    grid = _one_object_grid()
    metric.observe_grid(grid)
    point = (0.31, 0.42)
    located = metric.locate(point)
    metric.distance_located(located, metric.locate((0.9, 0.9)))
    before = STATS.snapshot()
    for target in ((0.6, 0.6), (0.7, 0.7), (0.8, 0.8)):
        grid.move("a", target)
        metric.observe_grid(grid)
        metric.retain(point, located)
    assert STATS.snapshot() == before
    assert point in net.snap_memo
    assert located[0] in net.distance_memo and located[1] in net.distance_memo
