"""Property suite for the road-network distance spec and Dijkstra kernel.

This file pins the assumptions the network-metric mode's differential
story rests on:

1. the engine's hand-rolled lazy-deletion Dijkstra kernel
   (``NetworkMetric.compute_distances``) is **bit-identical** to
   ``networkx.single_source_dijkstra_path_length`` on every source of
   every test network — both are left folds ``dist[u] + w`` over
   non-negative weights, so the minimum over relaxation orders equals
   the minimum over paths;
2. flipping the relaxation comparison from ``<`` to ``<=`` leaves every
   distance bit-identical (equal sums overwrite equal sums) — which is
   why the fuzzer's planted Dijkstra mutants target the *observable*
   stale-entry guard and the strict witness comparison instead;
3. the point-distance spec (:meth:`RoadNetwork.locate` /
   :meth:`RoadNetwork.point_to_point`) behaves like a metric up to
   fold-order rounding, lower-bounds nothing below straight-line
   distance (the property that keeps the Euclidean grid prefilter
   sound), and round-trips on-network points.
"""

import heapq
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.index import GridIndex
from repro.metric import EUCLIDEAN, PREFILTER_PAD, STATS, NetworkMetric
from repro.motion.roadnet import RoadNetwork

NETWORKS = {
    "grid-jittered": RoadNetwork.grid_city(rows=5, cols=5, seed=2),
    "grid-exact": RoadNetwork.grid_city(
        rows=4, cols=4, jitter=0.0, diagonal_prob=0.0, seed=0
    ),
    "radial": RoadNetwork.radial_city(rings=3, spokes=6, seed=1),
}

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
points = st.tuples(coords, coords)
network_names = st.sampled_from(sorted(NETWORKS))


def nx_distances(net: RoadNetwork, source: int) -> dict:
    return nx.single_source_dijkstra_path_length(
        net.graph, source, weight="length"
    )


# ----------------------------------------------------------------------
# 1-2. The Dijkstra kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_kernel_bit_identical_to_networkx_every_source(name):
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    for source in net.nodes:
        ours = metric.compute_distances(source)
        theirs = nx_distances(net, source)
        assert ours == theirs, f"source {source} maps differ on {name}"


def leq_compute_distances(net: RoadNetwork, source: int) -> dict:
    """The engine kernel with the relaxation flipped to ``<=``."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] < d:
            continue
        for v, w in net.neighbors(u):
            nd = d + w
            if nd <= dist.get(v, math.inf):  # the flipped relaxation
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_relaxation_leq_flip_is_value_preserving(name):
    """``<`` -> ``<=`` in the relaxation cannot change any distance:
    equal left-fold sums overwrite equal sums.  A mutation fuzzer run
    therefore can NOT catch this flip through answers — the planted
    mutants in ``tests/fuzz/test_network_mutation.py`` target the
    stale-entry guard and the witness comparison, which are
    observable."""
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    for source in net.nodes:
        assert metric.compute_distances(source) == leq_compute_distances(
            net, source
        )


def test_stale_guard_flip_breaks_the_kernel():
    """Sanity for the planted mutant: flipping the *stale-entry guard*
    (``dist[u] < d`` -> ``<=``) discards every queue entry except the
    source's and is observably wrong — unlike the relaxation flip."""
    net = NETWORKS["grid-exact"]

    def mutated(source):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] <= d:  # planted: drops fresh entries too
                continue
            for v, w in net.neighbors(u):
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    source = net.nodes[0]
    assert mutated(source) != NetworkMetric(net).compute_distances(source)


# ----------------------------------------------------------------------
# 3. Point-distance properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_identity_at_nodes_is_exactly_zero(name):
    """d(x, x) == 0.0 *exactly* for node positions: the snap spur is
    exactly 0.0 there (the projection residual vanishes bit-for-bit)
    and the same-edge route of equal offsets is 0.0."""
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    for node in net.nodes:
        p = net.node_pos(node)
        assert metric.distance(p, p) == 0.0


@given(name=network_names, p=points)
def test_identity_on_edge_points_is_rounding_small(name, p):
    """For mid-edge points the re-projection residual is not exactly
    zero (one rounding step), so identity holds to ~1 ulp of the
    coordinates rather than bit-exactly."""
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    loc = net.locate(p)
    on_net = net.point_on_edge(loc[0], loc[1], loc[2])
    assert metric.distance(on_net, on_net) <= 1e-12


@given(name=network_names, p=points)
def test_identity_off_network_is_twice_the_spur(name, p):
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    spur = net.locate(p)[3]
    assert metric.distance(p, p) == (spur + 0.0) + spur


@given(name=network_names, a=points, b=points)
def test_symmetry_up_to_fold_order(name, a, b):
    """Swapping operands swaps which side sources the Dijkstra maps, so
    the float folds differ in order — values agree to ~1 ulp scale."""
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    dab = metric.distance(a, b)
    dba = metric.distance(b, a)
    assert dab == pytest.approx(dba, rel=1e-9, abs=1e-12)


@given(name=network_names, a=points, b=points, c=points)
def test_triangle_inequality(name, a, b, c):
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    dac = metric.distance(a, c)
    dab = metric.distance(a, b)
    dbc = metric.distance(b, c)
    assert dac <= (dab + dbc) * (1.0 + 1e-9) + 1e-12


@given(name=network_names, a=points, b=points)
def test_network_distance_dominates_euclidean(name, a, b):
    """The property that keeps grid pruning valid in network mode: the
    straight line lower-bounds the network path, so a padded Euclidean
    ball is a sound superset filter (ISSUE acceptance, ALGORITHM.md)."""
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    d_net = metric.distance(a, b)
    d_euc = EUCLIDEAN.distance(a, b)
    assert d_euc <= d_net * PREFILTER_PAD
    assert metric.prefilter_radius(d_net) >= d_euc


@given(name=network_names, a=points, b=points)
def test_engine_and_oracle_point_distances_bit_identical(name, a, b):
    """The lockstep's core claim at the smallest grain: the engine's
    memoized kernel and the oracle's networkx maps produce the *same
    bits* through the shared ``point_to_point`` combination."""
    net = NETWORKS[name]
    metric = NetworkMetric(net)
    loc_a, loc_b = net.locate(a), net.locate(b)
    engine = net.point_to_point(loc_a, loc_b, metric.node_distances)
    oracle = net.point_to_point(loc_a, loc_b, lambda s: nx_distances(net, s))
    assert engine == oracle


# ----------------------------------------------------------------------
# Snap round-trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_node_positions_snap_with_zero_spur(name):
    net = NETWORKS[name]
    for node in net.nodes:
        u, v, offset, spur = net.locate(net.node_pos(node))
        assert spur == 0.0
        snapped = net.point_on_edge(u, v, offset)
        assert snapped.distance_to(net.node_pos(node)) <= 1e-12


@settings(max_examples=60)
@given(name=network_names, t=st.floats(min_value=0.05, max_value=0.95))
def test_point_on_edge_round_trip(name, t):
    """A point manufactured on an edge snaps back to (that or an equally
    close) edge with ~zero spur, and the snap reconstructs the point."""
    net = NETWORKS[name]
    rng = random.Random(int(t * 1e6))
    edges = net.sorted_edges()
    u, v, length = edges[rng.randrange(len(edges))]
    p = net.point_on_edge(u, v, t * length)
    su, sv, offset, spur = net.locate(p)
    assert spur <= 1e-12
    reconstructed = net.point_on_edge(su, sv, offset)
    assert reconstructed.distance_to(p) <= 1e-9


def test_locate_is_memoized_and_tie_broken_canonically():
    net = NETWORKS["grid-exact"]
    p = net.node_pos(5)  # an interior node: several incident edges tie
    first = net.locate(p)
    assert net.locate((p.x, p.y)) is first  # served from the snap memo
    # Canonical order: the closest edge with the smallest (u, v).
    candidates = [
        (u, v)
        for u, v, _ in net.sorted_edges()
        if 5 in (u, v)
    ]
    assert (first[0], first[1]) == min(candidates)


# ----------------------------------------------------------------------
# Distance-map sharing
# ----------------------------------------------------------------------


def test_distance_maps_shared_across_metrics_and_ticks():
    net = NETWORKS["grid-jittered"]
    grid = GridIndex(8)
    grid.insert(0, (0.5, 0.5))
    metric = NetworkMetric(net)
    other = NetworkMetric(net)
    metric.observe_grid(grid)

    # One memo per network: a second metric reads the first one's map.
    hits = STATS.cache_hits
    shared = other.node_distances(net.nodes[1])
    assert metric.node_distances(net.nodes[1]) is shared
    assert STATS.cache_hits > hits

    # A new tick keeps what the finished tick requested: no recompute.
    grid.move(0, (0.6, 0.6))
    metric.observe_grid(grid)
    runs = STATS.dijkstra_runs
    assert metric.node_distances(net.nodes[1]) is shared
    assert STATS.dijkstra_runs == runs
