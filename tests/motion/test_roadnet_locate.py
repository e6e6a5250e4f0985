"""The vectorised closest-edge scan of ``RoadNetwork.locate`` against the
per-edge scalar loop it replaced.

The brute oracle and the engine metric share ``locate``, so its snap is
part of the network distance spec: the numpy scan must return the same
edge, the same offset and the same spur, bit for bit and zero signs
included, as the scalar loop below.  That loop is kept here as the
reference: strict ``<`` keeps the first of equally close edges in the
canonical sorted order, ``t`` is clamped with ``min(max(t, 0.0), 1.0)``,
and a zero-length edge projects to ``t = 0.0``.
"""

import math
import pickle
import random

import pytest

from repro.motion.roadnet import RoadNetwork

NETWORKS = {
    "grid-jittered": RoadNetwork.grid_city(rows=16, cols=16, seed=2),
    "grid-exact": RoadNetwork.grid_city(
        rows=6, cols=6, jitter=0.0, diagonal_prob=0.0, seed=0
    ),
    "radial": RoadNetwork.radial_city(rings=4, spokes=8, seed=1),
    "delaunay": RoadNetwork.delaunay(n_nodes=60, seed=3),
    # Two nodes on one spot: a zero-length edge beside ordinary ones.
    "degenerate": RoadNetwork(
        {0: (0.25, 0.25), 1: (0.25, 0.25), 2: (0.75, 0.25), 3: (0.25, 0.75)},
        [(0, 1), (1, 2), (0, 3), (2, 3)],
    ),
}


def reference_locate(net, point):
    """The per-edge scalar scan ``locate`` ran before vectorisation."""
    px = float(point[0])
    py = float(point[1])
    best = None
    best_d2 = math.inf
    for u, v, length in net.sorted_edges():
        pu = net.node_pos(u)
        pv = net.node_pos(v)
        ex = pv.x - pu.x
        ey = pv.y - pu.y
        len2 = ex * ex + ey * ey
        if len2 == 0.0:
            t = 0.0
        else:
            t = ((px - pu.x) * ex + (py - pu.y) * ey) / len2
            t = min(max(t, 0.0), 1.0)
        dx = px - (pu.x + t * ex)
        dy = py - (pu.y + t * ey)
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best_d2 = d2
            best = (u, v, t * length)
    return (best[0], best[1], best[2], math.sqrt(best_d2))


def bits(located):
    """A snap with its floats spelled exactly (``-0.0`` differs from 0.0)."""
    u, v, offset, spur = located
    assert type(u) is int and type(v) is int
    assert type(offset) is float and type(spur) is float
    return (u, v, offset.hex(), spur.hex())


def probe_points(net, rng, n_random):
    """Random points plus every node, points on every edge at fixed
    fractions, and points half a block off each edge on both sides."""
    points = [(rng.random(), rng.random()) for _ in range(n_random)]
    # A few far outside the unit square, where every t clamps.
    points += [(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 3.0)) for _ in range(50)]
    points += [tuple(net.node_pos(node)) for node in net.nodes]
    lengths = sorted(length for _, _, length in net.sorted_edges())
    half_block = 0.5 * lengths[len(lengths) // 2]
    for u, v, length in net.sorted_edges():
        pu, pv = net.node_pos(u), net.node_pos(v)
        ex, ey = pv.x - pu.x, pv.y - pu.y
        norm = math.hypot(ex, ey)
        nx_, ny_ = (-ey / norm, ex / norm) if norm > 0.0 else (0.0, 1.0)
        for t in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0):
            on = (pu.x + t * ex, pu.y + t * ey)
            points.append(on)
            points.append((on[0] + half_block * nx_, on[1] + half_block * ny_))
            points.append((on[0] - half_block * nx_, on[1] - half_block * ny_))
    return points


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_vectorised_scan_matches_the_scalar_loop_bit_for_bit(name):
    net = NETWORKS[name]
    rng = random.Random(sorted(NETWORKS).index(name))
    points = probe_points(net, rng, n_random=5_000)
    for point in points:
        net.snap_memo.new_tick()
        net.snap_memo.new_tick()  # two boundaries empty the memo
        assert bits(net.locate(point)) == bits(reference_locate(net, point)), point


def test_probe_set_is_large_and_exercises_clamps_and_zero_signs():
    """The comparison above covers at least 20k points, and among them
    snaps clamped at both ends and a ``-0.0`` offset, the cases where a
    careless vectorisation would differ from the scalar loop."""
    total = 0
    clamped_lo = clamped_hi = negative_zero = 0
    for name in sorted(NETWORKS):
        net = NETWORKS[name]
        rng = random.Random(sorted(NETWORKS).index(name))
        for point in probe_points(net, rng, n_random=5_000):
            total += 1
            u, v, offset, _ = reference_locate(net, point)
            length = net._edge_lengths[(u, v)]
            if offset == 0.0:
                clamped_lo += 1
                negative_zero += math.copysign(1.0, offset) < 0
            elif offset == length:
                clamped_hi += 1
    assert total >= 20_000
    assert clamped_lo and clamped_hi
    assert negative_zero


def test_edge_columns_survive_pickling():
    net = NETWORKS["grid-jittered"]
    clone = pickle.loads(pickle.dumps(net))
    assert len(clone.snap_memo) == 0
    for a, b in zip(clone._edge_columns, net._edge_columns):
        assert a.tolist() == b.tolist()
    rng = random.Random(7)
    for _ in range(200):
        point = (rng.random(), rng.random())
        assert bits(clone.locate(point)) == bits(reference_locate(net, point))
