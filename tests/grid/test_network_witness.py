"""Property test of the network-mode witness probe.

``GridSearch.network_witness_count`` walks a padded Euclidean ball cell
by cell and stops as soon as its count reaches ``stop_at``.  Whatever
order it meets objects in, it must return the clamped brute count:
``min(stop_at, |{p : d_net(center, p) < threshold}|)`` over the
non-excluded objects of the probed category.  The ids it hands back
through ``witnesses`` (a non-answer's certificate) must be that many
distinct such objects.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.index import GridIndex
from repro.grid.search import GridSearch
from repro.metric import NetworkMetric
from repro.motion.roadnet import RoadNetwork

NETWORKS = (
    RoadNetwork.grid_city(rows=5, cols=5, seed=2),
    # Jitter-free lattice: equal-hop sums tie to the last bit.
    RoadNetwork.grid_city(rows=4, cols=4, jitter=0.0, diagonal_prob=0.0, seed=0),
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
#: ``(on_road, a, b)``: a free point ``(a, b)``, or the point a fraction
#: ``b`` along edge number ``a * |edges|``.  Two points on one straight
#: edge are exactly as far apart on the network as in the plane, which
#: puts witnesses on the rim of the Euclidean prefilter ball.
places = st.tuples(st.booleans(), unit, unit)
objects = st.lists(
    st.tuples(places, st.sampled_from(["A", "B"]), st.booleans()), max_size=24
)


def _place(network, place):
    on_road, a, b = place
    if not on_road:
        return (a, b)
    edges = network.sorted_edges()
    u, v, length = edges[min(int(a * len(edges)), len(edges) - 1)]
    p = network.point_on_edge(u, v, b * length)
    return (p.x, p.y)


@settings(max_examples=150, deadline=None)
@given(
    network=st.sampled_from(NETWORKS),
    grid_size=st.sampled_from([1, 3, 8]),
    scene=objects,
    center=places,
    # A float threshold, or the distance to one object: exactly (a tie)
    # or one ulp above (that object just counts).
    threshold=st.one_of(
        st.floats(min_value=-0.1, max_value=2.5, allow_nan=False),
        st.just(math.inf),
        st.tuples(st.integers(min_value=0, max_value=23), st.booleans()),
    ),
    category=st.sampled_from([None, "A", "B"]),
    stop_at=st.sampled_from([None, 1, 2, 3]),
)
def test_witness_count_equals_clamped_brute_count(
    network, grid_size, scene, center, threshold, category, stop_at
):
    metric = NetworkMetric(network)
    grid = GridIndex(grid_size)
    for oid, (place, cat, _excluded) in enumerate(scene):
        grid.insert(oid, _place(network, place), cat)
    excluded = {oid for oid, row in enumerate(scene) if row[2]}
    center = _place(network, center)
    loc_center = metric.locate(center)

    def distance(oid):
        return metric.distance_located(
            loc_center, metric.locate(grid.position(oid))
        )

    if isinstance(threshold, tuple):
        if not scene:
            return
        index, above = threshold
        threshold = distance(index % len(scene))
        if above:
            threshold = math.nextafter(threshold, math.inf)

    brute = sum(
        1
        for oid, (_place_, cat, _excluded) in enumerate(scene)
        if oid not in excluded
        and (category is None or cat == category)
        and distance(oid) < threshold
    )
    expected = brute if stop_at is None else min(stop_at, brute)
    found = []
    got = GridSearch(grid, metric=metric).network_witness_count(
        metric,
        center,
        threshold,
        exclude=excluded,
        category=category,
        stop_at=stop_at,
        witnesses=found,
    )
    assert got == expected
    assert len(found) == len(set(found)) == got
    for oid in found:
        assert oid not in excluded
        assert category is None or scene[oid][1] == category
        assert distance(oid) < threshold
