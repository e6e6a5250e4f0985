"""Property-based tests for the grid search (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import dist, dist_sq
from repro.grid.index import GridIndex
from repro.grid.search import GridSearch

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
points = st.lists(st.tuples(unit, unit), min_size=1, max_size=60)
grid_sizes = st.sampled_from([1, 2, 5, 16, 33])


def build(grid_size, pts):
    grid = GridIndex(grid_size)
    for i, p in enumerate(pts):
        grid.insert(i, p)
    return grid, GridSearch(grid)


class TestNearestProperties:
    @given(grid_sizes, points, unit, unit)
    @settings(max_examples=80)
    def test_nearest_is_global_minimum(self, n, pts, qx, qy):
        grid, search = build(n, pts)
        got = search.nearest((qx, qy))
        assert got is not None
        oid, d = got
        best = min(dist(p, (qx, qy)) for p in pts)
        assert math.isclose(d, best, rel_tol=1e-9, abs_tol=1e-12)

    @given(grid_sizes, points, unit, unit)
    @settings(max_examples=50)
    def test_radius_semantics(self, n, pts, qx, qy):
        grid, search = build(n, pts)
        best = min(dist(p, (qx, qy)) for p in pts)
        below = search.nearest((qx, qy), radius=best * 0.99 if best > 0 else 0.0)
        if best > 1e-12:
            assert below is None
        above = search.nearest((qx, qy), radius=best * 1.01 + 1e-9)
        assert above is not None

    @given(grid_sizes, points, unit, unit, unit)
    @settings(max_examples=60)
    def test_count_closer_than_matches(self, n, pts, qx, qy, threshold):
        grid, search = build(n, pts)
        # The float mode compares squared distances (a threshold whose
        # square underflows separates nothing), so the brute count does too.
        t2 = threshold * threshold
        expected = sum(1 for p in pts if dist_sq(p, (qx, qy)) < t2)
        assert search.count_closer_than((qx, qy), t2) == expected

    @given(grid_sizes, points, unit, unit)
    @settings(max_examples=40)
    def test_iter_nearest_is_monotone_and_complete(self, n, pts, qx, qy):
        grid, search = build(n, pts)
        stream = list(search.iter_nearest((qx, qy)))
        assert len(stream) == len(pts)
        ds = [d for _, d in stream]
        assert all(a <= b + 1e-12 for a, b in zip(ds, ds[1:]))
