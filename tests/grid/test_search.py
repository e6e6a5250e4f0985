"""Unit tests for repro.grid.search.GridSearch."""

import math

import pytest

from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import dist, dist_sq
from repro.grid.alive import AliveCellGrid
from repro.grid.index import GridIndex
from repro.grid.search import GridSearch, SearchKind


def brute_nearest(grid, q, exclude=(), category=None):
    best = None
    best_d = math.inf
    for oid in grid.objects(category):
        if oid in exclude:
            continue
        d = dist(grid.position(oid), q)
        if d < best_d:
            best_d = d
            best = oid
    return None if best is None else (best, best_d)


@pytest.fixture
def searched(small_grid):
    return small_grid, GridSearch(small_grid)


class TestNearest:
    def test_matches_brute_force(self, searched, rng):
        grid, search = searched
        for _ in range(50):
            q = (rng.random(), rng.random())
            got = search.nearest(q)
            expected = brute_nearest(grid, q)
            assert got is not None
            assert got[0] == expected[0]
            assert math.isclose(got[1], expected[1], rel_tol=1e-9)

    def test_exclusion(self, searched, rng):
        grid, search = searched
        q = (0.5, 0.5)
        first = search.nearest(q)[0]
        second = search.nearest(q, exclude={first})[0]
        assert second != first
        assert second == brute_nearest(grid, q, exclude={first})[0]

    def test_empty_grid_returns_none(self):
        grid = GridIndex(8)
        assert GridSearch(grid).nearest((0.5, 0.5)) is None

    def test_category_filter(self, bi_grid, rng):
        search = GridSearch(bi_grid)
        q = (0.4, 0.6)
        got = search.nearest(q, category="A")
        expected = brute_nearest(bi_grid, q, category="A")
        assert got[0] == expected[0]

    def test_radius_bound(self, searched):
        grid, search = searched
        q = (0.5, 0.5)
        unbounded = search.nearest(q)
        oid, d = unbounded
        assert search.nearest(q, radius=d * 2) == unbounded
        # A radius below the nearest distance finds nothing.
        assert search.nearest(q, radius=d * 0.5) is None

    def test_alive_mask_restriction(self, searched):
        grid, search = searched
        q = (0.5, 0.5)
        alive = AliveCellGrid(grid.size, grid.extent)
        # Kill everything right of x=0.5 via a bisector.
        alive.add_halfplane(bisector_halfplane((0.25, 0.5), (0.75, 0.5)))
        got = search.nearest((0.25, 0.5), alive=alive, kind=SearchKind.CONSTRAINED)
        assert got is not None
        pos = grid.position(got[0])
        # The object must sit in an alive cell (x below ~0.5 + one cell).
        assert pos.x <= 0.5 + 1.0 / grid.size + 1e-9

    def test_query_cell_filtered_out_returns_none(self, searched):
        grid, search = searched
        assert (
            search.nearest((0.5, 0.5), cell_filter=lambda key: False) is None
        )

    def test_obj_filter(self, searched):
        grid, search = searched
        q = (0.5, 0.5)
        first = search.nearest(q)[0]
        got = search.nearest(q, obj_filter=lambda oid, pos: oid != first)
        assert got[0] != first

    def test_stats_accounting(self, searched):
        grid, search = searched
        search.nearest((0.5, 0.5), kind=SearchKind.CONSTRAINED)
        assert search.stats.calls[SearchKind.CONSTRAINED] == 1
        assert search.stats.calls[SearchKind.UNCONSTRAINED] == 0
        assert search.stats.total_cells > 0
        snap = search.stats.snapshot()
        assert snap["calls_NN_c"] == 1
        search.stats.reset()
        assert search.stats.total_calls == 0


class TestCountCloserThan:
    def test_matches_brute_force(self, searched, rng):
        grid, search = searched
        for _ in range(30):
            center = (rng.random(), rng.random())
            threshold = rng.random() * 0.4
            t2 = threshold * threshold
            expected = sum(
                1 for o in grid.objects() if dist_sq(grid.position(o), center) < t2
            )
            assert search.count_closer_than(center, t2) == expected

    def test_stop_at_short_circuits(self, searched):
        grid, search = searched
        count = search.count_closer_than((0.5, 0.5), 1.5 * 1.5, stop_at=3)
        assert count == 3

    def test_zero_threshold(self, searched):
        _, search = searched
        assert search.count_closer_than((0.5, 0.5), 0.0) == 0

    def test_exclusion(self, searched):
        grid, search = searched
        center = grid.position(0)
        with_self = search.count_closer_than(center, 0.04)
        without = search.count_closer_than(center, 0.04, exclude={0})
        # Object 0 sits at distance 0 < 0.2 from itself.
        assert with_self == without + 1

    def test_witness_rows_match_count(self, searched):
        grid, search = searched
        center = (0.4, 0.6)
        rows = []
        count = search.count_closer_than(center, 0.09, witnesses=rows)
        assert count == len(rows)
        assert sorted(rows) == sorted(
            (o, dist_sq(grid.position(o), center))
            for o in grid.objects()
            if dist_sq(grid.position(o), center) < 0.09
        )

    def test_subnormal_threshold_exact_tie_not_counted(self):
        """Regression: a subnormal threshold squares to 0.0, at which
        point squared distances can't discriminate — an object at
        *exactly* the threshold distance (whose squared distance also
        underflows to 0.0) was once counted as strictly closer.  The
        exact mode decides the tie on the threshold point itself."""
        tiny = 2.225073858507203e-309
        grid = GridIndex(4)
        grid.insert(0, (0.0, tiny))
        search = GridSearch(grid)
        assert (
            search.count_closer_than((0.0, 0.0), tiny * tiny, threshold_point=(0.0, tiny))
            == 0
        )

    def test_subnormal_threshold_still_counts_strictly_closer(self):
        tiny = 2.225073858507203e-309
        grid = GridIndex(4)
        grid.insert(0, (0.0, tiny / 2.0))
        search = GridSearch(grid)
        assert (
            search.count_closer_than((0.0, 0.0), tiny * tiny, threshold_point=(0.0, tiny))
            == 1
        )


class TestIterNearest:
    def test_yields_in_distance_order(self, searched):
        grid, search = searched
        q = (0.4, 0.4)
        stream = list(search.iter_nearest(q))
        assert len(stream) == len(grid)
        distances = [d for _, d in stream]
        assert distances == sorted(distances)

    def test_prefix_matches_sorted_brute_force(self, searched):
        grid, search = searched
        q = (0.6, 0.2)
        stream = []
        for item in search.iter_nearest(q):
            stream.append(item[0])
            if len(stream) == 7:
                break
        expected = sorted(grid.objects(), key=lambda o: (dist_sq(grid.position(o), q), o))
        assert stream == expected[:7]

    def test_exclusion_and_category(self, bi_grid):
        search = GridSearch(bi_grid)
        skip = next(iter(bi_grid.objects("A")))
        for oid, _ in search.iter_nearest((0.5, 0.5), exclude={skip}, category="A"):
            assert oid != skip
            assert bi_grid.category(oid) == "A"


class TestRegionScans:
    def _region(self, grid):
        alive = AliveCellGrid(grid.size, grid.extent)
        q = (0.5, 0.5)
        for o in [(0.8, 0.5), (0.5, 0.8), (0.2, 0.5), (0.5, 0.2)]:
            alive.add_halfplane(bisector_halfplane(q, o))
        return alive

    def test_objects_in_alive(self, searched):
        grid, search = searched
        alive = self._region(grid)
        found = set(search.objects_in_alive(alive))
        for oid in grid.objects():
            key = grid.cell_of(oid)
            if alive.is_alive(key) and oid not in found:
                # Only cells outside the polygon bbox may be skipped, and
                # those hold no point-alive object.
                assert not alive.point_alive(grid.position(oid))

    def test_region_objects_by_distance_sorted(self, searched):
        grid, search = searched
        alive = self._region(grid)
        out = search.region_objects_by_distance((0.5, 0.5), alive)
        d2s = [d2 for d2, _ in out]
        assert d2s == sorted(d2s)
        assert search.stats.calls[SearchKind.BOUNDED] == 1
