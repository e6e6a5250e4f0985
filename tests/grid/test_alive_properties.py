"""Property-based invariants of the alive-cell tracker (hypothesis)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.bisector import bisector_halfplane
from repro.grid.alive import AliveCellGrid

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
    lambda v: round(v, 6)
)
point = st.tuples(unit, unit)
sites = st.lists(point, min_size=0, max_size=8)
ks = st.integers(min_value=1, max_value=3)
grid_sizes = st.sampled_from([4, 9, 16])


def build(n, k, q, others):
    region = AliveCellGrid(n, k=k)
    for o in others:
        if o != q:
            region.add_halfplane(bisector_halfplane(q, o))
    return region


class TestLazyDenseEquivalence:
    @given(grid_sizes, ks, point, sites)
    @settings(max_examples=80)
    def test_is_alive_matches_dense_coverage(self, n, k, q, others):
        region = build(n, k, q, others)
        coverage = region._dense_coverage()
        for ix in range(n):
            for iy in range(n):
                assert region.is_alive((ix, iy)) == (coverage[ix, iy] < k)

    @given(grid_sizes, point, sites)
    @settings(max_examples=60)
    def test_coverage_method_matches_dense(self, n, q, others):
        region = build(n, 1, q, others)
        coverage = region._dense_coverage()
        for ix in range(n):
            for iy in range(n):
                assert region.coverage((ix, iy)) == int(coverage[ix, iy])


class TestRegionInvariants:
    @given(grid_sizes, point, sites)
    @settings(max_examples=80)
    def test_query_cell_always_alive(self, n, q, others):
        """Every bisector keeps the query side, so q's cell survives."""
        region = build(n, 1, q, others)
        from repro.grid.cell import cell_key_of

        assert region.is_alive(cell_key_of(region.extent, n, q))
        assert region.point_alive(q)

    @given(grid_sizes, point, sites)
    @settings(max_examples=60)
    def test_alive_cells_subset_of_is_alive(self, n, q, others):
        region = build(n, 1, q, others)
        for key in region.alive_cells():
            assert region.is_alive(key)

    @given(grid_sizes, point, sites, point)
    @settings(max_examples=80)
    def test_point_alive_points_are_enumerated(self, n, q, others, p):
        """Completeness of enumeration: any surviving point's cell is
        yielded by alive_cells()."""
        region = build(n, 1, q, others)
        assume(region.point_alive(p))
        from repro.grid.cell import cell_key_of

        assert cell_key_of(region.extent, n, p) in set(region.alive_cells())

    @given(grid_sizes, ks, point, sites, point)
    @settings(max_examples=120)
    def test_point_alive_implies_cell_alive(self, n, k, q, others, p):
        """The exact point test implies the slack-guarded cell test at
        every k, so a point filter needs no cell check in front of it.
        Points on the bisectors (the sites' midpoints with the query)
        are the boundary cases."""
        region = build(n, k, q, others)
        from repro.grid.cell import cell_key_of

        probes = [p] + [((q[0] + o[0]) / 2, (q[1] + o[1]) / 2) for o in others]
        for probe in probes:
            if region.point_alive(probe):
                assert region.is_alive(cell_key_of(region.extent, n, probe))

    @given(grid_sizes, point, sites)
    @settings(max_examples=60)
    def test_adding_planes_never_enlarges(self, n, q, others):
        region = AliveCellGrid(n)
        previous = n * n
        for o in others:
            if o == q:
                continue
            region.add_halfplane(bisector_halfplane(q, o))
            count = sum(
                1
                for ix in range(n)
                for iy in range(n)
                if region.is_alive((ix, iy))
            )
            assert count <= previous
            previous = count

    @given(grid_sizes, point, sites)
    @settings(max_examples=60)
    def test_add_remove_roundtrip(self, n, q, others):
        others = [o for o in others if o != q]
        assume(others)
        region = build(n, 1, q, others[:-1])
        before = {(ix, iy): region.is_alive((ix, iy)) for ix in range(n) for iy in range(n)}
        hp = bisector_halfplane(q, others[-1])
        region.add_halfplane(hp)
        region.remove_halfplane(hp)
        after = {(ix, iy): region.is_alive((ix, iy)) for ix in range(n) for iy in range(n)}
        assert before == after


class TestRedundancyInvariant:
    @given(point, sites)
    @settings(max_examples=60)
    def test_removing_non_unique_plane_keeps_exact_region(self, q, others):
        others = [o for o in others if o != q]
        assume(len(others) >= 2)
        region = build(16, 1, q, others)
        area_before = region.region_polygon().area()
        removable = [
            bisector_halfplane(q, o)
            for o in others
            if not region.kills_uniquely(bisector_halfplane(q, o))
        ]
        assume(removable)
        region.remove_halfplane(removable[0], region_unchanged=True)
        assert abs(region.region_polygon().area() - area_before) < 1e-9
