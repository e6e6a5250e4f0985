"""Unit tests for repro.grid.alive.AliveCellGrid."""

import math
import random

import pytest
from hypothesis import strategies as st

from repro.geometry.bisector import bisector_halfplane
from repro.geometry.halfplane import HalfPlane
from repro.grid.alive import AliveCellGrid
from repro.grid.cell import cell_rect_of

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def brute_alive(region: AliveCellGrid, key) -> bool:
    """Reference implementation: count covering half-planes directly."""
    rect = cell_rect_of(region.extent, region.size, key)
    covered = sum(
        1
        for hp in region.halfplanes
        if hp.rect_outside(rect.xmin, rect.ymin, rect.xmax, rect.ymax)
    )
    return covered < region.k


class TestConstruction:
    def test_all_alive_initially(self):
        region = AliveCellGrid(8)
        assert region.alive_count() == 64
        assert region.is_alive((0, 0))
        assert region.alive_fraction() == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AliveCellGrid(0)
        with pytest.raises(ValueError):
            AliveCellGrid(8, k=0)


class TestHalfPlaneApplication:
    def test_halfplane_kills_far_side(self):
        region = AliveCellGrid(8)
        # Keep x <= 0.5 (bisector of q=(0.25,0.5) and o=(0.75,0.5)).
        region.add_halfplane(bisector_halfplane((0.25, 0.5), (0.75, 0.5)))
        assert region.is_alive((0, 4))
        assert not region.is_alive((7, 4))
        # Cells straddling x = 0.5 stay alive.
        assert region.is_alive((4, 4)) or region.is_alive((3, 4))

    def test_lazy_matches_brute_force(self):
        rng = random.Random(2)
        region = AliveCellGrid(16)
        q = (0.5, 0.5)
        for _ in range(5):
            o = (rng.random(), rng.random())
            if o != q:
                region.add_halfplane(bisector_halfplane(q, o))
        for ix in range(16):
            for iy in range(16):
                assert region.is_alive((ix, iy)) == brute_alive(region, (ix, iy))

    def test_reset(self):
        region = AliveCellGrid(8)
        region.add_halfplane(HalfPlane(1.0, 0.0, -0.5))
        region.reset()
        assert region.alive_count() == 64
        assert region.halfplanes == []

    def test_rebuild_equivalent_to_adds(self):
        planes = [
            bisector_halfplane((0.5, 0.5), (0.9, 0.5)),
            bisector_halfplane((0.5, 0.5), (0.5, 0.9)),
            bisector_halfplane((0.5, 0.5), (0.1, 0.2)),
        ]
        added = AliveCellGrid(16)
        for hp in planes:
            added.add_halfplane(hp)
        rebuilt = AliveCellGrid(16)
        rebuilt.rebuild(planes)
        for ix in range(16):
            for iy in range(16):
                assert added.is_alive((ix, iy)) == rebuilt.is_alive((ix, iy))

    def test_remove_halfplane_restores(self):
        region = AliveCellGrid(8)
        hp = HalfPlane(1.0, 0.0, -0.5)  # x >= 0.5
        region.add_halfplane(hp)
        assert region.alive_count() < 64
        region.remove_halfplane(hp)
        assert region.alive_count() == 64

    def test_remove_missing_raises(self):
        region = AliveCellGrid(8)
        with pytest.raises(ValueError):
            region.remove_halfplane(HalfPlane(1.0, 0.0, 0.0))

    def test_memo_invalidation_on_mutation(self):
        region = AliveCellGrid(8)
        key = (7, 4)
        assert region.is_alive(key)  # populates the memo
        region.add_halfplane(HalfPlane(-1.0, 0.0, 0.5))  # x <= 0.5
        assert not region.is_alive(key)


class TestPointAlive:
    def test_point_alive_exact(self):
        region = AliveCellGrid(8)
        region.add_halfplane(HalfPlane(-1.0, 0.0, 0.5))  # keep x <= 0.5
        assert region.point_alive((0.4, 0.9))
        assert not region.point_alive((0.6, 0.9))

    def test_point_alive_respects_k(self):
        region = AliveCellGrid(8, k=2)
        region.add_halfplane(HalfPlane(-1.0, 0.0, 0.5))  # x <= 0.5
        region.add_halfplane(HalfPlane(0.0, -1.0, 0.5))  # y <= 0.5
        assert region.point_alive((0.6, 0.4))  # excluded by one plane only
        assert not region.point_alive((0.6, 0.6))  # excluded by both

    def test_exact_tie_boundary_point_stays_alive(self):
        """Regression: a point exactly on the bisector can evaluate a
        hair negative through the rounded half-plane coefficients (here
        ~-1.1e-16); the tolerance margin must keep boundary points alive
        — conservative, since verification decides them exactly."""
        region = AliveCellGrid(8)
        region.add_halfplane(
            bisector_halfplane((1.0, 1.0), (0.871094, 0.871094))
        )
        # (1.0, 0.871094) is equidistant from both defining points.
        assert region.point_alive((1.0, 0.871094))


class TestRegionEnumeration:
    def test_region_polygon_matches_clipping(self):
        region = AliveCellGrid(16)
        q = (0.5, 0.5)
        for o in [(0.9, 0.5), (0.5, 0.9), (0.1, 0.5), (0.5, 0.1)]:
            region.add_halfplane(bisector_halfplane(q, o))
        poly = region.region_polygon()
        assert math.isclose(poly.area(), 0.16, rel_tol=1e-9)  # 0.4^2 box

    def test_region_polygon_requires_k1(self):
        region = AliveCellGrid(8, k=2)
        with pytest.raises(ValueError):
            region.region_polygon()

    def test_alive_cells_cover_polygon(self):
        """Every cell intersecting the exact region is enumerated."""
        rng = random.Random(9)
        region = AliveCellGrid(16)
        q = (0.5, 0.5)
        for _ in range(6):
            region.add_halfplane(bisector_halfplane(q, (rng.random(), rng.random())))
        alive = set(region.alive_cells())
        # Sample points of the exact region; their cells must be listed.
        for _ in range(500):
            p = (rng.random(), rng.random())
            if region.point_alive(p):
                ix = min(15, int(p[0] * 16))
                iy = min(15, int(p[1] * 16))
                assert (ix, iy) in alive

    def test_alive_cells_k2_dense_path(self):
        region = AliveCellGrid(8, k=2)
        region.add_halfplane(HalfPlane(-1.0, 0.0, 0.25))  # x <= 0.25
        cells = set(region.alive_cells())
        assert len(cells) == 64  # one plane cannot kill anything at k=2
        region.add_halfplane(HalfPlane(-1.0, 0.0, 0.20))  # x <= 0.20
        cells = set(region.alive_cells())
        assert len(cells) < 64
        assert (0, 0) in cells

    def test_alive_cell_bound_upper_bounds_count(self):
        rng = random.Random(4)
        region = AliveCellGrid(16)
        q = (0.5, 0.5)
        for _ in range(5):
            region.add_halfplane(bisector_halfplane(q, (rng.random(), rng.random())))
        assert region.alive_count() <= region.alive_cell_bound()

    def test_k2_bound_is_the_dense_alive_count(self):
        rng = random.Random(5)
        region = AliveCellGrid(16, k=2)
        q = (0.5, 0.5)
        for _ in range(6):
            region.add_halfplane(bisector_halfplane(q, (rng.random(), rng.random())))
        alive = set(region.alive_cells())
        assert region.alive_cell_bound() == region.alive_count() == len(alive)
        assert len(alive) < 16 * 16
        # The cached coverage follows every mutation.
        region.add_halfplane(bisector_halfplane(q, (0.55, 0.5)))
        assert region.alive_cell_bound() == len(set(region.alive_cells()))
        assert region.alive_cell_bound() <= len(alive)
        region.reset()
        assert region.alive_cell_bound() == 16 * 16


class TestRedundancy:
    def test_active_plane_kills_uniquely(self):
        region = AliveCellGrid(16)
        q = (0.5, 0.5)
        hp = bisector_halfplane(q, (0.9, 0.5))
        region.add_halfplane(hp)
        assert region.kills_uniquely(hp)

    def test_covered_plane_is_redundant(self):
        region = AliveCellGrid(16)
        q = (0.5, 0.5)
        near = bisector_halfplane(q, (0.7, 0.5))
        far = bisector_halfplane(q, (0.95, 0.5))  # strictly behind `near`
        region.add_halfplane(near)
        region.add_halfplane(far)
        assert not region.kills_uniquely(far)
        assert region.kills_uniquely(near)

    def test_removing_redundant_plane_keeps_region(self):
        region = AliveCellGrid(16)
        q = (0.5, 0.5)
        near = bisector_halfplane(q, (0.7, 0.5))
        far = bisector_halfplane(q, (0.95, 0.5))
        region.add_halfplane(near)
        region.add_halfplane(far)
        area_before = region.region_polygon().area()
        region.remove_halfplane(far, region_unchanged=True)
        assert math.isclose(region.region_polygon().area(), area_before)

    def test_kills_uniquely_dense_path_k2(self):
        region = AliveCellGrid(8, k=2)
        a = HalfPlane(-1.0, 0.0, 0.3)  # x <= 0.3
        b = HalfPlane(-1.0, 0.0, 0.35)  # x <= 0.35
        region.add_halfplane(a)
        region.add_halfplane(b)
        # Together they kill cells right of x=0.35 (covered by both).
        assert region.alive_count() < 64
        # Each is needed: removing either resurrects those cells.
        assert region.kills_uniquely(a)
        assert region.kills_uniquely(b)
