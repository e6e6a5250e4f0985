"""Unit tests for repro.geometry.point."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point, dist, dist_sq, midpoint

coords = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestPoint:
    def test_unpacking(self):
        p = Point(1.0, 2.0)
        x, y = p
        assert (x, y) == (1.0, 2.0)

    def test_add_sub(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_add_accepts_plain_tuple(self):
        assert Point(1, 2) + (3, 4) == Point(4, 6)

    def test_scalar_multiplication(self):
        assert Point(1, 2) * 3 == Point(3, 6)
        assert 3 * Point(1, 2) == Point(3, 6)

    def test_dot(self):
        assert Point(1, 2).dot(Point(3, 4)) == 11

    def test_norm(self):
        assert Point(3, 4).norm() == 5.0

    def test_distance_to(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_hashable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


class TestDistanceFunctions:
    def test_dist_matches_hypot(self):
        assert dist((0, 0), (3, 4)) == 5.0

    def test_dist_sq_is_square_of_dist(self):
        assert dist_sq((0, 0), (3, 4)) == 25.0

    def test_dist_zero_for_same_point(self):
        assert dist((1.5, 2.5), (1.5, 2.5)) == 0.0

    def test_midpoint(self):
        assert midpoint((0, 0), (2, 4)) == Point(1, 2)

    def test_midpoint_of_identical_points(self):
        assert midpoint((1, 1), (1, 1)) == Point(1, 1)


class TestDistanceProperties:
    @given(coords, coords, coords, coords)
    def test_symmetry(self, ax, ay, bx, by):
        assert dist((ax, ay), (bx, by)) == dist((bx, by), (ax, ay))

    @given(coords, coords, coords, coords)
    def test_dist_sq_consistency(self, ax, ay, bx, by):
        d = dist((ax, ay), (bx, by))
        assert math.isclose(d * d, dist_sq((ax, ay), (bx, by)), abs_tol=1e-6)

    @given(coords, coords, coords, coords, coords, coords)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        a, b, c = (ax, ay), (bx, by), (cx, cy)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9

    @given(coords, coords, coords, coords)
    def test_midpoint_equidistant(self, ax, ay, bx, by):
        m = midpoint((ax, ay), (bx, by))
        da = dist(m, (ax, ay))
        db = dist(m, (bx, by))
        assert math.isclose(da, db, rel_tol=1e-9, abs_tol=1e-9)
