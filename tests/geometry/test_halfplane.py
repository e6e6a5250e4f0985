"""Unit tests for repro.geometry.halfplane."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry.halfplane import HalfPlane, RectSide

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
coord = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


class TestHalfPlaneBasics:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            HalfPlane(0.0, 0.0, 1.0)

    def test_value_sign(self):
        hp = HalfPlane(1.0, 0.0, 0.0)  # x >= 0
        assert hp.value((2.0, 5.0)) > 0
        assert hp.value((-2.0, 5.0)) < 0
        assert hp.value((0.0, 5.0)) == 0

    def test_contains_is_closed(self):
        hp = HalfPlane(0.0, 1.0, -1.0)  # y >= 1
        assert hp.contains((0.0, 1.0))
        assert hp.contains((0.0, 2.0))
        assert not hp.contains((0.0, 0.5))

    def test_strictly_contains_excludes_boundary(self):
        hp = HalfPlane(0.0, 1.0, -1.0)
        assert not hp.strictly_contains((0.0, 1.0))
        assert hp.strictly_contains((0.0, 1.1))

    def test_signed_distance(self):
        hp = HalfPlane(2.0, 0.0, 0.0)  # x >= 0, non-unit normal
        assert math.isclose(hp.signed_distance((3.0, 0.0)), 3.0)
        assert math.isclose(hp.signed_distance((-3.0, 0.0)), -3.0)

    def test_normalized_preserves_boundary(self):
        hp = HalfPlane(3.0, 4.0, 5.0)
        norm = hp.normalized()
        assert math.isclose(math.hypot(norm.a, norm.b), 1.0)
        p = (0.3, 0.7)
        assert (hp.value(p) > 0) == (norm.value(p) > 0)

    def test_flipped_complements(self):
        hp = HalfPlane(1.0, -2.0, 0.5)
        flipped = hp.flipped()
        p = (1.0, 1.0)
        assert hp.value(p) == -flipped.value(p)

    def test_equality_and_hash(self):
        assert HalfPlane(1, 2, 3) == HalfPlane(1, 2, 3)
        assert HalfPlane(1, 2, 3) != HalfPlane(1, 2, 4)
        assert hash(HalfPlane(1, 2, 3)) == hash(HalfPlane(1, 2, 3))

    def test_equality_is_canonical(self):
        # Scaled copies denote the same oriented half-plane: equal, and
        # equal hashes (the canonical form divides by max(|a|, |b|)).
        assert HalfPlane(1.0, 2.0, 3.0) == HalfPlane(2.0, 4.0, 6.0)
        assert hash(HalfPlane(1.0, 2.0, 3.0)) == hash(HalfPlane(2.0, 4.0, 6.0))
        assert HalfPlane(1.0, 2.0, 3.0) == HalfPlane(0.5, 1.0, 1.5)
        # Same line, opposite kept side: NOT equal.
        assert HalfPlane(1.0, 2.0, 3.0) != HalfPlane(-1.0, -2.0, -3.0)
        assert HalfPlane(1.0, 2.0, 3.0) != HalfPlane(2.0, 4.0, 7.0)

    def test_canonical_equality_survives_normalization(self):
        hp = HalfPlane(3.0, 4.0, 5.0)
        assert hp.normalized() == hp
        assert hash(hp.normalized()) == hash(hp)
        assert hp.flipped().flipped() == hp

    def test_bisector_equals_scaled_float_plane(self):
        # A bisector's exact rational coefficients, not its rounded
        # floats, drive identity: the equivalent float-exact plane with
        # coefficients scaled by 1/2 compares (and hashes) equal.
        from repro.geometry.bisector import bisector_halfplane

        hp = bisector_halfplane((0.0, 0.0), (2.0, 0.0))  # x <= 1
        assert hp == HalfPlane(-1.0, 0.0, 1.0)
        assert hash(hp) == hash(HalfPlane(-1.0, 0.0, 1.0))
        assert hp != HalfPlane(1.0, 0.0, -1.0)

    def test_boundary_points_on_line(self):
        hp = HalfPlane(2.0, 3.0, -1.0)
        for p in hp.boundary_points():
            assert abs(hp.value(p)) < 1e-9

    def test_boundary_points_vertical_line(self):
        hp = HalfPlane(1.0, 0.0, -0.5)  # x >= 0.5
        for p in hp.boundary_points():
            assert abs(p[0] - 0.5) < 1e-12


class TestRectClassification:
    def test_rect_inside(self):
        hp = HalfPlane(1.0, 0.0, 0.0)  # x >= 0
        assert hp.classify_rect(0.1, 0.0, 1.0, 1.0) is RectSide.INSIDE

    def test_rect_outside(self):
        hp = HalfPlane(1.0, 0.0, 0.0)
        assert hp.classify_rect(-1.0, 0.0, -0.1, 1.0) is RectSide.OUTSIDE

    def test_rect_straddle(self):
        hp = HalfPlane(1.0, 0.0, 0.0)
        assert hp.classify_rect(-0.5, 0.0, 0.5, 1.0) is RectSide.STRADDLE

    def test_rect_touching_boundary_is_inside(self):
        # The half-plane is closed, so touching the boundary counts inside.
        hp = HalfPlane(1.0, 0.0, 0.0)
        assert hp.classify_rect(0.0, 0.0, 1.0, 1.0) is RectSide.INSIDE

    def test_rect_outside_predicate_matches_classify(self):
        hp = HalfPlane(-1.0, 2.0, 0.3)
        rects = [
            (0.0, 0.0, 0.5, 0.5),
            (-3.0, -3.0, -2.0, -2.5),
            (2.0, -1.0, 3.0, 0.0),
        ]
        for rect in rects:
            expected = hp.classify_rect(*rect) is RectSide.OUTSIDE
            assert hp.rect_outside(*rect) == expected

    @given(coeff, coeff, coeff, coord, coord, coord, coord)
    # The float corner value underflows to -0.0 here while the exact one
    # is about -3.6e-371: the oracle must not read it as on the boundary.
    @example(
        a=0.0,
        b=-6.685980296962619e-213,
        c=0.0,
        x=0.0,
        y=5.327771682063953e-159,
        w=0.0,
        h=0.0,
    )
    def test_classification_agrees_with_corner_values(self, a, b, c, x, y, w, h):
        if a == 0.0 and b == 0.0:
            return
        hp = HalfPlane(a, b, c)
        xmin, ymin = x, y
        xmax, ymax = x + abs(w), y + abs(h)
        corners = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
        # Exact corner values: classify_rect is exact, so the oracle must
        # be too (float products can round a tiny sign to zero).
        fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
        values = [fa * Fraction(px) + fb * Fraction(py) + fc for px, py in corners]
        side = hp.classify_rect(xmin, ymin, xmax, ymax)
        if side is RectSide.INSIDE:
            assert all(v >= 0 for v in values)
        elif side is RectSide.OUTSIDE:
            assert all(v < 0 for v in values)
        else:
            assert any(v >= 0 for v in values) and any(v < 0 for v in values)
