"""Property tests for the adaptive predicates.

The contract under test: every filtered predicate returns *exactly* what
its pure-:class:`fractions.Fraction` counterpart returns — on lattice
ties, subnormals, coordinates out at ``1e300``, coincident points, and
anything else Hypothesis can dream up.  The filter is allowed to change
the cost, never the answer.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.geometry import predicates
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.halfplane import HalfPlane

# Finite doubles across the whole dynamic range: huge magnitudes that make
# squared distances overflow to inf (forcing the NaN -> exact route),
# subnormals whose products underflow, exact small integers (tie-prone),
# and ordinary reals.
coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False),
    st.integers(min_value=-(2**30), max_value=2**30).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300]),
)
point = st.tuples(coord, coord)

# Lattice machinery: integer coordinates plus a large exact offset keep
# every float operation below exact, so mirrored displacements construct
# *true* ties (equal squared distances in real arithmetic and in floats).
lattice_offset = st.sampled_from([0.0, 1e6, -1e6, 1e8, 2.0**40])
lattice_int = st.integers(min_value=-1000, max_value=1000)
displacement = st.tuples(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
).filter(lambda d: d != (0, 0))


class TestCompareDistanceAgreesWithPure:
    @settings(max_examples=300, deadline=None)
    @given(p=point, a=point, b=point)
    def test_arbitrary_floats(self, p, a, b):
        assert predicates.compare_distance(p, a, b) == (
            predicates.compare_distance_pure(p, a, b)
        )

    @settings(max_examples=300, deadline=None)
    @given(p=point, a=point, b=point)
    def test_antisymmetry(self, p, a, b):
        assert predicates.compare_distance(p, a, b) == (
            -predicates.compare_distance(p, b, a)
        )

    @settings(max_examples=100, deadline=None)
    @given(p=point, a=point)
    def test_coincident_reference_points_tie(self, p, a):
        assert predicates.compare_distance(p, a, a) == 0

    @settings(max_examples=100, deadline=None)
    @given(p=point, b=point)
    def test_zero_distance_side(self, p, b):
        # dist(p, p) = 0 is minimal: never strictly farther than b.
        assert predicates.compare_distance(p, p, b) <= 0


class TestLatticeTies:
    @settings(max_examples=200, deadline=None)
    @given(
        off=lattice_offset,
        px=lattice_int,
        py=lattice_int,
        d=displacement,
        flip=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    )
    def test_mirrored_displacements_are_exact_ties(self, off, px, py, d, flip):
        # a and b sit at displacements (dx, dy) and (±dy, ±dx) from p:
        # identical squared distance in exact arithmetic, and all float
        # operations here are exact, so the predicate must report a tie.
        p = (off + px, off + py)
        dx, dy = d
        sx, sy = flip
        a = (p[0] + dx, p[1] + dy)
        b = (p[0] + sx * dy, p[1] + sy * dx)
        assert predicates.compare_distance(p, a, b) == 0
        assert predicates.compare_distance_pure(p, a, b) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        off=lattice_offset,
        px=lattice_int,
        py=lattice_int,
        qx=lattice_int,
        qy=lattice_int,
        ox=lattice_int,
        oy=lattice_int,
    )
    def test_lattice_agreement_with_pure(self, off, px, py, qx, qy, ox, oy):
        p = (off + px, off + py)
        q = (off + qx, off + qy)
        o = (off + ox, off + oy)
        assert predicates.compare_distance(p, q, o) == (
            predicates.compare_distance_pure(p, q, o)
        )


class TestHalfPlaneSign:
    @settings(max_examples=300, deadline=None)
    @given(
        off=lattice_offset,
        px=lattice_int,
        py=lattice_int,
        qx=lattice_int,
        qy=lattice_int,
        ox=lattice_int,
        oy=lattice_int,
    )
    def test_bisector_sign_equals_distance_comparison(
        self, off, px, py, qx, qy, ox, oy
    ):
        # The half-plane's exact sign at p must agree bit for bit with
        # the distance comparison it encodes (the q-side is kept).
        q = (off + qx, off + qy)
        o = (off + ox, off + oy)
        if q == o:
            return
        p = (off + px, off + py)
        hp = bisector_halfplane(q, o)
        assert predicates.halfplane_sign(hp, p[0], p[1]) == (
            predicates.side_of_bisector(p, q, o)
        )

    @settings(max_examples=200, deadline=None)
    @given(x=coord, y=coord, a=coord, b=coord, c=coord)
    def test_float_exact_plane_agrees_with_fractions(self, x, y, a, b, c):
        if a == 0.0 and b == 0.0:
            return
        hp = HalfPlane(a, b, c)
        expected = (
            Fraction(a) * Fraction(x) + Fraction(b) * Fraction(y) + Fraction(c)
        )
        sign = (expected > 0) - (expected < 0)
        assert predicates.halfplane_sign(hp, x, y) == sign


class TestExtremes:
    def test_overflowing_distances_fall_back_exactly(self):
        # Squared differences overflow to inf; inf - inf = NaN fails the
        # filter comparisons and the exact path must still decide.
        p = (1e300, 0.0)
        a = (-1e300, 1.0)
        b = (-1e300, 0.0)
        assert predicates.compare_distance(p, a, b) == 1
        assert predicates.compare_distance(p, b, a) == -1

    def test_subnormal_displacements_decided_exactly(self):
        tiny = 5e-324
        p = (0.0, 0.0)
        assert predicates.compare_distance(p, (2 * tiny, 0.0), (tiny, 0.0)) == 1
        assert predicates.compare_distance(p, (tiny, 0.0), (tiny, 0.0)) == 0

    def test_midpoint_on_far_offset_bisector_is_on_the_line(self):
        q = (1e8, 5.0)
        o = (1e8 + 1.0, 5.0)
        hp = bisector_halfplane(q, o)
        mx, my = 0.5 * (q[0] + o[0]), 0.5 * (q[1] + o[1])
        assert predicates.halfplane_sign(hp, mx, my) == 0

    def test_filter_counters_move(self):
        before_hits = predicates.STATS.filter_hits
        before_falls = predicates.STATS.exact_fallbacks
        predicates.compare_distance((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
        p = (1e6, 1e6)
        predicates.compare_distance(p, (1e6 + 3.0, 1e6 + 4.0), (1e6 - 4.0, 1e6 + 3.0))
        assert predicates.STATS.filter_hits > before_hits
        assert predicates.STATS.exact_fallbacks >= before_falls


class TestRectClassification:
    @settings(max_examples=150, deadline=None)
    @given(
        off=lattice_offset,
        qx=lattice_int,
        qy=lattice_int,
        ox=lattice_int,
        oy=lattice_int,
        x0=lattice_int,
        y0=lattice_int,
        w=st.integers(min_value=1, max_value=100),
        h=st.integers(min_value=1, max_value=100),
    )
    def test_matches_corner_signs(self, off, qx, qy, ox, oy, x0, y0, w, h):
        q = (off + qx, off + qy)
        o = (off + ox, off + oy)
        if q == o:
            return
        hp = bisector_halfplane(q, o)
        xmin, ymin = off + x0, off + y0
        xmax, ymax = xmin + w, ymin + h
        signs = [
            predicates.halfplane_sign(hp, x, y)
            for x in (xmin, xmax)
            for y in (ymin, ymax)
        ]
        got = predicates.rect_vs_bisector(hp, xmin, ymin, xmax, ymax)
        if all(s < 0 for s in signs):
            assert got == -1
        elif all(s >= 0 for s in signs):
            assert got == 1
        else:
            assert got == 0

    def test_prune_bound_is_inflationary(self):
        for t2 in (0.0, 1e-12, 1.0, 1e6, 1e300):
            assert predicates.prune_bound(t2, 1e8) >= t2
        lo, hi = predicates.d2_band(1.0)
        assert lo < 1.0 < hi
        # Overflow to inf is acceptable: it just means "never prune".
        assert predicates.prune_bound(1e300, 1e300) >= 1e300
