"""``ConvexPolygon.clip`` against the clip it replaced.

``clip`` returns the polygon it was given when no vertex is strictly
outside the half-plane (a half-plane holding every vertex of a convex
polygon holds the polygon), and otherwise builds its result without
re-creating the vertices.  The earlier implementation is kept below as
the reference: it always classified every vertex, always built a new
polygon through ``__init__``, and its ``_dedupe`` popped the wrap-around
duplicate at most once.

The outputs must agree vertex for vertex (bit for bit) and in the
``predicates.STATS`` counts.  The one permitted difference: where the
reference kept two vertices within the merge radius of each other (its
single pop left a wrap-around pair), the new output is that list
deduplicated to a fixed point.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import predicates
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.halfplane import HalfPlane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, _dedupe
from repro.geometry.rectangle import Rect


def _near(p, q):
    span = max(abs(p.x), abs(p.y), abs(q.x), abs(q.y), 1.0)
    eps = predicates.VERTEX_MERGE_REL * span
    return abs(p.x - q.x) <= eps and abs(p.y - q.y) <= eps


def reference_dedupe(points):
    """The ``_dedupe`` before it became idempotent: one wrap-around pop."""
    if not points:
        return points
    out = [points[0]]
    for p in points[1:]:
        if not _near(p, out[-1]):
            out.append(p)
    if len(out) > 1 and _near(out[0], out[-1]):
        out.pop()
    return out


def reference_clip(poly, hp):
    """``ConvexPolygon.clip`` before the no-cut return (vertex list)."""
    verts = poly.vertices
    n = len(verts)
    if n == 0:
        return []
    a, b, c = hp.a, hp.b, hp.c
    guard = hp.c_err + predicates.ABS_GUARD
    hp_filter = predicates.HP_FILTER
    signs = []
    values = []
    fast = 0
    for v in verts:
        t1 = a * v.x
        t2 = b * v.y
        e = (t1 + t2) + c
        band = hp_filter * (abs(t1) + abs(t2) + abs(c)) + guard
        if e > band:
            fast += 1
            signs.append(1)
        elif e < -band:
            fast += 1
            signs.append(-1)
        else:
            signs.append(predicates.halfplane_sign(hp, v.x, v.y))
        values.append(e)
    predicates.STATS.filter_hits += fast
    out = []
    for i in range(n):
        cur, nxt = verts[i], verts[(i + 1) % n]
        scur, snxt = signs[i], signs[(i + 1) % n]
        if scur >= 0:
            out.append(cur)
        if (scur > 0 and snxt < 0) or (scur < 0 and snxt > 0):
            vcur, vnxt = values[i], values[(i + 1) % n]
            denom = vcur - vnxt
            t = vcur / denom if denom != 0.0 else 0.5
            out.append(
                Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y))
            )
    return ConvexPolygon(reference_dedupe(out)).vertices


def _bits(vertices):
    return [(v.x.hex(), v.y.hex()) for v in vertices]


def _strictly_outside(hp, v):
    """Exact sign test that leaves ``predicates.STATS`` alone."""
    A, B, C = hp.exact_coeffs()
    return A * Fraction(v.x) + B * Fraction(v.y) + C < 0


def _stats():
    return (predicates.STATS.filter_hits, predicates.STATS.exact_fallbacks)


def _delta(before):
    after = _stats()
    return (after[0] - before[0], after[1] - before[1])


def _check_clip(poly, hp):
    """One clip from the same input both ways; returns the new result."""
    before = _stats()
    ref = reference_clip(poly, hp)
    ref_delta = _delta(before)
    before = _stats()
    got = poly.clip(hp)
    assert _delta(before) == ref_delta
    if len(ref) > 1 and _near(ref[0], ref[-1]):
        # The reference kept a wrap-around pair within the merge radius.
        assert _bits(got.vertices) == _bits(_dedupe(ref))
    else:
        assert _bits(got.vertices) == _bits(ref)
    cut = any(_strictly_outside(hp, v) for v in poly.vertices)
    assert (got is poly) == (not cut)
    return got


coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
dyadic = st.integers(min_value=-256, max_value=256).map(lambda i: i / 64.0)
point = st.tuples(coord, coord) | st.tuples(dyadic, dyadic)


def _hull(points):
    """Counter-clockwise convex hull (monotone chain), collinear dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@st.composite
def convex_polygons(draw):
    if draw(st.booleans()):
        x0, y0 = draw(point)
        w = draw(st.floats(min_value=0.01, max_value=4.0))
        h = draw(st.floats(min_value=0.01, max_value=4.0))
        return ConvexPolygon.from_rect(Rect(x0, y0, x0 + w, y0 + h))
    hull = _hull(draw(st.lists(point, min_size=3, max_size=12)))
    # A polygon with vertices inside each other's merge radius is not one
    # clip would produce; normalise it the way clip's output is.
    return ConvexPolygon(_dedupe([Point(x, y) for x, y in hull]))


def _through_vertex(v, a, b):
    """The half-plane ``a*x + b*y + c >= 0`` whose exact boundary passes
    through ``v`` (sign 0 at ``v``), with a certified float ``c``."""
    A, B = Fraction(a), Fraction(b)
    C = -(A * Fraction(v.x) + B * Fraction(v.y))
    c = float(C)
    return HalfPlane(a, b, c, exact=(A, B, C), c_err=math.ulp(c))


direction = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
).filter(lambda d: d != (0.0, 0.0))


@st.composite
def halfplane_for(draw, poly):
    kind = draw(st.sampled_from(["bisector", "float", "vertex"]))
    if kind == "vertex" and poly.vertices:
        v = draw(st.sampled_from(poly.vertices))
        a, b = draw(direction)
        return _through_vertex(v, a, b)
    if kind == "float":
        a, b = draw(direction)
        return HalfPlane(a, b, draw(coord))
    q = draw(point)
    o = draw(point.filter(lambda o: o != q))
    return bisector_halfplane(q, o)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_clip_matches_reference(data):
    poly = data.draw(convex_polygons())
    hp = data.draw(halfplane_for(poly))
    _check_clip(poly, hp)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chains_of_clips_match_reference(data):
    poly = data.draw(convex_polygons())
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        poly = _check_clip(poly, data.draw(halfplane_for(poly)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=8, unique=True),
    st.lists(st.tuples(point, point), min_size=1, max_size=20),
)
def test_region_polygon_chain_through_bisectors(sites, pairs):
    """The region-polygon pattern: the extent clipped by many bisectors,
    many of them through a vertex (equidistant dyadic points)."""
    poly = ConvexPolygon.from_rect(Rect(-4.0, -4.0, 4.0, 4.0))
    for q, o in pairs:
        if q == o:
            continue
        poly = _check_clip(poly, bisector_halfplane(q, o))
    for x, y in sites:
        if poly.is_empty():
            break
        v = poly.vertices[0]
        # An object mirrored across a line through v: the bisector
        # passes exactly through the vertex whenever v is dyadic.
        q = (v.x + x, v.y + y)
        o = (v.x - y, v.y + x)
        if q != o:
            poly = _check_clip(poly, bisector_halfplane(q, o))


cluster_offset = st.integers(min_value=-3, max_value=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(point, cluster_offset, cluster_offset), max_size=16))
def test_dedupe_is_idempotent(specs):
    """Clusters of points within the merge radius of each other."""
    points = []
    for (x, y), dx, dy in specs:
        step = predicates.VERTEX_MERGE_REL * max(abs(x), abs(y), 1.0) / 2.0
        points.append(Point(x + dx * step, y + dy * step))
    once = _dedupe(list(points))
    assert _dedupe(list(once)) == once


def test_no_cut_returns_the_polygon_itself():
    poly = ConvexPolygon.from_rect(Rect(0.0, 0.0, 1.0, 1.0))
    keep_all = HalfPlane(1.0, 0.0, 0.0)  # x >= 0: the left edge is on it
    assert poly.clip(keep_all) is poly
    cut = poly.clip(HalfPlane(-1.0, 0.0, 0.5))  # x <= 0.5
    assert cut is not poly
    assert _bits(poly.vertices) == _bits(
        ConvexPolygon.from_rect(Rect(0.0, 0.0, 1.0, 1.0)).vertices
    )
    empty = ConvexPolygon()
    assert empty.clip(keep_all) is empty
