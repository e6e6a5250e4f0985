"""Convex polygons with half-plane clipping.

Used by the bichromatic baseline (repeated Voronoi-cell construction) and by
tests that compare IGERN's cell-granularity alive region against the exact
geometric region.  Clipping is the single-half-plane case of
Sutherland-Hodgman, which preserves convexity.

Vertex classification against the clipping half-plane routes through the
adaptive predicates (:mod:`repro.geometry.predicates`), so whether a vertex
survives a clip is decided exactly; only the *coordinates* of intersection
vertices are rounded (they have no exact float representation), and the
remaining tolerances — vertex merging, the boundary slack of
:meth:`ConvexPolygon.contains` — are *relative* to the polygon's coordinate
scale, not absolute, so behavior is invariant under translating or scaling
the data space.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.geometry import predicates
from repro.geometry.halfplane import HalfPlane
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect


class ConvexPolygon:
    """A convex polygon given by its vertices in counter-clockwise order.

    The empty polygon (no vertices) represents an empty region, which is a
    legitimate outcome of repeated clipping.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Iterable[float]] = ()):
        self.vertices: List[Point] = [Point(float(x), float(y)) for x, y in vertices]

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.vertices!r})"

    def __len__(self) -> int:
        return len(self.vertices)

    def is_empty(self) -> bool:
        """Whether the polygon has degenerated to an empty region."""
        return len(self.vertices) == 0

    @staticmethod
    def from_rect(rect: Rect) -> "ConvexPolygon":
        """The rectangle as a CCW convex polygon."""
        return ConvexPolygon(list(rect.corners()))

    def _coord_scale(self) -> float:
        """Largest coordinate magnitude (>= 1), the relative-tolerance unit."""
        scale = 1.0
        for v in self.vertices:
            ax = abs(v.x)
            if ax > scale:
                scale = ax
            ay = abs(v.y)
            if ay > scale:
                scale = ay
        return scale

    def area(self) -> float:
        """Signed shoelace area (non-negative for CCW vertex order).

        Computed about the first vertex: raw-coordinate shoelace terms
        grow like ``offset^2`` and cancel catastrophically for polygons
        far from the origin, while the recentred cross products stay at
        the scale of the polygon itself.
        """
        verts = self.vertices
        n = len(verts)
        if n < 3:
            return 0.0
        ox, oy = verts[0]
        total = 0.0
        for i in range(1, n - 1):
            x1, y1 = verts[i]
            x2, y2 = verts[i + 1]
            total += (x1 - ox) * (y2 - oy) - (x2 - ox) * (y1 - oy)
        return total / 2.0

    def centroid(self) -> Point:
        """Area centroid; falls back to the vertex mean for degenerate polygons."""
        verts = self.vertices
        if not verts:
            raise ValueError("centroid of an empty polygon is undefined")
        a = self.area()
        scale = self._coord_scale()
        if abs(a) < predicates.VERTEX_MERGE_REL * scale * scale:
            sx = sum(v.x for v in verts) / len(verts)
            sy = sum(v.y for v in verts) / len(verts)
            return Point(sx, sy)
        # Recentred about the first vertex, like area(): keeps the cross
        # products at polygon scale for polygons far from the origin.
        ox, oy = verts[0]
        cx = cy = 0.0
        n = len(verts)
        for i in range(1, n - 1):
            x1, y1 = verts[i][0] - ox, verts[i][1] - oy
            x2, y2 = verts[i + 1][0] - ox, verts[i + 1][1] - oy
            cross = x1 * y2 - x2 * y1
            cx += (x1 + x2) * cross
            cy += (y1 + y2) * cross
        return Point(ox + cx / (6.0 * a), oy + cy / (6.0 * a))

    def contains(self, p: Iterable[float], tol: Optional[float] = None) -> bool:
        """Point-in-convex-polygon test with a boundary tolerance.

        ``tol`` is a *distance*: points within ``tol`` of the boundary
        count as inside (the cross products are scaled by edge length so
        the tolerance is scale-independent).  When omitted it defaults to
        ``BOUNDARY_REL`` times the coordinate scale of the polygon and the
        point — *relative*, so a boundary point at extent 1e7 is treated
        the same as one at extent 100.  Works for any vertex count; an
        empty polygon contains nothing and a degenerate (point/segment)
        polygon contains only points within ``tol`` of it.
        """
        verts = self.vertices
        n = len(verts)
        if n == 0:
            return False
        x, y = p
        if tol is None:
            scale = max(self._coord_scale(), abs(x), abs(y))
            tol = predicates.BOUNDARY_REL * scale
        if n == 1:
            return math.hypot(x - verts[0].x, y - verts[0].y) <= tol
        merge = predicates.VERTEX_MERGE_REL * self._coord_scale()
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            ex = x2 - x1
            ey = y2 - y1
            cross = ex * (y - y1) - ey * (x - x1)
            edge_len = math.hypot(ex, ey)
            if edge_len <= merge:
                # Degenerate edge: fall back to vertex distance.
                if math.hypot(x - x1, y - y1) > tol and n == 2:
                    return False
                continue
            if cross < -tol * edge_len:
                return False
        return True

    def clip(self, hp: HalfPlane) -> "ConvexPolygon":
        """Clip against a half-plane, keeping the non-negative side.

        Vertex sidedness is decided by the exact predicate, so a vertex
        precisely on the boundary line is always kept (closed half-plane
        semantics) regardless of coordinate magnitude.  When no vertex is
        strictly outside, the half-plane holds every vertex of the convex
        polygon and so the whole polygon: ``self`` is returned (every
        vertex is still classified, so the predicate counts do not
        depend on it).  Otherwise a new polygon is returned; the original
        is left untouched.
        """
        verts = self.vertices
        n = len(verts)
        if n == 0:
            return self
        # Inline replica of the predicates.halfplane_sign filter (same
        # arithmetic, so same decisions): clipping evaluates every vertex
        # of every polygon against every bisector, which makes this the
        # hot path of the Voronoi baseline and the region polygon.
        a, b, c = hp.a, hp.b, hp.c
        guard = hp.c_err + predicates.ABS_GUARD
        hp_filter = predicates.HP_FILTER
        signs: List[int] = []
        values: List[float] = []
        fast = 0
        cut = False
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
                cut = True
            else:
                sign = predicates.halfplane_sign(hp, v.x, v.y)
                signs.append(sign)
                if sign < 0:
                    cut = True
            values.append(e)
        predicates.STATS.filter_hits += fast
        if not cut:
            return self
        out: List[Point] = []
        for i in range(n):
            cur, nxt = verts[i], verts[(i + 1) % n]
            scur, snxt = signs[i], signs[(i + 1) % n]
            if scur >= 0:
                out.append(cur)
            if (scur > 0 and snxt < 0) or (scur < 0 and snxt > 0):
                vcur, vnxt = values[i], values[(i + 1) % n]
                denom = vcur - vnxt
                # The float values have opposite exact signs; a zero float
                # denominator can only happen when both round to the same
                # tiny value, where the midpoint is as good as any.
                t = vcur / denom if denom != 0.0 else 0.5
                out.append(
                    Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y))
                )
        # Every vertex is already a float Point: skip __init__'s copy.
        result = ConvexPolygon.__new__(ConvexPolygon)
        result.vertices = _dedupe(out)
        return result

    def bounding_rect(self) -> Optional[Rect]:
        """Axis-aligned bounding rectangle, or ``None`` if empty."""
        if not self.vertices:
            return None
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))


def _dedupe(points: List[Point]) -> List[Point]:
    """Drop consecutive (near-)duplicate vertices produced by clipping.

    The merge radius is relative to the coordinate magnitudes involved:
    intersection vertices are rounded, so "duplicate" can only ever mean
    "equal up to that rounding", which scales with the coordinates.
    The wrap-around duplicate is popped until none is left, which makes
    the function idempotent: a polygon it produced passes through
    unchanged, as :meth:`ConvexPolygon.clip`'s no-cut return assumes.
    """
    if not points:
        return points

    def near(p: Point, q: Point) -> bool:
        span = max(abs(p.x), abs(p.y), abs(q.x), abs(q.y), 1.0)
        eps = predicates.VERTEX_MERGE_REL * span
        return abs(p.x - q.x) <= eps and abs(p.y - q.y) <= eps

    out: List[Point] = [points[0]]
    for p in points[1:]:
        if not near(p, out[-1]):
            out.append(p)
    while len(out) > 1 and near(out[0], out[-1]):
        out.pop()
    return out


def clip_rect_by_halfplanes(
    rect: Rect, halfplanes: Iterable[HalfPlane]
) -> ConvexPolygon:
    """Intersection of a rectangle with a set of half-planes."""
    poly = ConvexPolygon.from_rect(rect)
    for hp in halfplanes:
        poly = poly.clip(hp)
        if poly.is_empty():
            break
    return poly
