"""Unit tests for repro.geometry.voronoi."""

import math
import random

from repro.geometry.point import dist
from repro.geometry.rectangle import Rect
from repro.geometry.voronoi import voronoi_cell, voronoi_neighbors


class TestVoronoiCell:
    def test_no_others_returns_bounds(self):
        cell = voronoi_cell((0.5, 0.5), [], Rect.unit())
        assert math.isclose(cell.area(), 1.0)

    def test_one_other_halves_space(self):
        cell = voronoi_cell((0.25, 0.5), [(0.75, 0.5)], Rect.unit())
        assert math.isclose(cell.area(), 0.5, rel_tol=1e-9)
        assert cell.contains((0.1, 0.5))
        assert not cell.contains((0.9, 0.5))

    def test_coincident_site_skipped(self):
        cell = voronoi_cell((0.5, 0.5), [(0.5, 0.5)], Rect.unit())
        assert math.isclose(cell.area(), 1.0)

    def test_cell_contains_site(self):
        rng = random.Random(3)
        others = [(rng.random(), rng.random()) for _ in range(20)]
        site = (0.5, 0.5)
        cell = voronoi_cell(site, others, Rect.unit())
        assert cell.contains(site)

    def test_membership_equals_nearest_site(self):
        """A point is in the cell iff the site is its (weakly) nearest."""
        rng = random.Random(5)
        others = [(rng.random(), rng.random()) for _ in range(15)]
        site = (0.4, 0.6)
        cell = voronoi_cell(site, others, Rect.unit())
        for _ in range(300):
            p = (rng.random(), rng.random())
            d_site = dist(p, site)
            d_best = min(dist(p, o) for o in others)
            if d_site < d_best - 1e-9:
                assert cell.contains(p)
            elif d_site > d_best + 1e-9:
                assert not cell.contains(p)

    def test_cells_partition_space(self):
        """Every point belongs to the cell of its nearest site."""
        rng = random.Random(11)
        sites = [(rng.random(), rng.random()) for _ in range(8)]
        cells = [
            voronoi_cell(s, [t for t in sites if t != s], Rect.unit())
            for s in sites
        ]
        for _ in range(200):
            p = (rng.random(), rng.random())
            nearest = min(range(len(sites)), key=lambda i: dist(p, sites[i]))
            assert cells[nearest].contains(p)


class TestTranslationInvariance:
    """Clipping and membership must not depend on where the extent sits.

    The same integer-coordinate site layout is evaluated in a 100-wide
    world at the origin and translated to 1e7 (both translations are
    exact in floats).  Absolute tolerances — the retired ``1e-9``-style
    constants — pass at extent 100 and misclassify at 1e7, where one ulp
    of a coordinate is ~2e-9 times 1e7; the relative/exact predicates
    must give identical decisions at both extents.
    """

    OFFSETS = (0.0, 1.0e7)
    SITE = (37.0, 52.0)
    LAYOUT = [
        (12.0, 9.0),
        (81.0, 14.0),
        (45.0, 77.0),
        (66.0, 48.0),
        (23.0, 61.0),
        (37.0, 12.0),  # collinear with the site in x: axis-aligned bisector
        (90.0, 90.0),
    ]

    def _cell(self, off):
        extent = Rect(off, off, off + 100.0, off + 100.0)
        site = (off + self.SITE[0], off + self.SITE[1])
        others = [(off + x, off + y) for x, y in self.LAYOUT]
        return voronoi_cell(site, others, extent)

    def test_membership_decisions_match_across_extents(self):
        base, far = (self._cell(off) for off in self.OFFSETS)
        rng = random.Random(9)
        probes = [
            (float(rng.randrange(101)), float(rng.randrange(101)))
            for _ in range(300)
        ]
        # Include exact bisector ties: midpoints between the site and
        # each other site, where closed membership must hold both times.
        probes += [
            ((self.SITE[0] + x) / 2.0, (self.SITE[1] + y) / 2.0)
            for x, y in self.LAYOUT
        ]
        for x, y in probes:
            assert base.contains((x, y)) == far.contains((1.0e7 + x, 1.0e7 + y)), (
                f"membership of ({x}, {y}) changed under translation"
            )

    def test_cell_shape_matches_across_extents(self):
        base, far = (self._cell(off) for off in self.OFFSETS)
        assert len(base.vertices) == len(far.vertices)
        assert math.isclose(base.area(), far.area(), rel_tol=1e-9)
        assert math.isclose(
            base.centroid().x + 1.0e7, far.centroid().x, rel_tol=1e-12
        )

    def test_neighbor_sets_match_across_extents(self):
        got = []
        for off in self.OFFSETS:
            extent = Rect(off, off, off + 100.0, off + 100.0)
            site = (off + self.SITE[0], off + self.SITE[1])
            others = {
                i: (off + x, off + y) for i, (x, y) in enumerate(self.LAYOUT)
            }
            got.append(set(voronoi_neighbors(site, others, extent)))
        assert got[0] == got[1]


class TestVoronoiNeighbors:
    def test_neighbors_define_same_cell(self):
        rng = random.Random(7)
        others = {i: (rng.random(), rng.random()) for i in range(25)}
        site = (0.5, 0.5)
        neighbors = voronoi_neighbors(site, others, Rect.unit())
        assert neighbors
        reduced = voronoi_cell(
            site, [others[i] for i in neighbors], Rect.unit()
        )
        full = voronoi_cell(site, others.values(), Rect.unit())
        assert math.isclose(reduced.area(), full.area(), rel_tol=1e-6)

    def test_far_site_is_not_a_neighbor(self):
        others = {
            "near-left": (0.3, 0.5),
            "near-right": (0.7, 0.5),
            "near-up": (0.5, 0.7),
            "near-down": (0.5, 0.3),
            "far": (0.95, 0.95),
        }
        neighbors = voronoi_neighbors((0.5, 0.5), others, Rect.unit())
        assert "far" not in neighbors
        assert set(neighbors) == {"near-left", "near-right", "near-up", "near-down"}

    def test_empty_when_no_others(self):
        assert voronoi_neighbors((0.5, 0.5), {}, Rect.unit()) == []
