"""Pluggable distance metrics: Euclidean and road-network shortest path.

ROADMAP item 4.  The paper's motivating workload is moving objects on
road networks; this module is the seam that lets the query layer evaluate
R(k)NN under either the plain Euclidean metric (the default everywhere,
byte-for-byte the pre-seam behavior) or shortest-path distance over a
:class:`~repro.motion.roadnet.RoadNetwork`.

Design constraints, in order of importance:

1. **Engine/oracle bit-equality.**  The differential fuzzer holds the
   network-metric engine to a networkx-based brute oracle bit for bit.
   Both sides snap points and combine distances through the shared spec
   on :class:`RoadNetwork` (:meth:`locate` / :meth:`point_to_point`);
   this module only supplies the single-source Dijkstra maps, computed
   with left-fold float sums (``dist[u] + w``) — the same fold networkx
   uses — so the maps, and therefore every point distance, agree with
   the oracle exactly (see the property suite in
   ``tests/motion/test_roadnet_metric.py``, which pins the kernel
   against ``networkx.single_source_dijkstra_path_length``).

2. **Sharing across queries and ticks (BRkNN-light, PAPERS.md).**
   RkNN queries over the same road network mostly expand the same
   shortest-path trees, and a network never changes.  So per-source
   distance maps are memoized on the :class:`RoadNetwork` itself
   (:attr:`RoadNetwork.distance_memo`), shared by every metric over it,
   batched or not, and kept across ticks: a tick boundary drops only
   the maps the finished tick did not request
   (:meth:`RoadNetwork.observe_grid`).

3. **Sound Euclidean prefiltering.**  Straight-line distance lower
   bounds shortest-path distance, so a Euclidean ball is a sound
   superset filter for network witness enumeration.  Because engine
   distances are finite-precision left folds, the prefilter radius is
   padded multiplicatively by :data:`PREFILTER_PAD`; the pad only ever
   admits extra candidates (the final test is the shared exact float
   comparison), and 2**-30 exceeds the worst-case relative rounding of
   any realistic path fold (~n * 2**-52) by orders of magnitude.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.motion.roadnet import RoadNetwork

#: Multiplicative padding for Euclidean prefilter radii derived from
#: network-distance thresholds (see module docstring, point 3).
PREFILTER_PAD = 1.0 + 2.0**-30

Located = Tuple[int, int, float, float]


@dataclass
class MetricStats:
    """Process-global network-metric counters.

    Published per tick by the simulator as deltas (the same last-seen
    pattern as ``predicates.STATS`` and ``STORE_STATS``), feeding the
    ``network_dijkstra_expansions_total`` / sharing-ratio series.
    """

    dijkstra_runs: int = 0
    dijkstra_expansions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        self.dijkstra_runs = 0
        self.dijkstra_expansions = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def snapshot(self) -> dict:
        """Plain-data copy of the counters (process-boundary safe)."""
        return {
            "dijkstra_runs": self.dijkstra_runs,
            "dijkstra_expansions": self.dijkstra_expansions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def merge(self, delta: dict) -> None:
        """Fold another process's counter *delta* into this instance
        (the worker→gateway seam; see ``PredicateStats.merge``)."""
        self.dijkstra_runs += delta.get("dijkstra_runs", 0)
        self.dijkstra_expansions += delta.get("dijkstra_expansions", 0)
        self.cache_hits += delta.get("cache_hits", 0)
        self.cache_misses += delta.get("cache_misses", 0)

    @property
    def sharing_ratio(self) -> float:
        """Fraction of distance-map requests served from a cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


STATS = MetricStats()


class Metric:
    """Distance backend seam.

    ``euclidean`` tells consumers whether the geometric machinery built
    on straight-line distance — perpendicular-bisector half-plane
    pruning, squared-distance comparisons, the alive-cell region — is
    valid for this metric.  The IGERN cores refuse non-Euclidean
    metrics (``AliveCellGrid.require_euclidean``); the network mode
    evaluates by filter-and-refine instead (``repro.core.network``).
    """

    euclidean: bool = True

    def distance(self, a: Iterable[float], b: Iterable[float]) -> float:
        """Distance between two raw points."""
        raise NotImplementedError

    def observe_grid(self, grid) -> None:
        """Note the grid driving the queries (no-op unless the metric
        keeps cross-tick state to scope by tick epoch)."""

    def prefilter_radius(self, threshold: float) -> float:
        """A Euclidean radius whose closed ball contains every point at
        metric distance strictly below ``threshold``."""
        return threshold


class EuclideanMetric(Metric):
    """The default straight-line metric (identity seam)."""

    euclidean = True

    def distance(self, a: Iterable[float], b: Iterable[float]) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])


#: Shared default instance; the seam's "nothing changed" value.
EUCLIDEAN = EuclideanMetric()


class NetworkMetric(Metric):
    """Shortest-path distance over a :class:`RoadNetwork`.

    A point's distance is ``(spur_a + route) + spur_b``: the Euclidean
    spurs from the raw points to their canonical snaps plus the
    shortest network route between the snaps (the standard access-cost
    model; objects that wander off the network, e.g. under churn, stay
    well-defined and the Euclidean lower bound still holds).  All snap
    and combination decisions live on :meth:`RoadNetwork.locate` /
    :meth:`RoadNetwork.point_to_point` — shared with the brute oracle.
    """

    euclidean = False

    def __init__(self, network: RoadNetwork):
        self.network = network

    def observe_grid(self, grid) -> None:
        """Mark tick boundaries on the network's memos (see
        :meth:`RoadNetwork.observe_grid`)."""
        self.network.observe_grid(grid)

    def node_distances(self, source: int) -> Dict[int, float]:
        """The single-source shortest-path map of ``source``, memoized on
        the network for every metric over it."""
        memo = self.network.distance_memo
        cached = memo.get(source)
        if cached is not None:
            STATS.cache_hits += 1
            return cached
        STATS.cache_misses += 1
        dist = self.compute_distances(source)
        memo.put(source, dist)
        return dist

    def compute_distances(self, source: int) -> Dict[int, float]:
        """Uncached single-source Dijkstra over the road network.

        Lazy-deletion form with left-fold float sums — the contract of
        :meth:`RoadNetwork.point_to_point`.  Relaxation is strict
        (``nd < dist``): flipping it to ``<=`` provably leaves every
        distance bit-identical (equal sums overwrite equal sums; the
        property suite pins this), which is why the fuzzer's planted
        Dijkstra mutant targets the observable stale-entry guard and
        the strict witness comparison instead.
        """
        stats = STATS
        stats.dijkstra_runs += 1
        neighbors = self.network.neighbors
        inf = math.inf
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] < d:  # stale lazy-deletion entry
                continue
            stats.dijkstra_expansions += 1
            for v, w in neighbors(u):
                nd = d + w
                if nd < dist.get(v, inf):  # the relaxation
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    # -- point distances -----------------------------------------------

    def locate(self, point: Iterable[float]) -> Located:
        return self.network.locate(point)

    def distance_located(self, loc_a: Located, loc_b: Located) -> float:
        """Distance between two pre-snapped points (candidate first —
        Dijkstra sources are taken on the ``loc_a`` side)."""
        return self.network.point_to_point(loc_a, loc_b, self.node_distances)

    def distance(self, a: Iterable[float], b: Iterable[float]) -> float:
        network = self.network
        return network.point_to_point(
            network.locate(a), network.locate(b), self.node_distances
        )

    def retain(self, point: Iterable[float], located: Located) -> None:
        """Carry ``point``'s snap and the distance maps of its edge's
        endpoints across the next tick boundary, as a probe from
        ``point`` would: reads that promote existing memo entries,
        computing and counting nothing (a verdict kept without a probe
        must not leave its maps to be evicted and recomputed later)."""
        network = self.network
        network.snap_memo.get((float(point[0]), float(point[1])))
        memo = network.distance_memo
        memo.get(located[0])
        memo.get(located[1])

    def prefilter_radius(self, threshold: float) -> float:
        if not math.isfinite(threshold):
            return math.inf
        return threshold * PREFILTER_PAD
