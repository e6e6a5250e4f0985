"""Brute-force reverse nearest neighbor oracles under road-network distance.

The network-mode counterpart of :mod:`repro.queries.brute`, and the
fuzz-format oracle the differential lockstep holds the network-metric
engine to.  Deliberately *independent* of the engine's traversal
machinery: distances come from ``networkx.single_source_dijkstra_path_length``
rather than the engine's memoized hand-rolled kernel, there is no grid
prefilter, no shared tick context, and no pruning — just the quadratic
definition.

What the two sides DO share is the distance *spec* on
:class:`~repro.motion.roadnet.RoadNetwork`: the canonical snap
(:meth:`locate`) and the point-to-point combination formula
(:meth:`point_to_point`).  Both compute single-source maps with
left-fold float sums (``dist[u] + w``), which makes the maps — and
therefore every answer — bit-identical (pinned by the property suite in
``tests/motion/test_roadnet_metric.py``); any divergence the fuzzer
reports is a real logic bug in the engine's filtering, memoization or
batching, never float noise.

Tie semantics follow the paper exactly: only *strictly* closer
witnesses disqualify, so two objects sitting equidistant along
different paths (bit-equal left-fold sums — easy to manufacture on a
jitter-free grid network) both remain answers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Set, Tuple

import networkx as nx

from repro.grid.index import Category, GridIndex, ObjectId
from repro.motion.roadnet import RoadNetwork
from repro.obs.ledger import phase
from repro.queries.base import ContinuousQuery, QueryPosition

Position = Tuple[float, float]
#: Per-network single-source distance-map cache type: source node ->
#: (node -> left-fold float distance).  Pure functions of the immutable
#: network, so callers may reuse one cache across calls and ticks.
NodeCache = Dict[int, Dict[int, float]]


def _node_distances(network: RoadNetwork, cache: NodeCache, source: int) -> Dict[int, float]:
    dist = cache.get(source)
    if dist is None:
        dist = nx.single_source_dijkstra_path_length(
            network.graph, source, weight="length"
        )
        cache[source] = dist
    return dist


def network_brute_mono_rnn(
    network: RoadNetwork,
    positions: Mapping[ObjectId, Position],
    qpos: Iterable[float],
    query_id: Optional[ObjectId] = None,
    k: int = 1,
    node_cache: Optional[NodeCache] = None,
) -> Set[ObjectId]:
    """Monochromatic R(k)NNs of ``qpos`` under network distance,
    by exhaustive comparison.

    ``o`` is an answer iff fewer than ``k`` other data objects are
    strictly closer to ``o`` (along the network) than the query is.
    ``query_id`` (if given) is neither a candidate nor a witness.
    Argument roles follow the shared spec: the candidate is always the
    first operand of :meth:`RoadNetwork.point_to_point`, so Dijkstra
    sources sit on the candidate side — exactly as in the engine.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cache: NodeCache = node_cache if node_cache is not None else {}

    def lookup(source: int) -> Dict[int, float]:
        return _node_distances(network, cache, source)

    locate = network.locate
    located = {
        oid: locate(pos) for oid, pos in positions.items() if oid != query_id
    }
    loc_q = locate((qpos[0], qpos[1]))
    answer: Set[ObjectId] = set()
    for oid, loc_o in located.items():
        r = network.point_to_point(loc_o, loc_q, lookup)
        witnesses = 0
        for other_id, loc_p in located.items():
            if other_id == oid:
                continue
            if network.point_to_point(loc_o, loc_p, lookup) < r:
                witnesses += 1
                if witnesses >= k:
                    break
        if witnesses < k:
            answer.add(oid)
    return answer


def network_brute_bi_rnn(
    network: RoadNetwork,
    positions_a: Mapping[ObjectId, Position],
    positions_b: Mapping[ObjectId, Position],
    qpos: Iterable[float],
    query_id: Optional[ObjectId] = None,
    k: int = 1,
    node_cache: Optional[NodeCache] = None,
) -> Set[ObjectId]:
    """Bichromatic R(k)NNs of a type-A query under network distance.

    A B object is an answer iff fewer than ``k`` A objects (other than
    the query itself) are strictly closer to it along the network than
    the query's position.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cache: NodeCache = node_cache if node_cache is not None else {}

    def lookup(source: int) -> Dict[int, float]:
        return _node_distances(network, cache, source)

    locate = network.locate
    located_a = {
        oid: locate(pos) for oid, pos in positions_a.items() if oid != query_id
    }
    loc_q = locate((qpos[0], qpos[1]))
    answer: Set[ObjectId] = set()
    for ob, bpos in positions_b.items():
        loc_b = locate(bpos)
        r = network.point_to_point(loc_b, loc_q, lookup)
        witnesses = 0
        for loc_a in located_a.values():
            if network.point_to_point(loc_b, loc_a, lookup) < r:
                witnesses += 1
                if witnesses >= k:
                    break
        if witnesses < k:
            answer.add(ob)
    return answer


class NetworkBruteMonoQuery(ContinuousQuery):
    """Executor wrapper around :func:`network_brute_mono_rnn`.

    The network-mode oracle participant for lockstep suites and demos;
    keeps a persistent per-instance Dijkstra-map cache (sound: networks
    are immutable).
    """

    name = "Brute-net"
    flavor = "mono"

    def __init__(
        self, grid: GridIndex, position: QueryPosition, network: RoadNetwork, k: int = 1
    ):
        super().__init__(grid, position)
        self.network = network
        self.k = k
        self._node_cache: NodeCache = {}

    def initial(self) -> FrozenSet[Hashable]:
        return self.tick()

    def tick(self) -> FrozenSet[Hashable]:
        with phase(self.cost, "brute.network_scan"):
            snapshot = self.grid.positions_snapshot()
            self._answer = frozenset(
                network_brute_mono_rnn(
                    self.network,
                    snapshot,
                    self.position.current(),
                    query_id=self.position.query_id,
                    k=self.k,
                    node_cache=self._node_cache,
                )
            )
        return self._answer


class NetworkBruteBiQuery(ContinuousQuery):
    """Executor wrapper around :func:`network_brute_bi_rnn`."""

    name = "Brute-bi-net"
    flavor = "bi"

    def __init__(
        self,
        grid: GridIndex,
        position: QueryPosition,
        network: RoadNetwork,
        cat_a: Category = "A",
        cat_b: Category = "B",
        k: int = 1,
    ):
        super().__init__(grid, position)
        self.network = network
        self.cat_a = cat_a
        self.cat_b = cat_b
        self.k = k
        self._node_cache: NodeCache = {}

    def initial(self) -> FrozenSet[Hashable]:
        return self.tick()

    def tick(self) -> FrozenSet[Hashable]:
        with phase(self.cost, "brute.network_scan"):
            snap_a = self.grid.positions_snapshot(self.cat_a)
            snap_b = self.grid.positions_snapshot(self.cat_b)
            self._answer = frozenset(
                network_brute_bi_rnn(
                    self.network,
                    snap_a,
                    snap_b,
                    self.position.current(),
                    query_id=self.position.query_id,
                    k=self.k,
                    node_cache=self._node_cache,
                )
            )
        return self._answer
