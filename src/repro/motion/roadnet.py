"""Synthetic planar road networks.

Stand-in for the Hennepin County road map the paper feeds to the Brinkhoff
generator (see DESIGN.md, substitution 1).  Two builders are provided:

- :meth:`RoadNetwork.grid_city` — a jittered Manhattan-style street grid
  with occasional diagonal shortcuts; visually and statistically close to
  a US county road map at the scale the experiments care about;
- :meth:`RoadNetwork.delaunay` — the Delaunay triangulation of uniform
  random sites, giving an irregular rural-style network.

All networks are normalized into the unit square with a small margin, so
they can back any :class:`repro.grid.index.GridIndex` with the default
extent.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.geometry.point import Point

Edge = Tuple[int, int]


class TickMemo:
    """A two-generation memo: an entry survives a tick boundary only if
    the tick that just finished requested it.

    Lookups read the current generation and promote hits from the
    previous one; :meth:`new_tick` retires the previous generation and
    starts a fresh current one.  So after any boundary the memo holds at
    most the keys of the finished tick plus those of the running one,
    and nothing is ever evicted within a tick.
    """

    __slots__ = ("_current", "_previous")

    def __init__(self) -> None:
        self._current: dict = {}
        self._previous: dict = {}

    def get(self, key):
        value = self._current.get(key)
        if value is None:
            value = self._previous.pop(key, None)
            if value is not None:
                self._current[key] = value
        return value

    def put(self, key, value) -> None:
        self._current[key] = value

    def new_tick(self) -> None:
        self._previous = self._current
        self._current = {}

    def __len__(self) -> int:
        return len(self._current) + len(self._previous)

    def __contains__(self, key) -> bool:
        return key in self._current or key in self._previous


class RoadNetwork:
    """An undirected planar network with Euclidean edge lengths.

    A network is immutable, so everything derived from it — edge snaps
    (:meth:`locate`) and single-source distance maps (memoized by
    :class:`repro.metric.NetworkMetric` in :attr:`distance_memo`) — is a
    pure function of it, cached here once for every metric and query
    over the network.  :meth:`observe_grid` scopes both memos by tick.
    """

    def __init__(
        self,
        positions: Dict[int, Tuple[float, float]],
        edges: Iterable[Edge],
        keep_largest_component: bool = True,
    ):
        if not positions:
            raise ValueError("a road network needs at least one node")
        graph = nx.Graph()
        for node, (x, y) in positions.items():
            graph.add_node(node, pos=(float(x), float(y)))
        for u, v in edges:
            if u == v:
                continue
            (ux, uy) = positions[u]
            (vx, vy) = positions[v]
            graph.add_edge(u, v, length=math.hypot(ux - vx, uy - vy))
        if keep_largest_component and graph.number_of_nodes() > 0:
            largest = max(nx.connected_components(graph), key=len)
            graph = graph.subgraph(largest).copy()
        if graph.number_of_edges() == 0:
            raise ValueError("road network has no edges after cleaning")
        self._graph = graph
        self._pos: Dict[int, Point] = {
            node: Point(*graph.nodes[node]["pos"]) for node in graph.nodes
        }
        self._nodes: List[int] = sorted(graph.nodes)
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {
            node: [
                (nbr, graph.edges[node, nbr]["length"])
                for nbr in graph.neighbors(node)
            ]
            for node in graph.nodes
        }
        # Canonical edge enumeration for :meth:`locate`: (u, v, length)
        # with u < v, in sorted order, independently of construction or
        # networkx iteration order.  The strict-< closest-edge scan over
        # this list is what makes snapping deterministic across every
        # consumer (engine metric and brute oracle alike).
        self._sorted_edges: List[Tuple[int, int, float]] = sorted(
            (min(u, v), max(u, v), length) for u, v, length in self.edges()
        )
        # (u, v) -> length with u < v: the edge keys :meth:`locate`
        # returns, read by :meth:`point_to_point` without networkx.
        self._edge_lengths: Dict[Tuple[int, int], float] = {
            (u, v): length for u, v, length in self._sorted_edges
        }
        # The same enumeration as columns, for :meth:`locate`'s
        # vectorised scan: each edge's ``u`` end, direction ``v - u`` and
        # squared length, computed as the per-edge float expressions.
        ux = np.array([self._pos[u].x for u, _, _ in self._sorted_edges])
        uy = np.array([self._pos[u].y for u, _, _ in self._sorted_edges])
        ex = np.array([self._pos[v].x for _, v, _ in self._sorted_edges]) - ux
        ey = np.array([self._pos[v].y for _, v, _ in self._sorted_edges]) - uy
        len2 = ex * ex + ey * ey
        degenerate = len2 == 0.0
        self._edge_columns = (ux, uy, ex, ey, np.where(degenerate, 1.0, len2))
        #: Mask of the zero-length edges (``None`` when there are none).
        self._edge_degenerate = degenerate if degenerate.any() else None
        self._init_memos()

    def _init_memos(self) -> None:
        #: Snap memo of :meth:`locate`: raw point -> located snap.
        self.snap_memo = TickMemo()
        #: Single-source distance maps: source node -> {node: distance}.
        self.distance_memo = TickMemo()
        #: Last ``GridIndex.mutations`` stamp seen by :meth:`observe_grid`.
        self._grid_stamp: Optional[int] = None

    def __getstate__(self) -> dict:
        # The memos are process-local: a pickled network (shipped to
        # every shard worker) carries none of their entries.
        state = self.__dict__.copy()
        for name in ("snap_memo", "distance_memo", "_grid_stamp"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_memos()

    def observe_grid(self, grid) -> None:
        """Mark a tick boundary when the grid's ``mutations`` stamp moved.

        Query adapters call this (through
        :meth:`repro.metric.NetworkMetric.observe_grid`) before every
        evaluation.  A new stamp means a tick's movement landed: both
        memos then drop what the finished tick did not request.  Every
        moved object snaps to a new key and may probe from new sources,
        so without the boundary a long run would keep one snap per
        position and one O(nodes) map per source node ever touched.
        Eviction is a pure memory policy — a recomputed entry is
        bit-identical — so answers are unaffected.
        """
        stamp = grid.mutations
        if stamp != self._grid_stamp:
            self._grid_stamp = stamp
            self.snap_memo.new_tick()
            self.distance_memo.new_tick()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (positions in node attr ``pos``)."""
        return self._graph

    @property
    def nodes(self) -> Sequence[int]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node_pos(self, node: int) -> Point:
        return self._pos[node]

    def neighbors(self, node: int) -> List[Tuple[int, float]]:
        """``(neighbor, edge_length)`` pairs of a node."""
        return self._adjacency[node]

    def edge_length(self, u: int, v: int) -> float:
        return self._graph.edges[u, v]["length"]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        for u, v, data in self._graph.edges(data=True):
            yield (u, v, data["length"])

    def sorted_edges(self) -> Sequence[Tuple[int, int, float]]:
        """All edges as ``(u, v, length)`` with ``u < v``, in sorted
        order — the canonical enumeration :meth:`locate` snaps over.
        Deterministic consumers (scenario sampling, tests) should prefer
        this over :meth:`edges`, whose order is construction-dependent."""
        return self._sorted_edges

    def random_node(self, rng: random.Random) -> int:
        return self._nodes[rng.randrange(len(self._nodes))]

    def point_on_edge(self, u: int, v: int, offset: float) -> Point:
        """Position at distance ``offset`` from ``u`` along edge ``(u, v)``."""
        length = self.edge_length(u, v)
        t = 0.0 if length == 0.0 else min(max(offset / length, 0.0), 1.0)
        pu = self._pos[u]
        pv = self._pos[v]
        return Point(pu.x + t * (pv.x - pu.x), pu.y + t * (pv.y - pu.y))

    def shortest_path(self, source: int, target: int) -> List[int]:
        """Length-weighted shortest path as a node list (incl. endpoints)."""
        return nx.shortest_path(self._graph, source, target, weight="length")

    # ------------------------------------------------------------------
    # Network distance spec
    # ------------------------------------------------------------------
    #
    # Everything below is the single shared definition of "network
    # distance between two points" used by BOTH the engine metric
    # (repro.metric.NetworkMetric) and the brute-force oracle
    # (repro.queries.network_brute).  The two sides may differ in how
    # they traverse the graph (memoized hand-rolled Dijkstra vs
    # networkx), but every snap decision and every float combination
    # happens here, once — which is what makes their answers
    # bit-identical and the differential lockstep meaningful.

    def locate(self, point: Iterable[float]) -> Tuple[int, int, float, float]:
        """Canonical snap of an arbitrary point onto the network.

        Returns ``(u, v, offset, spur)`` where ``(u, v)`` with ``u < v``
        is the closest edge, ``offset`` the along-edge distance from
        ``u`` of the clamped orthogonal projection, and ``spur`` the
        Euclidean distance from the raw point to that projection (the
        "access cost" of reaching the network; exactly ``0.0`` for
        points sitting on a node).  Ties between equally close edges
        are broken by the canonical sorted edge order (strict ``<``
        keeps the first), so every consumer agrees on the snap and
        therefore on every downstream distance bit.
        """
        px = float(point[0])
        py = float(point[1])
        key = (px, py)
        cached = self.snap_memo.get(key)
        if cached is not None:
            return cached
        # One pass over every edge at once.  Each element is computed by
        # the per-edge scalar expression, term for term: the clamps keep
        # ``t`` exactly as ``min(max(t, 0.0), 1.0)`` does (a ``-0.0``
        # included), a zero-length edge projects to ``t = 0.0``, and
        # ``argmin`` returns the first minimum, the strict ``<`` rule.
        ux, uy, ex, ey, len2 = self._edge_columns
        t = ((px - ux) * ex + (py - uy) * ey) / len2
        t = np.where(0.0 > t, 0.0, t)
        t = np.where(1.0 < t, 1.0, t)
        if self._edge_degenerate is not None:
            t = np.where(self._edge_degenerate, 0.0, t)
        dx = px - (ux + t * ex)
        dy = py - (uy + t * ey)
        d2 = dx * dx + dy * dy
        i = int(np.argmin(d2))
        u, v, length = self._sorted_edges[i]
        located = (u, v, float(t[i]) * length, math.sqrt(float(d2[i])))
        self.snap_memo.put(key, located)
        return located

    def point_to_point(
        self,
        loc_a: Tuple[int, int, float, float],
        loc_b: Tuple[int, int, float, float],
        node_distances: Callable[[int], Dict[int, float]],
    ) -> float:
        """Network distance between two :meth:`locate` results.

        ``node_distances(source)`` must return the single-source
        shortest-path map of ``source`` computed with left-fold float
        sums (``dist[u] + w``).  Under that contract any conforming
        implementation returns bit-identical maps — float addition is
        monotone and edge weights non-negative, so the minimum over
        relaxation orders equals the minimum over paths of the same
        left-fold sum — and this combination formula then yields
        bit-identical point distances.

        The route between the snapped points is the minimum of the
        direct along-edge segment (when both share an edge) and the
        four endpoint pairings ``(wa + D[ea][eb]) + wb``; the spurs are
        folded in last as ``(spur_a + route) + spur_b``.  Dijkstra
        sources are always taken on the ``loc_a`` side, so callers must
        pass arguments in consistent roles (candidate first).
        """
        ua, va, off_a, spur_a = loc_a
        ub, vb, off_b, spur_b = loc_b
        len_a = self._edge_lengths[ua, va]
        len_b = self._edge_lengths[ub, vb]
        route = math.inf
        if ua == ub and va == vb:
            route = abs(off_a - off_b)
        for ea, wa in ((ua, off_a), (va, len_a - off_a)):
            dist = node_distances(ea)
            for eb, wb in ((ub, off_b), (vb, len_b - off_b)):
                d = dist.get(eb)
                if d is None:
                    continue
                cand = (wa + d) + wb
                if cand < route:
                    route = cand
        if not math.isfinite(route):  # pragma: no cover - disconnected input
            return math.inf
        return (spur_a + route) + spur_b

    @staticmethod
    def from_dict(params: Dict) -> "RoadNetwork":
        """Rebuild a network from the JSON-friendly description stored
        in fuzz scenarios (see ``repro.fuzz.scenario``)."""
        params = dict(params)
        params.pop("node_jump", None)  # motion style, not network structure
        kind = params.pop("kind", "grid_city")
        if kind == "grid_city":
            return RoadNetwork.grid_city(**params)
        if kind == "radial_city":
            return RoadNetwork.radial_city(**params)
        if kind == "delaunay":
            return RoadNetwork.delaunay(**params)
        raise ValueError(f"unknown road network kind {kind!r}")

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @staticmethod
    def grid_city(
        rows: int = 16,
        cols: int = 16,
        jitter: float = 0.25,
        diagonal_prob: float = 0.08,
        seed: int = 0,
        margin: float = 0.02,
    ) -> "RoadNetwork":
        """A jittered street grid with occasional diagonal shortcuts.

        ``jitter`` is the node displacement as a fraction of the block
        size; ``diagonal_prob`` the chance that a block gets a diagonal
        street.
        """
        if rows < 2 or cols < 2:
            raise ValueError("grid city needs at least a 2x2 node lattice")
        rng = random.Random(seed)
        span = 1.0 - 2.0 * margin
        dx = span / (cols - 1)
        dy = span / (rows - 1)
        positions: Dict[int, Tuple[float, float]] = {}
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                jx = rng.uniform(-jitter, jitter) * dx
                jy = rng.uniform(-jitter, jitter) * dy
                x = margin + c * dx + jx
                y = margin + r * dy + jy
                positions[node] = (min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0))
        edges: List[Edge] = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    edges.append((node, node + 1))
                if r + 1 < rows:
                    edges.append((node, node + cols))
                if c + 1 < cols and r + 1 < rows and rng.random() < diagonal_prob:
                    if rng.random() < 0.5:
                        edges.append((node, node + cols + 1))
                    else:
                        edges.append((node + 1, node + cols))
        return RoadNetwork(positions, edges)

    @staticmethod
    def radial_city(
        rings: int = 6,
        spokes: int = 12,
        seed: int = 0,
        jitter: float = 0.1,
        margin: float = 0.02,
    ) -> "RoadNetwork":
        """A ring-and-spoke road network (European-style radial city).

        ``rings`` concentric ring roads crossed by ``spokes`` radial
        avenues meeting at a central node.
        """
        if rings < 1 or spokes < 3:
            raise ValueError("radial city needs >= 1 ring and >= 3 spokes")
        rng = random.Random(seed)
        center = (0.5, 0.5)
        max_r = 0.5 - margin
        positions: Dict[int, Tuple[float, float]] = {0: center}
        edges: List[Edge] = []

        def node_id(ring: int, spoke: int) -> int:
            return 1 + ring * spokes + spoke

        for ring in range(rings):
            radius = max_r * (ring + 1) / rings
            for spoke in range(spokes):
                theta = 2.0 * math.pi * spoke / spokes
                theta += rng.uniform(-jitter, jitter) * (2.0 * math.pi / spokes)
                r = radius * (1.0 + rng.uniform(-jitter, jitter) / rings)
                x = center[0] + r * math.cos(theta)
                y = center[1] + r * math.sin(theta)
                positions[node_id(ring, spoke)] = (
                    min(max(x, 0.0), 1.0),
                    min(max(y, 0.0), 1.0),
                )
                # Ring road segment to the next spoke.
                edges.append((node_id(ring, spoke), node_id(ring, (spoke + 1) % spokes)))
                # Radial segment inward (to the center for the first ring).
                inner = 0 if ring == 0 else node_id(ring - 1, spoke)
                edges.append((node_id(ring, spoke), inner))
        return RoadNetwork(positions, edges)

    @staticmethod
    def delaunay(
        n_nodes: int = 256, seed: int = 0, margin: float = 0.02
    ) -> "RoadNetwork":
        """Delaunay triangulation of uniform random sites."""
        if n_nodes < 4:
            raise ValueError("Delaunay network needs at least 4 nodes")
        from scipy.spatial import Delaunay  # local import: scipy is heavy

        rng = np.random.default_rng(seed)
        pts = margin + rng.random((n_nodes, 2)) * (1.0 - 2.0 * margin)
        tri = Delaunay(pts)
        edges = set()
        for simplex in tri.simplices:
            a, b, c = (int(v) for v in simplex)
            edges.add((min(a, b), max(a, b)))
            edges.add((min(b, c), max(b, c)))
            edges.add((min(a, c), max(a, c)))
        positions = {i: (float(x), float(y)) for i, (x, y) in enumerate(pts)}
        return RoadNetwork(positions, edges)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Write the network as CSV (``node,id,x,y`` / ``edge,u,v`` rows).

        The format doubles as a loader for real road maps: export any map
        as node/edge rows and feed it to :meth:`load`.
        """
        import csv
        from pathlib import Path

        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record", "a", "b", "c"])
            for node in self._nodes:
                p = self._pos[node]
                writer.writerow(["node", node, repr(p.x), repr(p.y)])
            for u, v, _ in self.edges():
                writer.writerow(["edge", u, v, ""])

    @staticmethod
    def load(path) -> "RoadNetwork":
        """Read a network written by :meth:`save` (or hand-authored in the
        same node/edge CSV format)."""
        import csv
        from pathlib import Path

        path = Path(path)
        positions: Dict[int, Tuple[float, float]] = {}
        edges: List[Edge] = []
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["record", "a", "b", "c"]:
                raise ValueError(f"{path} is not a road network file")
            for row in reader:
                if row[0] == "node":
                    positions[int(row[1])] = (float(row[2]), float(row[3]))
                elif row[0] == "edge":
                    edges.append((int(row[1]), int(row[2])))
                else:
                    raise ValueError(f"unknown record type {row[0]!r} in {path}")
        return RoadNetwork(positions, edges)
