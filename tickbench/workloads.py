"""Seeded workload definitions and their precomputed update scripts.

Every workload is a closed loop: one client, one tick in flight.  The
client's inputs — initial objects, query subscriptions, and the per-tick
update script — are generated here from the seed, outside any timed
region, so the program under test only ever sees generated data.

A script also decides, from its own seeded stream, which (query, tick)
pairs the answer check samples, and snapshots the positions those checks
need while it generates the ticks.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.motion import NetworkMovingObjectGenerator, RoadNetwork
from repro.motion.churn import TickEvents
from repro.serving import QuerySpec


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it runs and why it was chosen."""

    name: str
    why: str
    #: Script family: "uniform" (mono, free space), "roads-bi" (bi with
    #: churn on a road network) or "roads-net" (network-distance mono).
    kind: str
    #: Serve through ``AsyncGateway`` over process shards (else one
    #: ``ContinuousQueryManager`` in this process).
    served: bool
    #: Inputs; ``nominal_ticks_per_s`` (the workload's steady rate on the
    #: host the benchmark was sized on) turns ``--seconds`` into the fixed
    #: number of ticks a run plays.
    params: Dict[str, float] = field(default_factory=dict)


#: A quarter of ROADMAP's mono sizing (20k objects, 2k queries, 20 movers)
#: at the same density and mover share.  The allocation a tick makes sets
#: how often CPython's full collection runs (after ten middle-generation
#: passes): with 10 movers it fell on ~8% of ticks, just under the p90
#: line, so p90 flipped between a plain tick and a collection tick from
#: run to run; with 5 movers it falls on ~2%.
_UNIFORM = dict(
    n_objects=5_000,
    n_queries=500,
    movers=5,
    sigma=0.004,
    grid=32,
    k=1,
    check_stride=16,
    check_queries=12,
    nominal_ticks_per_s=23.0,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mono-steady",
            "stable regime: few movers, ~10 evaluations per move, most"
            " unchanged; dispatch and waste fixes show here, ingest and"
            " batch fixes should not",
            "uniform",
            False,
            dict(_UNIFORM),
        ),
        Workload(
            "mono-served",
            "mono-steady's inputs via AsyncGateway over 1 forked process"
            " shard, whose engine runs no flight recorder but a metrics"
            " registry: encoding, pipes, merge and publication cost",
            "uniform",
            True,
            # One shard, not two: with both vCPUs of a shared 2-vCPU host
            # busy at once, every tick waits on the slower shard and run
            # medians swung with hypervisor steal (README).
            dict(_UNIFORM, shards=1, nominal_ticks_per_s=20.0),
        ),
        Workload(
            "bi-churn",
            "every query affected every tick, so dispatch has nothing to"
            " skip; bulk ingest, store churn, footprints, initial"
            " evaluations and batch sharing do the work",
            "roads-bi",
            False,
            dict(
                n_objects=20_000,
                frac_a=0.1,
                move_fraction=0.1,
                churn=0.005,
                # Every query evaluates every tick, and its evaluations
                # set the allocation rate: with 64 queries a full
                # collection fell on ~12% of ticks, at the p90 line;
                # with 32, on ~6%.
                n_queries=32,
                spread=0.12,
                grid=32,
                rows=16,
                cols=16,
                k=1,
                check_stride=8,
                check_queries=8,
                nominal_ticks_per_s=10.0,
            ),
        ),
        Workload(
            "net-roads",
            "the only workload on which network distance runs: footprint"
            "-less queries re-evaluated every tick, Dijkstra and the"
            " Euclidean prefilter do the work",
            "roads-net",
            False,
            dict(
                n_objects=40,
                move_fraction=0.1,
                # Eight queries on a coarse grid, not four on grid 16: each
                # query's cost follows its neighbourhood for tens of ticks,
                # and with four the tick times split into two clusters
                # (~95 and ~170 ms) that the median jumped between.
                n_queries=8,
                grid=8,
                rows=16,
                cols=16,
                k=1,
                check_stride=12,
                check_queries=2,
                nominal_ticks_per_s=7.5,
            ),
        ),
    )
}

#: Tiny configurations of the same workloads for the benchmark's own
#: tests: seconds per run, every metric and the answer check still live.
SMOKE: Dict[str, Dict[str, float]] = {
    "mono-steady": dict(n_objects=600, n_queries=40, movers=3, grid=12,
                        check_stride=3, check_queries=6),
    "mono-served": dict(n_objects=600, n_queries=40, movers=3, grid=12,
                        check_stride=3, check_queries=6),
    "bi-churn": dict(n_objects=1_500, n_queries=8, grid=12, rows=8,
                     cols=8, check_stride=3, check_queries=4),
    "net-roads": dict(n_objects=30, n_queries=2, grid=8, rows=6, cols=6,
                      check_stride=3, check_queries=2),
}


def resolve(name: str, smoke: bool = False) -> Workload:
    """The named workload, shrunk to its smoke size when asked."""
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    wl = WORKLOADS[name]
    if not smoke:
        return wl
    return Workload(wl.name, wl.why, wl.kind, wl.served,
                    dict(wl.params, **SMOKE[name]))


class TickInput(NamedTuple):
    """Everything the client hands the system for one tick.

    Stored as arrays, which hold no references for the garbage collector
    to walk, so a long script adds nothing to the program's collection
    pauses; ``events()`` builds the engine's event lists afresh, as a
    generator's ``step_events`` would, right before the tick is handed
    over.
    """

    move_ids: np.ndarray
    move_xy: np.ndarray
    insert_ids: np.ndarray
    insert_xy: np.ndarray
    insert_cats: np.ndarray
    removes: np.ndarray
    unsubscribe: Optional[str] = None
    subscribe: Optional[QuerySpec] = None

    @classmethod
    def pack(cls, moves, inserts=(), removes=(), unsubscribe=None, subscribe=None):
        return cls(
            np.array([oid for oid, _pos in moves], dtype=np.int64),
            np.array([pos for _oid, pos in moves], dtype=float).reshape(-1, 2),
            np.array([oid for oid, _pos, _cat in inserts], dtype=np.int64),
            np.array([pos for _oid, pos, _cat in inserts], dtype=float).reshape(-1, 2),
            np.array([cat for _oid, _pos, cat in inserts], dtype=str),
            np.array(removes, dtype=np.int64),
            unsubscribe,
            subscribe,
        )

    def events(self) -> TickEvents:
        return TickEvents(
            moves=[
                (oid, Point(x, y))
                for oid, (x, y) in zip(self.move_ids.tolist(), self.move_xy.tolist())
            ],
            inserts=[
                (oid, Point(x, y), cat)
                for oid, (x, y), cat in zip(
                    self.insert_ids.tolist(),
                    self.insert_xy.tolist(),
                    self.insert_cats.tolist(),
                )
            ],
            removes=self.removes.tolist(),
        )


class Check(NamedTuple):
    """Oracle inputs for the sampled queries of one tick: every live
    object's id, position row and category (arrays), and the sampled
    specs."""

    ids: np.ndarray
    xy: np.ndarray
    cats: np.ndarray
    specs: List[QuerySpec]


class Script:
    """The seeded input stream of one workload.

    Ticks are generated on demand (``tick(i)``) but always in order from
    one random stream, so the inputs depend on the seed alone, never on
    how many ticks a run reaches.  Tick 0 is the initial state.
    """

    #: Road network of the script (``None`` off-road); picklable, shipped
    #: to shard workers for network-metric queries.
    network: Optional[RoadNetwork] = None

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.p = wl.params
        self.seed = seed
        self._rng = random.Random(seed)
        self._check_rng = random.Random(f"check-{seed}")
        self._stride = int(self.p["check_stride"])
        self._offset = self._check_rng.randrange(self._stride)
        #: oid -> (x, y) of every live object at the latest generated tick.
        self.positions: Dict[Hashable, Tuple[float, float]] = {}
        self.categories: Dict[Hashable, Hashable] = {}
        #: name -> spec of every live query at the latest generated tick.
        self.live: Dict[str, QuerySpec] = {}
        self.initial: List[Tuple[Hashable, Point, Hashable]] = []
        self.specs: List[QuerySpec] = []
        self._ticks: List[TickInput] = []
        self.checks: Dict[int, Check] = {}
        self._build()
        self.live = {spec.name: spec for spec in self.specs}
        self._snapshot(0)

    # -- subclass hooks ----------------------------------------------------

    def _build(self) -> None:
        raise NotImplementedError

    def _next(self) -> TickInput:
        raise NotImplementedError

    # -- public ------------------------------------------------------------

    def tick(self, index: int) -> TickInput:
        """Input of tick ``index`` (1-based), generating up to it."""
        while len(self._ticks) < index:
            inp = self._next()
            self._ticks.append(inp)
            self._snapshot(len(self._ticks))
        return self._ticks[index - 1]

    @property
    def wire_initial(self) -> List[Tuple[Hashable, float, float, Hashable]]:
        return [(oid, p.x, p.y, cat) for oid, p, cat in self.initial]

    # -- internals ---------------------------------------------------------

    def _snapshot(self, index: int) -> None:
        # Ticks 0-2 are always checked (initial answers and the first
        # incremental steps), later ones every ``check_stride`` ticks.
        if index % self._stride != self._offset and index > 2:
            return
        names = sorted(self.live)
        picked = self._check_rng.sample(
            names, min(len(names), int(self.p["check_queries"]))
        )
        ids = list(self.positions)
        self.checks[index] = Check(
            ids=np.array(ids, dtype=np.int64),
            xy=np.array([self.positions[oid] for oid in ids], dtype=float),
            cats=np.array([self.categories.get(oid, "") for oid in ids], dtype=str),
            specs=[self.live[name] for name in picked],
        )


class UniformScript(Script):
    """Uniform objects, fixed-point mono queries, Gaussian-step movers."""

    def _build(self) -> None:
        p, rng = self.p, self._rng
        for oid in range(int(p["n_objects"])):
            x, y = rng.random(), rng.random()
            self.positions[oid] = (x, y)
            self.initial.append((oid, Point(x, y), 0))
        self.specs = [
            QuerySpec(name=f"q{i}", point=(rng.random(), rng.random()), k=int(p["k"]))
            for i in range(int(p["n_queries"]))
        ]
        self._ids = list(self.positions)

    def _next(self) -> TickInput:
        rng, sigma = self._rng, self.p["sigma"]
        moves = []
        for oid in rng.sample(self._ids, int(self.p["movers"])):
            ox, oy = self.positions[oid]
            x = min(1.0, max(0.0, ox + rng.gauss(0.0, sigma)))
            y = min(1.0, max(0.0, oy + rng.gauss(0.0, sigma)))
            self.positions[oid] = (x, y)
            moves.append((oid, (x, y)))
        return TickInput.pack(moves)


class _RoadScript(Script):
    """Objects advancing on a jittered street grid (Brinkhoff-style)."""

    def _make_network(self) -> None:
        p = self.p
        self.network = RoadNetwork.grid_city(
            rows=int(p["rows"]), cols=int(p["cols"]), seed=0
        )


class RoadBiScript(_RoadScript):
    """Bichromatic queries over road movers with B-object churn.

    The generator moves a pool of agents larger than the live population:
    each tick some live B objects are removed (their agents park in the
    reserve, still moving) and as many reserve agents are inserted under
    fresh ids, so inserts land at road positions decorrelated from the
    removals.  A objects never churn; half the queries ride on them.
    """

    def _build(self) -> None:
        p = self.p
        self._make_network()
        n = int(p["n_objects"])
        n_a = int(round(p["frac_a"] * n))
        self._churn = max(1, int(round(p["churn"] * (n - n_a))))
        reserve = 20 * self._churn
        self._gen = NetworkMovingObjectGenerator(
            self.network,
            n + reserve,
            seed=self.seed,
            move_fraction=p["move_fraction"],
        )
        start = {oid: pos for oid, pos, _cat in self._gen.initial()}
        #: agent -> current object id (live agents only).
        self._oid_of: Dict[int, int] = {}
        self._live_b: List[int] = []
        for agent in range(n):
            cat = "A" if agent < n_a else "B"
            pos = start[agent]
            self._oid_of[agent] = agent
            self.positions[agent] = (pos.x, pos.y)
            self.categories[agent] = cat
            self.initial.append((agent, pos, cat))
            if cat == "B":
                self._live_b.append(agent)
        self._reserve = deque(range(n, n + reserve))
        self._next_oid = n + reserve
        # Queries cluster around the centre: half at fixed points, half
        # riding on the A objects closest to it (A objects never churn).
        self._central_a = sorted(
            range(n_a),
            key=lambda a: (start[a].x - 0.5) ** 2 + (start[a].y - 0.5) ** 2,
        )[: 4 * int(p["n_queries"])]
        self._serial = 0
        for i in range(int(p["n_queries"])):
            spec = self._new_spec(i % 2 == 0)
            self.specs.append(spec)
            self.live[spec.name] = spec

    def _new_spec(self, fixed: bool) -> QuerySpec:
        rng, spread = self._rng, self.p["spread"]
        name = f"q{self._serial}"
        self._serial += 1
        common = dict(name=name, mode="bi", k=int(self.p["k"]), cat_a="A", cat_b="B")
        if fixed:
            x = min(0.98, max(0.02, rng.gauss(0.5, spread)))
            y = min(0.98, max(0.02, rng.gauss(0.5, spread)))
            return QuerySpec(point=(x, y), **common)
        riding = {s.query_id for s in self.live.values()}
        choices = [a for a in self._central_a if a not in riding]
        return QuerySpec(query_id=rng.choice(choices), **common)

    def _next(self) -> TickInput:
        rng = self._rng
        updates = self._gen.step()
        removes, inserts = [], []
        gone = set()
        for _ in range(self._churn):
            i = rng.randrange(len(self._live_b))
            agent = self._live_b[i]
            self._live_b[i] = self._live_b[-1]
            self._live_b.pop()
            oid = self._oid_of.pop(agent)
            del self.positions[oid]
            del self.categories[oid]
            removes.append(oid)
            gone.add(agent)
            self._reserve.append(agent)
        fresh = set()
        for _ in range(self._churn):
            agent = self._reserve.popleft()
            oid = self._next_oid
            self._next_oid += 1
            pos = self._gen.position(agent)
            self._oid_of[agent] = oid
            self._live_b.append(agent)
            self.positions[oid] = (pos.x, pos.y)
            self.categories[oid] = "B"
            inserts.append((oid, pos, "B"))
            fresh.add(agent)
        moves = []
        for agent, pos in updates:
            if agent in gone or agent in fresh:
                continue
            oid = self._oid_of.get(agent)
            if oid is None:
                continue  # parked in the reserve
            self.positions[oid] = (pos.x, pos.y)
            moves.append((oid, pos))
        # Query churn: the oldest subscription leaves, one of the same
        # flavour joins.
        oldest = next(iter(self.live))
        leaving = self.live.pop(oldest)
        joining = self._new_spec(leaving.point is not None)
        self.live[joining.name] = joining
        return TickInput.pack(moves, inserts, removes, oldest, joining)


#: Where ``net-roads`` monitors, snapped onto the road network.
_NET_QUERY_POINTS = [(0.3, 0.3), (0.7, 0.7), (0.7, 0.3), (0.3, 0.7),
                     (0.5, 0.5), (0.5, 0.2), (0.2, 0.5), (0.8, 0.5)]


class RoadNetScript(_RoadScript):
    """Road movers with network-distance mono queries at road points."""

    def _build(self) -> None:
        p = self.p
        self._make_network()
        self._gen = NetworkMovingObjectGenerator(
            self.network,
            int(p["n_objects"]),
            seed=self.seed,
            move_fraction=p["move_fraction"],
        )
        for oid, pos, _cat in self._gen.initial():
            self.positions[oid] = (pos.x, pos.y)
            self.initial.append((oid, pos, 0))
        # The monitoring points are part of the workload, like the road
        # network: the seed moves the objects, not the queries, so a run's
        # cost does not hinge on where a handful of random queries fell.
        net = self.network
        for i, point in enumerate(_NET_QUERY_POINTS[: int(p["n_queries"])]):
            u, v, offset, _spur = net.locate(point)
            q = net.point_on_edge(u, v, offset)
            self.specs.append(
                QuerySpec(name=f"q{i}", point=(q.x, q.y), k=int(p["k"]), metric="network")
            )

    def _next(self) -> TickInput:
        moves = self._gen.step()
        for oid, pos in moves:
            self.positions[oid] = (pos.x, pos.y)
        return TickInput.pack(moves)


_SCRIPTS = {"uniform": UniformScript, "roads-bi": RoadBiScript, "roads-net": RoadNetScript}


def make_script(wl: Workload, seed: int) -> Script:
    return _SCRIPTS[wl.kind](wl, seed)
