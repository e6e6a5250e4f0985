"""Brinkhoff-style network-based generator of moving objects.

Objects live on a :class:`repro.motion.roadnet.RoadNetwork` and advance
along its edges at a per-object speed every tick.  Two routing policies are
supported:

- ``"random_walk"`` (default): on reaching a node the object continues on a
  random incident edge, avoiding an immediate U-turn where possible.  This
  is cheap and preserves the statistics the experiments depend on (small,
  spatially correlated displacements; a small fraction of grid cell
  crossings per tick).
- ``"shortest_path"``: the classic Brinkhoff behavior — the object follows
  the length-weighted shortest path to a random destination node and picks
  a new destination on arrival.  Costs a Dijkstra per trip, so it suits
  smaller configurations.

Speeds are expressed in data-space units per tick (the unit square spans
1.0), matching the paper's discrete time model where the incremental step
fires every ``T`` time units.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.motion.objects import NetworkAgent
from repro.motion.roadnet import RoadNetwork

Update = Tuple[Hashable, Point]

_POLICIES = ("random_walk", "shortest_path")


class NetworkMovingObjectGenerator:
    """Generates and advances objects moving on a road network.

    Parameters
    ----------
    network:
        The road network to move on.
    n_objects:
        Number of objects to create.
    seed:
        Seed for all randomness (placement, speeds, routing).
    speed_range:
        Uniform range of per-object speeds, in space units per tick.
    policy:
        ``"random_walk"`` or ``"shortest_path"`` (see module docstring).
    categories:
        Mapping of category label to relative weight; each object is
        assigned a category by weighted choice.  Defaults to all-``0``
        (monochromatic).
    move_fraction:
        Fraction of objects that move in a given tick (1.0 = everybody,
        the paper's setting).  Lower values model sparser update streams.
    """

    def __init__(
        self,
        network: RoadNetwork,
        n_objects: int,
        seed: int = 0,
        speed_range: Tuple[float, float] = (0.002, 0.01),
        policy: str = "random_walk",
        categories: Optional[Dict[Hashable, float]] = None,
        move_fraction: float = 1.0,
    ):
        if n_objects < 1:
            raise ValueError(f"n_objects must be positive, got {n_objects}")
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
        if not 0.0 < move_fraction <= 1.0:
            raise ValueError(f"move_fraction must be in (0, 1], got {move_fraction}")
        lo, hi = speed_range
        if lo <= 0.0 or hi < lo:
            raise ValueError(f"invalid speed range {speed_range}")
        self.network = network
        self.policy = policy
        self.move_fraction = move_fraction
        self._rng = random.Random(seed)
        self._agents: Dict[Hashable, NetworkAgent] = {}
        weights = categories if categories else {0: 1.0}
        labels = list(weights)
        probs = [weights[label] for label in labels]
        for i in range(n_objects):
            category = self._rng.choices(labels, weights=probs)[0]
            speed = self._rng.uniform(lo, hi)
            self._agents[i] = self._spawn_agent(i, category, speed)

    # ------------------------------------------------------------------
    # Protocol used by the engine
    # ------------------------------------------------------------------

    def initial(self) -> List[Tuple[Hashable, Point, Hashable]]:
        """``(oid, position, category)`` for every object at time 0."""
        out = []
        for oid, agent in self._agents.items():
            pos = self.network.point_on_edge(agent.u, agent.v, agent.offset)
            out.append((oid, pos, agent.category))
        return out

    def step(self, dt: float = 1.0) -> List[Update]:
        """Advance one tick; returns ``(oid, new_position)`` updates."""
        updates: List[Update] = []
        rng = self._rng
        for oid, agent in self._agents.items():
            if self.move_fraction < 1.0 and rng.random() > self.move_fraction:
                continue
            self._advance(agent, agent.speed * dt)
            updates.append(
                (oid, self.network.point_on_edge(agent.u, agent.v, agent.offset))
            )
        return updates

    def position(self, oid: Hashable) -> Point:
        """Current position of one object."""
        agent = self._agents[oid]
        return self.network.point_on_edge(agent.u, agent.v, agent.offset)

    def category(self, oid: Hashable) -> Hashable:
        return self._agents[oid].category

    def object_ids(self) -> Sequence[Hashable]:
        return list(self._agents)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _spawn_agent(
        self, oid: Hashable, category: Hashable, speed: float
    ) -> NetworkAgent:
        rng = self._rng
        net = self.network
        u = net.random_node(rng)
        v, length = rng.choice(net.neighbors(u))
        offset = rng.uniform(0.0, length)
        agent = NetworkAgent(
            oid=oid, category=category, speed=speed, u=u, v=v, offset=offset
        )
        if self.policy == "shortest_path":
            agent.route = self._new_route(v)
        return agent

    def _new_route(self, start: int) -> List[int]:
        """Shortest path to a fresh random destination, start excluded."""
        net = self.network
        rng = self._rng
        dest = net.random_node(rng)
        attempts = 0
        while dest == start and attempts < 8:
            dest = net.random_node(rng)
            attempts += 1
        if dest == start:
            return []
        return net.shortest_path(start, dest)[1:]

    def _advance(self, agent: NetworkAgent, distance: float) -> None:
        """Move an agent ``distance`` units along its current itinerary."""
        net = self.network
        remaining = distance
        # Bound edge hops per tick to keep a tick O(1) even for extreme
        # speed/edge-length ratios.
        for _ in range(64):
            edge_len = net.edge_length(agent.u, agent.v)
            if agent.offset + remaining < edge_len:
                agent.offset += remaining
                return
            remaining -= edge_len - agent.offset
            self._arrive_at_node(agent)
            if remaining <= 0.0:
                return
        agent.offset = min(agent.offset, net.edge_length(agent.u, agent.v))

    def _arrive_at_node(self, agent: NetworkAgent) -> None:
        """Handle arrival at ``agent.v``: choose the next edge."""
        arrived = agent.v
        agent.prev_node = agent.u
        if self.policy == "shortest_path":
            if not agent.route or agent.route[0] != arrived:
                # Route exhausted or desynchronized: start a new trip.
                agent.route = self._new_route(arrived)
            else:
                agent.route.pop(0)
            if not agent.route:
                agent.route = self._new_route(arrived)
            if agent.route:
                nxt = agent.route[0]
                agent.route.pop(0)
            else:
                nxt = self._random_next(arrived, agent.prev_node)
        else:
            nxt = self._random_next(arrived, agent.prev_node)
        agent.u = arrived
        agent.v = nxt
        agent.offset = 0.0

    def _random_next(self, node: int, prev: int) -> int:
        """Random incident edge, avoiding a U-turn when possible."""
        neighbors = self.network.neighbors(node)
        choices = [nbr for nbr, _ in neighbors if nbr != prev]
        if not choices:
            choices = [nbr for nbr, _ in neighbors]
        return self._rng.choice(choices)
