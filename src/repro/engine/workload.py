"""Standard experiment workloads.

Centralizes the paper's experimental configuration: a network-based
generator over a synthetic road map, a grid index (64 x 64 by default, the
compromise the grid-size experiment of Figure 5 settles on), and query
objects drawn from the moving population itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.engine.simulation import Simulator
from repro.grid.index import Category, ObjectId
from repro.motion.generator import NetworkMovingObjectGenerator
from repro.motion.roadnet import RoadNetwork
from repro.motion.clusters import GaussianClusterGenerator
from repro.motion.uniform import RandomWalkGenerator, UniformJumpGenerator

_NETWORK_KINDS = ("grid_city", "delaunay", "radial", "walk", "jump", "clusters")


@dataclass
class WorkloadSpec:
    """A reproducible experiment workload.

    ``bichromatic`` assigns every object category ``"A"`` or ``"B"`` with
    the given A fraction; otherwise all objects share category ``0``.
    """

    n_objects: int = 10_000
    grid_size: int = 64
    seed: int = 7
    network: str = "grid_city"
    network_nodes: int = 256
    speed_range: Tuple[float, float] = (0.002, 0.01)
    move_fraction: float = 1.0
    bichromatic: bool = False
    a_fraction: float = 0.5
    dt: float = 1.0

    def categories(self) -> Optional[Dict[Hashable, float]]:
        if not self.bichromatic:
            return None
        return {"A": self.a_fraction, "B": 1.0 - self.a_fraction}


def build_network(spec: WorkloadSpec) -> RoadNetwork:
    """The road network described by a spec.

    Factored out of :func:`build_generator` so network-metric consumers
    (the ``--metric network`` demo, the lockstep suites) can evaluate
    queries over the very network the spec's generator moves objects on.
    Only defined for the road-based kinds.
    """
    if spec.network == "grid_city":
        side = max(2, int(round(math.sqrt(spec.network_nodes))))
        return RoadNetwork.grid_city(rows=side, cols=side, seed=spec.seed)
    if spec.network == "radial":
        spokes = max(3, int(round(math.sqrt(spec.network_nodes))))
        rings = max(1, spec.network_nodes // spokes)
        return RoadNetwork.radial_city(rings=rings, spokes=spokes, seed=spec.seed)
    if spec.network == "delaunay":
        return RoadNetwork.delaunay(n_nodes=spec.network_nodes, seed=spec.seed)
    raise ValueError(
        f"workload kind {spec.network!r} has no road network; "
        "expected one of ('grid_city', 'radial', 'delaunay')"
    )


def build_generator(spec: WorkloadSpec):
    """The motion generator described by a spec."""
    if spec.network not in _NETWORK_KINDS:
        raise ValueError(
            f"unknown network kind {spec.network!r}; expected one of {_NETWORK_KINDS}"
        )
    categories = spec.categories()
    if spec.network == "walk":
        return RandomWalkGenerator(
            spec.n_objects,
            seed=spec.seed,
            step_sigma=(spec.speed_range[0] + spec.speed_range[1]) / 2.0,
            categories=categories,
        )
    if spec.network == "jump":
        return UniformJumpGenerator(
            spec.n_objects, seed=spec.seed, categories=categories
        )
    if spec.network == "clusters":
        return GaussianClusterGenerator(
            spec.n_objects, seed=spec.seed, categories=categories
        )
    return NetworkMovingObjectGenerator(
        build_network(spec),
        spec.n_objects,
        seed=spec.seed,
        speed_range=spec.speed_range,
        categories=categories,
        move_fraction=spec.move_fraction,
    )


#: Process-wide default for the shared-execution batch layer.  Experiments
#: construct their simulators internally (without a ``batch`` argument),
#: so the CLI's ``--batch/--no-batch`` flag threads through this module
#: default; :func:`build_simulator` resolves ``batch=None`` against it.
DEFAULT_BATCH = True


def set_default_batch(enabled: bool) -> None:
    """Set the process-wide batching default (see :data:`DEFAULT_BATCH`)."""
    global DEFAULT_BATCH
    DEFAULT_BATCH = bool(enabled)


def build_simulator(
    spec: WorkloadSpec, scheduler: bool = True, batch: Optional[bool] = None
) -> Simulator:
    """A simulator loaded with the spec's objects (no queries yet).

    ``scheduler=False`` builds the oracle configuration: every query is
    evaluated every tick, with per-update grid maintenance.  ``batch``
    defaults to the module-wide :data:`DEFAULT_BATCH` (set by the CLI's
    ``--batch/--no-batch``).
    """
    if batch is None:
        batch = DEFAULT_BATCH
    return Simulator(
        build_generator(spec),
        grid_size=spec.grid_size,
        dt=spec.dt,
        scheduler=scheduler,
        batch=batch,
    )


def central_object(
    sim: Simulator, category: Optional[Category] = None
) -> ObjectId:
    """The object closest to the center of the data space.

    Experiments issue their query from a central object to avoid boundary
    effects dominating small configurations; with the paper-scale object
    counts the choice is immaterial.
    """
    extent = sim.grid.extent
    center = extent.center
    best_id = None
    best_d = math.inf
    for oid in sim.grid.objects(category):
        pos = sim.grid.position(oid)
        d = pos.distance_to(center)
        if d < best_d:
            best_d = d
            best_id = oid
    if best_id is None:
        raise ValueError(f"no object of category {category!r} in the simulator")
    return best_id
