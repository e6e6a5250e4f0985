"""Grid-size calibration for a given workload.

Figure 5 of the paper shows the grid-resolution trade-off (per-cell
object counts vs maintenance overhead) and picks a compromise by hand.
:func:`suggest_grid_size` automates that choice for a workload: it runs
the Figure 5 sweep on a subsample and returns the resolution minimizing
the combined per-tick cost (query CPU time plus an amortized charge per
cell change), which is how a deployment would size its grid.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.queries import IGERNMonoQuery, QueryPosition

#: Default resolutions probed by the calibration sweep.
DEFAULT_CANDIDATES: Tuple[int, ...] = (16, 32, 64, 128, 256)

#: Default amortized cost charged per grid cell change, in seconds.  The
#: engine applies updates in ~1 microsecond; the extra cell-change work
#: (two set mutations, possible bucket churn) is a fraction of that.
DEFAULT_CELL_CHANGE_COST = 2e-7


def suggest_grid_size(
    spec: WorkloadSpec,
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
    n_ticks: int = 10,
    cell_change_cost: float = DEFAULT_CELL_CHANGE_COST,
) -> Tuple[int, dict]:
    """The grid resolution minimizing combined per-tick cost.

    Returns ``(best_size, details)`` where ``details`` maps each probed
    size to its ``(query_cost, maintenance_cost)`` per tick.  The probe
    runs one monochromatic IGERN query per candidate resolution over the
    spec's workload (same seed → same update stream for every size).
    """
    if not candidates:
        raise ValueError("need at least one candidate grid size")
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be positive, got {n_ticks}")

    details = {}
    best_size = None
    best_cost = float("inf")
    for size in candidates:
        probe_spec = WorkloadSpec(**{**spec.__dict__, "grid_size": size})
        sim = build_simulator(probe_spec)
        qid = central_object(sim)
        sim.add_query(
            "probe", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
        )
        result = sim.run(n_ticks)
        query_cost = result["probe"].avg_time
        maintenance = cell_change_cost * result.cell_changes / max(1, n_ticks)
        details[size] = {
            "query_cost": query_cost,
            "maintenance_cost": maintenance,
            "total": query_cost + maintenance,
        }
        if query_cost + maintenance < best_cost:
            best_cost = query_cost + maintenance
            best_size = size
    return best_size, details
