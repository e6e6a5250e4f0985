"""Continuous query processing engine.

Ties the substrates together: a :class:`repro.engine.simulation.Simulator`
loads a motion generator's objects into a grid index, then advances time in
discrete ticks — apply the tick's position updates, run every registered
continuous query's incremental step, and record per-tick metrics (wall
time, operation counts, monitored objects, answer) that the experiment
harness turns into the paper's figures.
"""

from repro.engine.batch import BatchExecutor
from repro.engine.manager import AnswerChange, ContinuousQueryManager
from repro.engine.metrics import QueryLog, SimulationResult, TickMetrics, TickOutcome
from repro.engine.scheduler import TickScheduler
from repro.engine.simulation import Simulator
from repro.engine.workload import WorkloadSpec, build_simulator, set_default_batch

__all__ = [
    "TickMetrics",
    "TickOutcome",
    "QueryLog",
    "SimulationResult",
    "Simulator",
    "TickScheduler",
    "BatchExecutor",
    "WorkloadSpec",
    "build_simulator",
    "set_default_batch",
    "AnswerChange",
    "ContinuousQueryManager",
]
