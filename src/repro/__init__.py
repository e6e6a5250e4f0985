"""IGERN: continuous evaluation of monochromatic and bichromatic reverse
nearest neighbor queries.

A full reproduction of Kang, Mokbel, Shekhar, Xia and Zhang, *Continuous
Evaluation of Monochromatic and Bichromatic Reverse Nearest Neighbors*
(ICDE 2007): the IGERN algorithms, the grid/search/motion substrates they
run on, the CRNN / TPL / Voronoi baselines they are compared against, and
a simulation engine plus experiment harness that regenerates every figure
of the paper's evaluation.

Quickstart::

    from repro import (
        WorkloadSpec, build_simulator, central_object,
        IGERNMonoQuery, QueryPosition,
    )

    sim = build_simulator(WorkloadSpec(n_objects=2000))
    qid = central_object(sim)
    sim.add_query("igern", IGERNMonoQuery(
        sim.grid, QueryPosition(sim.grid, query_id=qid)))
    result = sim.run(n_ticks=20)
    print(result["igern"].ticks[-1].answer)
"""

import logging as _logging

# Library logging convention: emit under the "repro" namespace, ship a
# NullHandler so applications that never configure logging stay silent.
# Debug-level records cover query registration/pause/resume and
# answer-change publication (see repro.engine).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro import obs
from repro.core import BiIGERN, MonoIGERN
from repro.engine import (
    AnswerChange,
    ContinuousQueryManager,
    QueryLog,
    SimulationResult,
    Simulator,
    TickMetrics,
    WorkloadSpec,
    build_simulator,
)
from repro.engine.workload import build_generator, central_object
from repro.geometry import Point, Rect
from repro.grid import AliveCellGrid, GridIndex, GridSearch
from repro.motion import (
    NetworkMovingObjectGenerator,
    RandomWalkGenerator,
    RoadNetwork,
    Trace,
    UniformJumpGenerator,
)
from repro.snapshot import bi_rnn, influence_set, mono_rnn
from repro.queries import (
    BruteForceBiQuery,
    BruteForceMonoQuery,
    CRNNQuery,
    ContinuousQuery,
    IGERNBiQuery,
    IGERNMonoQuery,
    QueryPosition,
    SixPieSnapshotQuery,
    TPLQuery,
    VoronoiRepeatQuery,
    brute_bi_rnn,
    brute_mono_rnn,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # observability
    "obs",
    # core algorithms
    "MonoIGERN",
    "BiIGERN",
    # geometry / index substrates
    "Point",
    "Rect",
    "GridIndex",
    "GridSearch",
    "AliveCellGrid",
    # motion substrates
    "RoadNetwork",
    "NetworkMovingObjectGenerator",
    "RandomWalkGenerator",
    "UniformJumpGenerator",
    "Trace",
    # query executors
    "ContinuousQuery",
    "QueryPosition",
    "IGERNMonoQuery",
    "IGERNBiQuery",
    "CRNNQuery",
    "TPLQuery",
    "SixPieSnapshotQuery",
    "VoronoiRepeatQuery",
    "BruteForceMonoQuery",
    "BruteForceBiQuery",
    "brute_mono_rnn",
    "brute_bi_rnn",
    # snapshot API
    "mono_rnn",
    "bi_rnn",
    "influence_set",
    # engine
    "Simulator",
    "SimulationResult",
    "ContinuousQueryManager",
    "AnswerChange",
    "QueryLog",
    "TickMetrics",
    "WorkloadSpec",
    "build_simulator",
    "build_generator",
    "central_object",
]
