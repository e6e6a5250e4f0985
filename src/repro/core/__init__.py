"""IGERN — the paper's core contribution.

IGERN (Incremental and General Evaluation of continuous Reverse Nearest
neighbor queries) monitors a *single* bounded region around the query plus
a small candidate set, instead of the six pie regions and six candidates of
the prior state of the art:

- :class:`repro.core.region.RegionCore` — the region maintenance both
  flavours share (bisector rebuild on movement, absorption into the
  monitored set, cleaning of the monitored set);
- :class:`repro.core.mono.MonoIGERN` — Algorithms 1 and 2 (monochromatic
  initial and incremental steps), generalized to RkNN via a coverage
  threshold ``k``;
- :class:`repro.core.bi.BiIGERN` — Algorithms 3 and 4 (bichromatic), the
  first continuous bichromatic RNN algorithm;
- :mod:`repro.core.candidates` — the monitored-set pruning rules;
- :mod:`repro.core.state` — the monitored state carried between
  incremental executions (``RNNcand`` or ``NN_A`` plus the alive region)
  and per-step reports;
- :class:`repro.core.network.NetworkCore` — filter-and-refine evaluation
  of both flavours under a road-network metric, where bisector pruning
  does not apply; with the query still, it re-probes only what moved
  objects can affect.
"""

from repro.core.bi import BiIGERN
from repro.core.mono import MonoIGERN
from repro.core.network import NetworkCore, NetworkState
from repro.core.region import RegionCore
from repro.core.state import RegionState, StepReport

__all__ = [
    "MonoIGERN",
    "BiIGERN",
    "RegionCore",
    "RegionState",
    "NetworkCore",
    "NetworkState",
    "StepReport",
]
