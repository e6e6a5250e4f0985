"""IGERN — the paper's core contribution.

IGERN (Incremental and General Evaluation of continuous Reverse Nearest
neighbor queries) monitors a *single* bounded region around the query plus
a small candidate set, instead of the six pie regions and six candidates of
the prior state of the art:

- :class:`repro.core.mono.MonoIGERN` — Algorithms 1 and 2 (monochromatic
  initial and incremental steps), generalized to RkNN via a coverage
  threshold ``k``;
- :class:`repro.core.bi.BiIGERN` — Algorithms 3 and 4 (bichromatic), the
  first continuous bichromatic RNN algorithm;
- :mod:`repro.core.candidates` — the candidate-set pruning rules;
- :mod:`repro.core.state` — monitored state carried between incremental
  executions and per-step reports.
"""

from repro.core.mono import MonoIGERN
from repro.core.bi import BiIGERN
from repro.core.state import BiState, MonoState, StepReport

__all__ = [
    "MonoIGERN",
    "BiIGERN",
    "MonoState",
    "BiState",
    "StepReport",
]
