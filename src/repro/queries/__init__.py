"""Continuous-query executors: IGERN plus every baseline in the paper.

All executors implement the small :class:`repro.queries.base.ContinuousQuery`
interface so the simulation engine can drive them interchangeably:

- :class:`repro.queries.igern_mono.IGERNMonoQuery` — the paper's
  monochromatic algorithm (Algorithms 1-2);
- :class:`repro.queries.igern_bi.IGERNBiQuery` — the bichromatic algorithm
  (Algorithms 3-4); both are :class:`repro.queries.igern.IGERNQuery`
  adapters and differ only in the core they build and the lease they
  derive;
- :class:`repro.queries.crnn.CRNNQuery` — the six-pie continuous monitor
  (Xia & Zhang, ICDE 2006), the monochromatic state of the art the paper
  compares against;
- :class:`repro.queries.tpl.TPLQuery` — repeated snapshot evaluation in the
  style of TPL (Tao et al., VLDB 2004): full filter-refine from scratch
  every tick;
- :class:`repro.queries.sixpie.SixPieSnapshotQuery` — repeated snapshot
  evaluation of the classic six-pie algorithm (Stanoi et al., 2000);
- :class:`repro.queries.voronoi_repeat.VoronoiRepeatQuery` — the
  bichromatic baseline: rebuild the query's Voronoi cell every tick;
- :class:`repro.queries.brute.BruteForceMonoQuery` /
  :class:`repro.queries.brute.BruteForceBiQuery` — quadratic oracles used
  by the correctness tests;
- :class:`repro.queries.network_brute.NetworkBruteMonoQuery` /
  :class:`repro.queries.network_brute.NetworkBruteBiQuery` — quadratic
  oracles under road-network distance (the ``--metric network`` mode's
  differential reference).
"""

from repro.queries.base import ContinuousQuery, QueryFootprint, QueryPosition
from repro.queries.igern_mono import IGERNMonoQuery
from repro.queries.igern_bi import IGERNBiQuery
from repro.queries.crnn import CRNNQuery
from repro.queries.tpl import TPLQuery
from repro.queries.sixpie import SixPieSnapshotQuery
from repro.queries.voronoi_repeat import VoronoiRepeatQuery
from repro.queries.brute import (
    BruteForceBiQuery,
    BruteForceMonoQuery,
    brute_bi_rnn,
    brute_mono_rnn,
)
from repro.queries.network_brute import (
    NetworkBruteBiQuery,
    NetworkBruteMonoQuery,
    network_brute_bi_rnn,
    network_brute_mono_rnn,
)

__all__ = [
    "ContinuousQuery",
    "QueryFootprint",
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
    "NetworkBruteMonoQuery",
    "NetworkBruteBiQuery",
    "network_brute_mono_rnn",
    "network_brute_bi_rnn",
]
