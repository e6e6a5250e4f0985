"""Mutation smoke tests for the road-network distance mode.

The network counterpart of ``tests/fuzz/test_mutation.py``: plant a bug
in the network distance machinery, assert the differential fuzzer
catches it on the road-graph scenario window, shrink a failure, save
it, replay it deterministically, unplant, replay clean.

Two mutants, chosen deliberately:

- **Stale-entry guard flip.**  The Dijkstra kernel's lazy-deletion
  guard ``dist[u] < d`` flipped to ``<=`` discards *fresh* queue
  entries too — the very first pop (the source at distance 0.0) is
  dropped, no node is ever expanded, and almost every network distance
  collapses to the spur-only same-edge case or infinity.  The flip of
  the *relaxation* comparison, by contrast, is provably value-preserving
  (pinned in ``tests/motion/test_roadnet_metric.py``), so it is the
  guard that the mutation smoke must target.
- **Tie semantics.**  The network witness refinement counts witnesses
  *strictly* closer than the candidate's distance to the query; nudging
  the threshold one ulp upward makes exactly-tied witnesses count —
  the same open-circle mistake the lattice scenarios catch in Euclidean
  mode.  Road-graph scenarios manufacture bit-equal ties routinely:
  node-jump motion on a jitter-free street grid produces equal-hop
  left-fold sums that agree to the last bit.

The scenario window is pinned at ``start=6``: indices 6 and 7 are the
first road-graph scenarios of the seed-0 stream and both evaluate
under the network metric (verified; the stream is deterministic).
"""

import heapq
import math

from repro.fuzz.corpus import artifact_name, replay_artifact, save_artifact
from repro.fuzz.runner import run_fuzz
from repro.fuzz.shrink import shrink
from repro.grid.search import GridSearch, SearchKind
from repro.metric import STATS, NetworkMetric


def stale_guard_leq_compute_distances(self, source):
    """The engine kernel with the lazy-deletion guard flipped to ``<=``."""
    STATS.dijkstra_runs += 1
    neighbors = self.network.neighbors
    inf = math.inf
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] <= d:  # planted: drops fresh entries too
            continue
        STATS.dijkstra_expansions += 1
        for v, w in neighbors(u):
            nd = d + w
            if nd < dist.get(v, inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


_original_network_witness_count = GridSearch.network_witness_count


def leq_network_witness_count(
    self,
    metric,
    center,
    threshold,
    exclude=(),
    category=None,
    stop_at=None,
    kind=SearchKind.UNCONSTRAINED,
    witnesses=None,
):
    """``network_witness_count`` with its strict ``<`` made non-strict.

    One ulp up on the threshold is operationally ``<=``: bit-equal ties
    — which road-graph scenarios produce on purpose — now count as
    witnesses and disqualify legitimate answers.
    """
    return _original_network_witness_count(
        self,
        metric,
        center,
        math.nextafter(threshold, math.inf),
        exclude=exclude,
        category=category,
        stop_at=stop_at,
        kind=kind,
        witnesses=witnesses,
    )


def _assert_caught_shrunk_replayable(tmp_path, monkeypatch, target, name, mutant, note):
    with monkeypatch.context() as m:
        m.setattr(target, name, mutant)

        failures = []
        report = run_fuzz(
            seed=0,
            start=6,
            max_scenarios=2,
            on_result=lambda r: failures.append(r) if not r.ok else None,
        )
        assert not report.ok
        assert report.divergences > 0
        assert failures, "fuzzer reported divergences but surfaced no result"
        # The corruption lives engine-side; the networkx oracle is
        # untouched, so the oracle lockstep layer must fire.
        kinds = {d.kind for r in failures for d in r.divergences}
        assert "oracle" in kinds
        assert all(r.scenario.metric == "network" for r in failures)

        res = failures[0]
        outcome = shrink(res.scenario, res)
        assert not outcome.result.ok
        assert outcome.objects <= len(res.scenario.script["initial"])
        assert outcome.ticks <= res.scenario.n_ticks

        path = save_artifact(
            tmp_path / artifact_name(outcome.result),
            outcome.result,
            note=note,
        )
        replay_one = replay_artifact(path)
        replay_two = replay_artifact(path)
        assert not replay_one.ok
        assert [d.describe() for d in replay_one.divergences] == [
            d.describe() for d in replay_two.divergences
        ]

    # Mutant removed: the same artifact must now pass — the divergence
    # was the mutant's, not the artifact's.
    assert replay_artifact(path).ok


def test_planted_stale_guard_mutant_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    _assert_caught_shrunk_replayable(
        tmp_path,
        monkeypatch,
        NetworkMetric,
        "compute_distances",
        stale_guard_leq_compute_distances,
        note="planted Dijkstra stale-guard <= mutant (mutation smoke test)",
    )


def test_planted_network_tie_mutant_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    _assert_caught_shrunk_replayable(
        tmp_path,
        monkeypatch,
        GridSearch,
        "network_witness_count",
        leq_network_witness_count,
        note="planted non-strict network witness comparison (mutation smoke test)",
    )
