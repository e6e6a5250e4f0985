"""Machine-independent performance regression guards.

Wall-clock assertions are flaky; operation counts are not.  These tests
pin the *structural* cost properties the paper's Section 6 analysis
promises, using the shared NN subsystem's counters:

- CRNN performs exactly ``n_pies`` pie searches per tick; IGERN performs
  one bounded scan (plus absorption churn bounded by what actually
  entered the region);
- IGERN's monochromatic verification performs one unconstrained probe per
  monitored candidate; CRNN one per pie candidate;
- the incremental step's operation count does not grow with the time
  horizon (stability, Figures 7/9).
"""

import pytest

from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.queries import CRNNQuery, IGERNMonoQuery, QueryPosition, TPLQuery


@pytest.fixture(scope="module")
def runs():
    spec = WorkloadSpec(n_objects=2000, grid_size=32, seed=71)
    sim = build_simulator(spec)
    qid = central_object(sim)
    queries = {
        "igern": IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid)),
        "crnn": CRNNQuery(sim.grid, QueryPosition(sim.grid, query_id=qid)),
        "tpl": TPLQuery(sim.grid, QueryPosition(sim.grid, query_id=qid)),
    }
    for name, query in queries.items():
        sim.add_query(name, query)
    result = sim.run(20)
    return result, queries


class TestStructuralCosts:
    def test_crnn_runs_six_searches_per_tick(self, runs):
        result, queries = runs
        log = result["crnn"]
        pie_searches = log.total_ops("calls_NN_c") + log.total_ops("calls_NN_b")
        assert pie_searches == 6 * len(log.ticks)

    def test_igern_examines_less_than_crnn(self, runs):
        """The decisive metric is work done (cells visited and objects
        examined), not the number of search calls: at high densities
        IGERN's candidate set can exceed CRNN's fixed six, but each of
        its searches touches a far smaller area."""
        result, _ = runs

        def work(name):
            log = result[name]
            return sum(
                log.total_ops(key)
                for key in (
                    "cells_NN",
                    "cells_NN_c",
                    "cells_NN_b",
                    "objects_NN",
                    "objects_NN_c",
                    "objects_NN_b",
                )
            )

        assert work("igern") < work("crnn")

    def test_igern_fewer_cells_than_tpl(self, runs):
        """The incremental step touches fewer cells than re-running the
        snapshot filter-refine every tick."""
        result, _ = runs

        def cells(name):
            log = result[name]
            return (
                log.total_ops("cells_NN_c")
                + log.total_ops("cells_NN_b")
                + log.total_ops("cells_NN")
            )

        assert cells("igern") < cells("tpl")

    def test_igern_one_bounded_scan_per_tick(self, runs):
        """Per incremental tick: at least one bounded operation, and on
        average only a handful (the region scan plus absorption churn)."""
        result, _ = runs
        log = result["igern"]
        incr = log.ticks[1:]
        bounded = sum(t.ops.get("calls_NN_b", 0) for t in incr)
        assert bounded >= len(incr) * 0.5
        assert bounded <= len(incr) * 6

    def test_verification_probes_bounded_by_monitored(self, runs):
        result, _ = runs
        log = result["igern"]
        for t in log.ticks:
            assert t.ops.get("calls_NN", 0) <= max(t.monitored, 1) + 1

    def test_incremental_ops_stable_over_time(self, runs):
        """No deterioration: the last quarter of ticks does not cost more
        than 4x the first quarter in examined objects."""
        result, _ = runs
        log = result["igern"]
        incr = log.ticks[1:]
        quarter = max(1, len(incr) // 4)

        def objects(ticks):
            return sum(
                t.ops.get("objects_NN", 0)
                + t.ops.get("objects_NN_b", 0)
                + t.ops.get("objects_NN_c", 0)
                for t in ticks
            ) / len(ticks)

        early = objects(incr[:quarter])
        late = objects(incr[-quarter:])
        assert late <= 4.0 * max(early, 1.0)
