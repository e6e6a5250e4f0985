"""Executor-level introspection: reports, region metrics, areas."""

import pytest

from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.queries import (
    CRNNQuery,
    IGERNBiQuery,
    IGERNMonoQuery,
    QueryPosition,
)


@pytest.fixture()
def mono_setup():
    sim = build_simulator(WorkloadSpec(n_objects=600, grid_size=32, seed=41))
    qid = central_object(sim)
    query = IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
    crnn = CRNNQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
    sim.add_query("igern", query)
    sim.add_query("crnn", crnn)
    return sim, query, crnn


class TestMonoIntrospection:
    def test_before_initial(self, mono_setup):
        _, query, _ = mono_setup
        assert query.monitored_count == 0
        assert query.monitored_region_cells == 0
        assert query.monitored_area() == 1.0

    def test_after_running(self, mono_setup):
        sim, query, crnn = mono_setup
        sim.run(5)
        assert query.monitored_count > 0
        assert query.monitored_region_cells > 0
        assert 0.0 < query.monitored_area() < 1.0
        assert query.last_report is not None
        assert query.last_report.answer == query.answer

    def test_area_comparison_with_crnn(self, mono_setup):
        sim, query, crnn = mono_setup
        sim.run(5)
        assert query.monitored_area() < crnn.monitored_area()

    def test_crnn_area_open_ended_without_candidates(self):
        from repro.grid.index import GridIndex

        grid = GridIndex(8)
        grid.insert("only", (0.5, 0.5))
        crnn = CRNNQuery(grid, QueryPosition(grid, query_id="only"))
        crnn.initial()
        # No candidates in any pie: every region is open-ended.
        assert crnn.monitored_area() == pytest.approx(1.0)


class TestBiIntrospection:
    def test_area_defined_after_run(self):
        sim = build_simulator(
            WorkloadSpec(n_objects=600, grid_size=32, seed=42, bichromatic=True)
        )
        qid = central_object(sim, "A")
        query = IGERNBiQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
        sim.add_query("bi", query)
        assert query.monitored_area() == 1.0
        sim.run(5)
        assert 0.0 < query.monitored_area() < 1.0
        assert query.last_report is not None


class TestRegionCellsFromReport:
    """``monitored_region_cells`` reads the count the step's report made
    instead of enumerating the region again; it must still equal a fresh
    ``alive_count()`` after initial, incremental and skipped ticks."""

    def test_equals_alive_count_after_every_tick(self):
        sim = build_simulator(
            WorkloadSpec(n_objects=400, grid_size=16, seed=43, move_fraction=0.02)
        )
        queries = {}
        for i, oid in enumerate(sorted(sim.grid.objects())[:6]):
            query = IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=oid))
            queries[f"q{i}"] = sim.add_query(f"q{i}", query)
        assert all(q.monitored_region_cells == 0 for q in queries.values())
        kinds = set()
        out = sim.execute_queries()
        for tick in range(10):
            for name, query in queries.items():
                m = out[name]
                if m.skipped:
                    kinds.add("skipped")
                else:
                    kinds.add("incremental" if tick else "initial")
                cells = query._state.alive.alive_count()
                assert query.monitored_region_cells == cells
                assert m.region_cells == cells
            out = sim.step()
        assert kinds == {"initial", "incremental", "skipped"}

    def test_zero_under_a_network_metric(self):
        from repro.metric import NetworkMetric
        from repro.motion.roadnet import RoadNetwork

        sim = build_simulator(WorkloadSpec(n_objects=60, grid_size=8, seed=45))
        network = RoadNetwork.grid_city(rows=5, cols=5, seed=1)
        query = IGERNMonoQuery(
            sim.grid,
            QueryPosition(sim.grid, fixed=(0.5, 0.5)),
            metric=NetworkMetric(network),
        )
        sim.add_query("net", query)
        sim.run(2)
        assert query.last_report is not None
        assert query.monitored_region_cells == 0
