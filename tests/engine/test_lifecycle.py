"""Simulator query-lifecycle tests (pause gaps, mid-run removal)."""

import gc
import weakref

import pytest

from repro.engine.simulation import Simulator
from repro.motion.uniform import RandomWalkGenerator
from repro.queries import BruteForceMonoQuery, IGERNBiQuery, IGERNMonoQuery, QueryPosition


def make_sim(n=120, seed=2):
    return Simulator(RandomWalkGenerator(n, seed=seed, step_sigma=0.04), grid_size=16)


class TestPausedLogs:
    def test_paused_query_produces_log_gaps(self):
        sim = make_sim()
        sim.add_query(
            "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
        )
        sim.run(2)
        sim.pause_query("q")
        paused_result = sim.run(3)
        assert "q" in paused_result.logs
        assert paused_result["q"].ticks == []
        sim.resume_query("q")
        resumed = sim.run(2)
        assert len(resumed["q"].ticks) == 3  # re-execute + 2 ticks

    def test_resumed_answer_exact(self):
        sim = make_sim(seed=5)
        sim.add_query(
            "igern", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
        )
        sim.add_query(
            "brute",
            BruteForceMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5))),
        )
        sim.run(2)
        sim.pause_query("igern")
        sim.run(8)
        sim.resume_query("igern")
        result = sim.run(1)
        for metrics in result["igern"].ticks:
            expected = next(
                m.answer for m in result["brute"].ticks if m.tick == metrics.tick
            )
            assert metrics.answer == expected

    def test_pause_unknown_query(self):
        sim = make_sim()
        with pytest.raises(KeyError):
            sim.pause_query("ghost")
        with pytest.raises(KeyError):
            sim.resume_query("ghost")

    def test_is_paused(self):
        sim = make_sim()
        sim.add_query(
            "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
        )
        assert not sim.is_paused("q")
        sim.pause_query("q")
        assert sim.is_paused("q")


class TestRemoval:
    def test_remove_query_returns_executor(self):
        sim = make_sim()
        query = IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
        sim.add_query("q", query)
        sim.run(1)
        returned = sim.remove_query("q")
        assert returned is query
        assert "q" not in sim.query_names()

    def test_removed_query_not_executed(self):
        sim = make_sim()
        sim.add_query(
            "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
        )
        sim.run(1)
        sim.remove_query("q")
        result = sim.run(2)
        assert "q" not in result.names()

    def test_remove_missing_raises(self):
        sim = make_sim()
        with pytest.raises(KeyError):
            sim.remove_query("ghost")

    def test_name_reusable_after_removal(self):
        sim = make_sim()
        sim.add_query(
            "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
        )
        sim.remove_query("q")
        sim.add_query(
            "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.2, 0.2)))
        )
        result = sim.run(1)
        assert len(result["q"].ticks) == 2


class TestRelease:
    @pytest.mark.parametrize("mode", ["mono", "bi"])
    @pytest.mark.parametrize(
        "options",
        [{"batch": True}, {"batch": False}, {"lease": True}],
        ids=["batch", "no-batch", "lease"],
    )
    def test_dropped_simulator_frees_its_store_without_the_collector(
        self, mode, options
    ):
        """Reference counting alone frees a dropped engine's grid: its
        columns, row index and bucket row lists must not sit in a cycle
        waiting for a full collection."""
        categories = {"A": 0.5, "B": 0.5} if mode == "bi" else None
        sim = Simulator(
            RandomWalkGenerator(200, seed=4, step_sigma=0.04, categories=categories),
            grid_size=16,
            **options,
        )
        kind = IGERNMonoQuery if mode == "mono" else IGERNBiQuery
        for i in range(3):
            position = QueryPosition(sim.grid, fixed=(0.2 + 0.3 * i, 0.5))
            sim.add_query(f"q{i}", kind(sim.grid, position))
        sim.run(3)
        store = weakref.ref(sim.grid._store)
        gc.disable()
        try:
            del sim, position
            assert store() is None
        finally:
            gc.enable()
