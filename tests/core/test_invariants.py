"""Structural invariants of the IGERN monitored state.

Beyond answer correctness (test_theorems.py), these check the properties
the paper's discussion relies on: the answer is always a subset of the
monitored set, the region always contains the query, the guarded pruning
never enlarges the exact region, and the monitored area stays a small
fraction of the space once the query is warm.
"""

import random

from repro.core.bi import BiIGERN
from repro.core.mono import MonoIGERN
from repro.grid.index import GridIndex


def drift(grid, rng, sigma=0.03):
    for oid in list(grid.objects()):
        p = grid.position(oid)
        grid.move(
            oid,
            (
                min(max(p.x + rng.gauss(0, sigma), 0.0), 1.0),
                min(max(p.y + rng.gauss(0, sigma), 0.0), 1.0),
            ),
        )


class TestMonoInvariants:
    def run_tracked(self, seed, ticks=25):
        rng = random.Random(seed)
        grid = GridIndex(16)
        for i in range(150):
            grid.insert(i, (rng.random(), rng.random()))
        algo = MonoIGERN(grid, query_id=0)
        state, report = algo.initial(grid.position(0))
        yield grid, state, report
        for _ in range(ticks):
            drift(grid, rng)
            report = algo.incremental(state, grid.position(0))
            yield grid, state, report

    def test_answer_subset_of_monitored(self):
        for grid, state, report in self.run_tracked(1):
            assert report.answer <= report.monitored

    def test_query_point_always_in_region(self):
        for grid, state, report in self.run_tracked(2):
            assert state.alive.point_alive(state.qpos)

    def test_candidate_snapshots_match_grid(self):
        """After each step the stored candidate positions are current."""
        for grid, state, report in self.run_tracked(3):
            for oid, snapshot in state.monitored.items():
                assert grid.position(oid) == snapshot

    def test_region_halfplanes_match_candidates(self):
        """Every mask half-plane belongs to a live monitored candidate."""
        from repro.geometry.bisector import bisector_halfplane

        for grid, state, report in self.run_tracked(4):
            expected = {
                bisector_halfplane(state.qpos, pos)
                for pos in state.monitored.values()
                if pos != state.qpos
            }
            assert set(state.alive.halfplanes) == expected

    def test_monitored_area_fraction_small_when_warm(self):
        last = None
        for grid, state, report in self.run_tracked(5, ticks=30):
            last = report
        # After 30 ticks on a 16x16 grid, the monitored region should be
        # far below the whole space (the paper: ~1/6th of CRNN's area).
        assert last.alive_fraction < 0.25


class TestBiInvariants:
    def run_tracked(self, seed, ticks=25):
        rng = random.Random(seed)
        grid = GridIndex(16)
        for i in range(150):
            grid.insert(i, (rng.random(), rng.random()), "A" if i % 3 == 0 else "B")
        algo = BiIGERN(grid, query_id=0)
        state, report = algo.initial(grid.position(0))
        yield grid, state, report
        for _ in range(ticks):
            drift(grid, rng)
            report = algo.incremental(state, grid.position(0))
            yield grid, state, report

    def test_monitored_objects_are_type_a(self):
        for grid, state, report in self.run_tracked(6):
            for oid in report.monitored:
                assert grid.category(oid) == "A"

    def test_answers_are_type_b(self):
        for grid, state, report in self.run_tracked(7):
            for oid in report.answer:
                assert grid.category(oid) == "B"

    def test_answers_inside_exact_region(self):
        """Every reported B object survives all monitored bisectors."""
        for grid, state, report in self.run_tracked(8):
            for oid in report.answer:
                assert state.alive.point_alive(grid.position(oid))

    def test_snapshots_current(self):
        for grid, state, report in self.run_tracked(9):
            for oid, snapshot in state.monitored.items():
                assert grid.position(oid) == snapshot
