"""Unit tests for monochromatic IGERN (Algorithms 1 and 2)."""

import random

import pytest

from repro.core.mono import MonoIGERN
from repro.geometry.point import Point
from repro.grid.index import GridIndex
from repro.queries.brute import brute_mono_rnn

from tests.conftest import populate


def check_against_brute(grid, algo, state, qpos, query_id=None, k=1):
    expected = brute_mono_rnn(
        grid.positions_snapshot(), qpos, query_id=query_id, k=k
    )
    assert set(state.answer) == expected


class TestInitialStep:
    def test_empty_grid(self):
        grid = GridIndex(8)
        algo = MonoIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset()
        assert report.is_initial

    def test_single_object_is_rnn(self):
        grid = GridIndex(8)
        grid.insert(1, (0.2, 0.2))
        algo = MonoIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset({1})

    def test_paper_style_example(self):
        """A hand-built configuration with a known answer."""
        grid = GridIndex(16)
        # o1 is nearest to q and has no one nearer: an RNN.
        # o2 and o3 are mutually nearest: neither is an RNN of q.
        populate(grid, [(0.55, 0.5), (0.9, 0.9), (0.92, 0.9)], start_id=1)
        algo = MonoIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset({1})
        check_against_brute(grid, algo, state, (0.5, 0.5))

    def test_query_object_excluded(self, small_grid):
        qid = 0
        qpos = small_grid.position(qid)
        algo = MonoIGERN(small_grid, query_id=qid)
        state, report = algo.initial(qpos)
        assert qid not in report.answer
        assert qid not in state.monitored
        check_against_brute(small_grid, algo, state, qpos, query_id=qid)

    def test_matches_brute_force_many_queries(self, small_grid):
        for qid in range(0, 40, 3):
            qpos = small_grid.position(qid)
            algo = MonoIGERN(small_grid, query_id=qid)
            state, _ = algo.initial(qpos)
            check_against_brute(small_grid, algo, state, qpos, query_id=qid)

    def test_candidates_cover_answer(self, small_grid):
        algo = MonoIGERN(small_grid)
        state, report = algo.initial((0.4, 0.6))
        assert report.answer <= frozenset(state.monitored)

    def test_region_contains_no_free_objects(self, small_grid):
        """After Phase I, every alive-cell object is a candidate."""
        algo = MonoIGERN(small_grid)
        state, _ = algo.initial((0.4, 0.6))
        for oid in small_grid.objects():
            key = small_grid.cell_of(oid)
            if state.alive.is_alive(key) and oid not in state.monitored:
                # Objects in straddling cells outside the exact region are
                # tolerated — they must be point-dead.
                assert not state.alive.point_alive(small_grid.position(oid))

    def test_object_coincident_with_query(self):
        grid = GridIndex(8)
        grid.insert(1, (0.5, 0.5))
        grid.insert(2, (0.9, 0.9))
        algo = MonoIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        # Object 1 has the query at distance 0: nothing can beat that.
        assert 1 in report.answer

    def test_invalid_k(self, small_grid):
        with pytest.raises(ValueError):
            MonoIGERN(small_grid, k=0)


class TestIncrementalStep:
    def test_no_movement_keeps_answer(self, small_grid):
        algo = MonoIGERN(small_grid, query_id=0)
        qpos = small_grid.position(0)
        state, first = algo.initial(qpos)
        report = algo.incremental(state, qpos)
        assert report.answer == first.answer
        assert not report.movement_rebuild

    def test_query_moves(self, small_grid):
        algo = MonoIGERN(small_grid, query_id=0)
        state, _ = algo.initial(small_grid.position(0))
        new_q = Point(0.9, 0.1)
        small_grid.move(0, new_q)
        report = algo.incremental(state, new_q)
        assert report.movement_rebuild
        check_against_brute(small_grid, algo, state, new_q, query_id=0)

    def test_candidate_moves(self, small_grid):
        algo = MonoIGERN(small_grid, query_id=0)
        qpos = small_grid.position(0)
        state, _ = algo.initial(qpos)
        victim = next(iter(state.monitored))
        small_grid.move(victim, (0.95, 0.95))
        report = algo.incremental(state, qpos)
        assert report.movement_rebuild
        check_against_brute(small_grid, algo, state, qpos, query_id=0)

    def test_new_object_enters_region(self, small_grid):
        algo = MonoIGERN(small_grid, query_id=0)
        qpos = small_grid.position(0)
        state, _ = algo.initial(qpos)
        # Drop a brand-new object right next to the query.
        small_grid.insert(999, (qpos.x + 1e-4, qpos.y))
        report = algo.incremental(state, qpos)
        assert 999 in state.monitored
        assert 999 in report.answer
        check_against_brute(small_grid, algo, state, qpos, query_id=0)

    def test_candidate_deleted_from_grid(self, small_grid):
        algo = MonoIGERN(small_grid, query_id=0)
        qpos = small_grid.position(0)
        state, _ = algo.initial(qpos)
        victim = next(iter(state.monitored))
        small_grid.remove(victim)
        report = algo.incremental(state, qpos)
        assert victim not in state.monitored
        assert victim not in report.answer
        check_against_brute(small_grid, algo, state, qpos, query_id=0)

    def test_long_random_walk_stays_correct(self, rng):
        grid = GridIndex(12)
        for i in range(80):
            grid.insert(i, (rng.random(), rng.random()))
        algo = MonoIGERN(grid, query_id=0)
        state, _ = algo.initial(grid.position(0))
        for _ in range(40):
            # Move ~15 random objects per tick (including maybe the query).
            for _ in range(15):
                oid = rng.randrange(80)
                p = grid.position(oid)
                grid.move(
                    oid,
                    (
                        min(max(p.x + rng.gauss(0, 0.05), 0.0), 1.0),
                        min(max(p.y + rng.gauss(0, 0.05), 0.0), 1.0),
                    ),
                )
            qpos = grid.position(0)
            algo.incremental(state, qpos)
            check_against_brute(grid, algo, state, qpos, query_id=0)

    def test_prune_modes_all_correct(self, rng):
        for mode in ("guarded", "literal", "off"):
            grid = GridIndex(12)
            r = random.Random(99)
            for i in range(60):
                grid.insert(i, (r.random(), r.random()))
            algo = MonoIGERN(grid, query_id=0, prune=mode)
            state, _ = algo.initial(grid.position(0))
            for _ in range(15):
                for oid in range(60):
                    p = grid.position(oid)
                    grid.move(
                        oid,
                        (
                            min(max(p.x + r.gauss(0, 0.02), 0.0), 1.0),
                            min(max(p.y + r.gauss(0, 0.02), 0.0), 1.0),
                        ),
                    )
                qpos = grid.position(0)
                algo.incremental(state, qpos)
                check_against_brute(grid, algo, state, qpos, query_id=0)
