"""Unit tests for bichromatic IGERN (Algorithms 3 and 4)."""

import random

import pytest

from repro.core.bi import BiIGERN
from repro.geometry.point import Point
from repro.grid.index import GridIndex
from repro.queries.brute import brute_bi_rnn

from tests.conftest import populate


def check_against_brute(grid, state, qpos, query_id=None):
    expected = brute_bi_rnn(
        grid.positions_snapshot("A"),
        grid.positions_snapshot("B"),
        qpos,
        query_id=query_id,
    )
    assert set(state.answer) == expected


class TestConstruction:
    def test_same_categories_raise(self):
        with pytest.raises(ValueError):
            BiIGERN(GridIndex(8), cat_a="A", cat_b="A")


class TestInitialStep:
    def test_no_b_objects(self):
        grid = GridIndex(8)
        grid.insert(1, (0.3, 0.3), "A")
        algo = BiIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset()

    def test_all_b_objects_can_be_answers(self):
        """Unlike mono, the bichromatic answer is unbounded: with no
        competing A objects every B object is an RNN."""
        grid = GridIndex(8)
        ids = populate(
            grid, [(0.1, 0.1), (0.9, 0.9), (0.1, 0.9), (0.9, 0.1)], category="B"
        )
        algo = BiIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset(ids)

    def test_competing_a_object_splits_soldiers(self):
        grid = GridIndex(16)
        grid.insert("rival", (0.9, 0.5), "A")
        grid.insert("near-b", (0.55, 0.5), "B")
        grid.insert("far-b", (0.85, 0.5), "B")
        algo = BiIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset({"near-b"})
        assert "rival" in state.monitored

    def test_matches_brute_force_many_queries(self, bi_grid):
        a_ids = sorted(bi_grid.objects("A"))
        for qid in a_ids[:15]:
            qpos = bi_grid.position(qid)
            algo = BiIGERN(bi_grid, query_id=qid)
            state, _ = algo.initial(qpos)
            check_against_brute(bi_grid, state, qpos, query_id=qid)

    def test_monitored_set_contains_only_a(self, bi_grid):
        algo = BiIGERN(bi_grid)
        state, _ = algo.initial((0.5, 0.5))
        for oid in state.monitored:
            assert bi_grid.category(oid) == "A"

    def test_b_object_coincident_with_query(self):
        grid = GridIndex(8)
        grid.insert("b", (0.5, 0.5), "B")
        grid.insert("a", (0.6, 0.5), "A")
        algo = BiIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert "b" in report.answer  # distance 0 cannot be beaten strictly


class TestIncrementalStep:
    def test_no_movement_keeps_answer(self, bi_grid):
        qid = next(iter(sorted(bi_grid.objects("A"))))
        qpos = bi_grid.position(qid)
        algo = BiIGERN(bi_grid, query_id=qid)
        state, first = algo.initial(qpos)
        report = algo.incremental(state, qpos)
        assert report.answer == first.answer

    def test_query_movement(self, bi_grid):
        qid = next(iter(sorted(bi_grid.objects("A"))))
        algo = BiIGERN(bi_grid, query_id=qid)
        state, _ = algo.initial(bi_grid.position(qid))
        new_q = Point(0.15, 0.85)
        bi_grid.move(qid, new_q)
        report = algo.incremental(state, new_q)
        assert report.movement_rebuild
        check_against_brute(bi_grid, state, new_q, query_id=qid)

    def test_b_object_walks_into_answer(self):
        grid = GridIndex(16)
        grid.insert("rival", (0.9, 0.5), "A")
        grid.insert("b", (0.88, 0.5), "B")  # initially closer to rival
        algo = BiIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset()
        grid.move("b", (0.55, 0.5))  # now closer to the query
        report = algo.incremental(state, (0.5, 0.5))
        assert report.answer == frozenset({"b"})

    def test_rival_steals_soldier(self):
        grid = GridIndex(16)
        grid.insert("rival", (0.95, 0.5), "A")
        grid.insert("b", (0.6, 0.5), "B")
        algo = BiIGERN(grid)
        state, report = algo.initial((0.5, 0.5))
        assert report.answer == frozenset({"b"})
        grid.move("rival", (0.62, 0.5))  # rival now nearest to b
        report = algo.incremental(state, (0.5, 0.5))
        assert report.answer == frozenset()

    def test_monitored_a_deleted(self, bi_grid):
        qid = next(iter(sorted(bi_grid.objects("A"))))
        qpos = bi_grid.position(qid)
        algo = BiIGERN(bi_grid, query_id=qid)
        state, _ = algo.initial(qpos)
        victim = next(iter(state.monitored))
        bi_grid.remove(victim)
        report = algo.incremental(state, qpos)
        assert victim not in state.monitored
        check_against_brute(bi_grid, state, qpos, query_id=qid)

    def test_long_random_walk_stays_correct(self):
        rng = random.Random(31)
        grid = GridIndex(12)
        for i in range(90):
            cat = "A" if i % 3 == 0 else "B"
            grid.insert(i, (rng.random(), rng.random()), cat)
        qid = 0
        algo = BiIGERN(grid, query_id=qid)
        state, _ = algo.initial(grid.position(qid))
        for _ in range(40):
            for _ in range(20):
                oid = rng.randrange(90)
                p = grid.position(oid)
                grid.move(
                    oid,
                    (
                        min(max(p.x + rng.gauss(0, 0.05), 0.0), 1.0),
                        min(max(p.y + rng.gauss(0, 0.05), 0.0), 1.0),
                    ),
                )
            qpos = grid.position(qid)
            algo.incremental(state, qpos)
            check_against_brute(grid, state, qpos, query_id=qid)

    def test_third_category_never_answers(self):
        """Objects of neither category share the grid but take no part:
        the incremental scan passes only B objects to verification."""
        rng = random.Random(3)
        grid = GridIndex(16)
        for i in range(300):
            grid.insert(i, (rng.random(), rng.random()), rng.choice("ABC"))
        algo = BiIGERN(grid)
        state, _ = algo.initial((0.5, 0.5))
        for _ in range(20):
            for oid in range(300):
                if rng.random() < 0.1:
                    grid.move(oid, (rng.random(), rng.random()))
            algo.incremental(state, (0.5, 0.5))
            check_against_brute(grid, state, (0.5, 0.5))
            assert state.check_invariants(grid) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_point_alive_b_objects_are_probed(self, k):
        """Every B object point-alive in the final region was probed, so
        the footprint covers its witness ball (``check_invariants``), and
        the footprint holds those balls."""
        from repro.core.state import _add_ball_cells
        from repro.geometry.point import dist

        rng = random.Random(40 + k)
        grid = GridIndex(12)
        for i in range(120):
            grid.insert(i, (rng.random(), rng.random()), "A" if i % 4 == 0 else "B")
        algo = BiIGERN(grid, query_id=0, k=k)
        state, _ = algo.initial(grid.position(0))
        for _ in range(25):
            for oid in range(120):
                if rng.random() < 0.2:
                    p = grid.position(oid)
                    grid.move(
                        oid,
                        (
                            min(max(p.x + rng.gauss(0, 0.04), 0.0), 1.0),
                            min(max(p.y + rng.gauss(0, 0.04), 0.0), 1.0),
                        ),
                    )
            qpos = grid.position(0)
            algo.incremental(state, qpos)
            assert state.check_invariants(grid, k=k, query_id=0) == []
            cells = state.footprint_cells(grid)
            if cells is None:
                continue
            for key in state.alive.alive_cells():
                for ob in grid.objects_in_cell(key, "B"):
                    pos = grid.position(ob)
                    if state.alive.point_alive(pos):
                        ball = set()
                        _add_ball_cells(grid, pos, dist(pos, qpos), ball, 10**6)
                        assert ball <= cells

    def test_prune_modes_all_correct(self):
        for mode in ("guarded", "literal", "off"):
            rng = random.Random(77)
            grid = GridIndex(12)
            for i in range(70):
                cat = "A" if i % 2 == 0 else "B"
                grid.insert(i, (rng.random(), rng.random()), cat)
            algo = BiIGERN(grid, query_id=0, prune=mode)
            state, _ = algo.initial(grid.position(0))
            for _ in range(12):
                for oid in range(70):
                    p = grid.position(oid)
                    grid.move(
                        oid,
                        (
                            min(max(p.x + rng.gauss(0, 0.02), 0.0), 1.0),
                            min(max(p.y + rng.gauss(0, 0.02), 0.0), 1.0),
                        ),
                    )
                qpos = grid.position(0)
                algo.incremental(state, qpos)
                check_against_brute(grid, state, qpos, query_id=0)


class TestBisectorTieRegression:
    def test_exact_tie_b_object_is_an_answer(self):
        """Regression: a B object exactly equidistant from the query and
        its only A competitor is a reverse nearest neighbor (no A object
        is *strictly* closer).  The rounded q/A bisector once evaluated
        the point a hair inside the dead side and the point-level
        prefilter dropped it before verification could decide the tie."""
        grid = GridIndex(8)
        grid.insert("a1", (0.871094, 0.871094), "A")
        grid.insert("b1", (1.0, 0.871094), "B")
        algo = BiIGERN(grid)
        state, report = algo.initial((1.0, 1.0))
        check_against_brute(grid, state, (1.0, 1.0))
        assert "b1" in state.answer
