"""Batched updates: GridIndex.apply_updates, TickDelta, category sets."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.grid.delta import TickDelta
from repro.grid.index import GridIndex


class TestTickDelta:
    def test_empty(self):
        d = TickDelta()
        assert d.changed_ids() == set()
        assert d.touched_cells == set()

    def test_changed_ids_unions_moved_inserted_and_removed(self):
        d = TickDelta(moved={"a", "b"}, inserted={"new"}, removed={"old", "a"})
        assert d.changed_ids() == {"a", "b", "new", "old"}
        # A fresh set: mutating it leaves the delta's own sets alone.
        d.changed_ids().add("x")
        assert "x" not in d.moved | d.inserted | d.removed


class TestApplyUpdates:
    def test_matches_individual_moves(self):
        """Same final state and counters as the per-move loop.

        67 movers take the columnar store's vectorized bulk path."""
        rng = random.Random(42)
        pts = [(rng.random(), rng.random()) for _ in range(200)]
        batched = GridIndex(16)
        serial = GridIndex(16)
        for i, p in enumerate(pts):
            batched.insert(i, p, category=i % 2)
            serial.insert(i, p, category=i % 2)
        moves = [(i, (rng.random(), rng.random())) for i in range(0, 200, 3)]
        before = {i: batched.cell_of(i) for i in range(200)}
        delta = batched.apply_updates(moves)
        crossings = sum(1 for oid, p in moves if serial.move(oid, p))
        assert batched.updates == serial.updates
        assert batched.cell_changes == serial.cell_changes == crossings
        assert delta.moved == {oid for oid, _ in moves}
        assert delta.touched_cells == {
            key
            for oid in delta.moved
            for key in (before[oid], batched.cell_of(oid))
        }
        for i in range(200):
            assert batched.position(i) == serial.position(i)
            assert batched.cell_of(i) == serial.cell_of(i)

    def test_delta_contents(self):
        grid = GridIndex(4)
        grid.insert("stay", (0.1, 0.1))
        grid.insert("wiggle", (0.3, 0.3))
        grid.insert("cross", (0.6, 0.6))
        delta = grid.apply_updates(
            [("wiggle", (0.31, 0.31)), ("cross", (0.9, 0.9))]
        )
        assert delta.moved == {"wiggle", "cross"}
        assert delta.inserted == set() and delta.removed == set()
        # The within-cell wiggle touches its cell; the crossing touches
        # both the cell it left and the one it entered; "stay" touches
        # nothing.
        assert delta.touched_cells == {
            grid.cell_key((0.3, 0.3)),
            grid.cell_key((0.6, 0.6)),
            grid.cell_key((0.9, 0.9)),
        }
        assert grid.cell_changes == 1

    def test_restated_position_counts_update_but_not_movement(self):
        grid = GridIndex(4)
        grid.insert("a", (0.5, 0.5))
        delta = grid.apply_updates([("a", (0.5, 0.5))])
        assert grid.updates == 1
        assert delta.changed_ids() == set()
        assert delta.touched_cells == set()

    def test_churn_order_removes_then_inserts_then_moves(self):
        """An id freed by a remove can be reused by an insert same tick."""
        grid = GridIndex(4)
        grid.insert("x", (0.1, 0.1))
        grid.insert("y", (0.9, 0.9))
        delta = grid.apply_updates(
            [("y", (0.85, 0.85))],
            inserts=[("x", Point(0.6, 0.6), "B")],
            removes=["x"],
        )
        assert grid.category("x") == "B"
        assert delta.removed == {"x"} and delta.inserted == {"x"}
        assert delta.touched_cells == {
            grid.cell_key((0.1, 0.1)),
            grid.cell_key((0.6, 0.6)),
            grid.cell_key((0.9, 0.9)),
        }

    def test_move_of_unknown_object_raises(self):
        grid = GridIndex(4)
        with pytest.raises(KeyError):
            grid.apply_updates([("ghost", (0.5, 0.5))])


_coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
_pos = st.tuples(_coord, _coord)


@st.composite
def _batch_ticks(draw):
    """An initial population plus one tick of removes/inserts/moves.

    Move targets are surviving initial ids only and insert ids are fresh,
    so every touched cell is attributable to exactly one batched change
    (``apply_updates`` itself also supports reuse and insert-then-move;
    those orderings are pinned by the example-based tests above).
    """
    size = draw(st.sampled_from([1, 2, 4, 8]))
    n = draw(st.integers(min_value=0, max_value=25))
    initial = [
        (i, draw(_pos), draw(st.sampled_from(["A", "B"]))) for i in range(n)
    ]
    removes = draw(st.lists(st.sampled_from(range(n)), unique=True) if n else st.just([]))
    survivors = [i for i in range(n) if i not in set(removes)]
    move_ids = draw(
        st.lists(st.sampled_from(survivors), unique=True)
        if survivors
        else st.just([])
    )
    moves = [(i, draw(_pos)) for i in move_ids]
    n_inserts = draw(st.integers(min_value=0, max_value=5))
    inserts = [
        (n + j, Point(*draw(_pos)), draw(st.sampled_from(["A", "B"])))
        for j in range(n_inserts)
    ]
    return size, initial, moves, inserts, removes


class TestApplyUpdatesProperties:
    @given(_batch_ticks())
    def test_equivalent_to_serial_operations(self, tick):
        """apply_updates == remove-by-one, insert-by-one, move-by-one."""
        size, initial, moves, inserts, removes = tick
        batched = GridIndex(size)
        serial = GridIndex(size)
        for oid, pos, cat in initial:
            batched.insert(oid, pos, category=cat)
            serial.insert(oid, pos, category=cat)
        batched.apply_updates(moves, inserts=inserts, removes=removes)
        for oid in removes:
            serial.remove(oid)
        for oid, pos, cat in inserts:
            serial.insert(oid, pos, category=cat)
        for oid, pos in moves:
            serial.move(oid, pos)
        assert batched.positions_snapshot() == serial.positions_snapshot()
        for oid in serial.objects():
            assert batched.cell_of(oid) == serial.cell_of(oid)
            assert batched.category(oid) == serial.category(oid)
        for cat in ("A", "B"):
            assert set(batched.objects(cat)) == set(serial.objects(cat))

    @given(_batch_ticks())
    def test_touched_cells_are_exactly_the_changed_cells(self, tick):
        """``touched_cells`` is exactly the cells of removed objects, the
        cells of inserted objects, and the old and new cell of every
        object whose position changed — the premise the scheduler's
        footprint-disjointness skip rests on."""
        size, initial, moves, inserts, removes = tick
        grid = GridIndex(size)
        for oid, pos, cat in initial:
            grid.insert(oid, pos, category=cat)
        cells_before = {oid: grid.cell_of(oid) for oid in grid.objects()}
        changes_before = grid.cell_changes
        delta = grid.apply_updates(moves, inserts=inserts, removes=removes)
        assert delta.inserted == {oid for oid, _, _ in inserts}
        assert delta.removed == set(removes)
        initial_pos = {oid: pos for oid, pos, _ in initial}
        moved_truly = {oid for oid, pos in moves if pos != initial_pos[oid]}
        assert delta.moved == moved_truly
        expected = {cells_before[oid] for oid in removes}
        expected |= {grid.cell_of(oid) for oid, _, _ in inserts}
        for oid in moved_truly:
            expected.add(cells_before[oid])
            expected.add(grid.cell_of(oid))
        assert delta.touched_cells == expected
        crossings = sum(
            1 for oid in moved_truly if grid.cell_of(oid) != cells_before[oid]
        )
        assert grid.cell_changes - changes_before == crossings


class TestCategorySets:
    def test_objects_and_count_by_category(self):
        grid = GridIndex(8)
        for i in range(10):
            grid.insert(i, (i / 10.0 + 0.05, 0.5), category="A" if i < 4 else "B")
        assert grid.count("A") == 4
        assert grid.count("B") == 6
        assert grid.count() == 10
        assert set(grid.objects("A")) == set(range(4))
        assert set(grid.objects("B")) == set(range(4, 10))

    def test_category_sets_survive_remove_and_batch(self):
        grid = GridIndex(8)
        grid.insert("a1", (0.1, 0.1), "A")
        grid.insert("a2", (0.2, 0.2), "A")
        grid.insert("b1", (0.3, 0.3), "B")
        grid.remove("a1")
        assert set(grid.objects("A")) == {"a2"}
        grid.apply_updates(
            [("a2", (0.8, 0.8))],
            inserts=[("b2", Point(0.4, 0.4), "B")],
            removes=["b1"],
        )
        assert set(grid.objects("B")) == {"b2"}
        assert grid.count("A") == 1
        assert grid.count("missing") == 0
        assert list(grid.objects("missing")) == []

    def test_positions_snapshot_by_category(self):
        grid = GridIndex(8)
        grid.insert("a", (0.1, 0.2), "A")
        grid.insert("b", (0.3, 0.4), "B")
        assert grid.positions_snapshot("A") == {"a": (0.1, 0.2)}
        assert set(grid.positions_snapshot()) == {"a", "b"}
