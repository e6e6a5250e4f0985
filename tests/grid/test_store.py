"""Property-based equivalence suite for the object-store backends.

The columnar struct-of-arrays layout and the dict-backed mapping
reference are two implementations of one storage contract behind
``GridIndex(store=...)``.  Every test here drives the
backends in lockstep over the same operation sequence and asserts their
observable state — and the search kernels computed over them — never
differ.  The columnar side additionally self-checks its full
row/bucket/free-list consistency contract after every batch
(:meth:`ColumnarStore.check_invariants`), and a churn test pins the
free-list compaction behaviour.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.index import GridIndex
from repro.grid.search import GridSearch
from repro.grid.store import COMPACT_MIN_FREE, ColumnarStore

BACKENDS = ("columnar", "mapping")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
point = st.tuples(unit, unit)
category = st.sampled_from([None, "A", "B"])
grid_sizes = st.sampled_from([1, 3, 8, 17])

#: One mutation: ("insert", pos, cat) | ("move", idx, pos) | ("remove", idx).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), point, category),
        st.tuples(st.just("move"), st.integers(min_value=0), point),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
    ),
    max_size=60,
)


def _apply_ops(grid: GridIndex, op_list):
    """Replay a mutation script; index-style references resolve against
    the currently live id list so every backend sees identical calls."""
    live = []
    next_id = 0
    for op in op_list:
        if op[0] == "insert":
            _, pos, cat = op
            grid.insert(next_id, pos, cat)
            live.append(next_id)
            next_id += 1
        elif op[0] == "move" and live:
            _, idx, pos = op
            grid.move(live[idx % len(live)], pos)
        elif op[0] == "remove" and live:
            _, idx = op
            grid.remove(live.pop(idx % len(live)))
    return live


def _observable_state(grid: GridIndex):
    """Everything a caller can see through the storage seam."""
    cells = {}
    for key in grid.occupied_cells():
        for cat in (None, "A", "B"):
            members = frozenset(grid.objects_in_cell(key, cat))
            if members:
                cells[(key, cat)] = members
                assert grid.cell_population(key, cat) == len(members)
    return {
        "len": len(grid),
        "positions": grid.positions_snapshot(),
        "cells": cells,
        "occupied": frozenset(grid.occupied_cells()),
        "occupied_count": grid.occupied_count(),
        "objects": frozenset(grid.objects()),
        "categories": {
            cat: frozenset(grid.objects(cat)) for cat in (None, "A", "B")
        },
    }


class TestBackendEquivalence:
    @given(grid_sizes, ops)
    @settings(max_examples=60, deadline=None)
    def test_mutation_sequences_agree(self, n, op_list):
        grids = {kind: GridIndex(n, store=kind) for kind in BACKENDS}
        states = {}
        for kind, grid in grids.items():
            _apply_ops(grid, op_list)
            if isinstance(grid._store, ColumnarStore):
                grid._store.check_invariants()
            states[kind] = _observable_state(grid)
        assert states["columnar"] == states["mapping"]

    @given(
        grid_sizes,
        st.lists(st.tuples(point, category), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_updates_agrees(self, n, initial, data):
        grids = {kind: GridIndex(n, store=kind) for kind in BACKENDS}
        for kind, grid in grids.items():
            for i, (pos, cat) in enumerate(initial):
                grid.insert(i, pos, cat)
        n_initial = len(initial)
        moves = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_initial - 1), point
                ),
                max_size=30,
            )
        )
        removes = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_initial - 1),
                    max_size=5,
                )
            )
        )
        inserts = [
            (n_initial + i, pos, cat)
            for i, (pos, cat) in enumerate(
                data.draw(st.lists(st.tuples(point, category), max_size=5))
            )
        ]
        moves = [(oid, pos) for oid, pos in moves if oid not in set(removes)]
        deltas = {}
        for kind, grid in grids.items():
            delta = grid.apply_updates(moves, inserts=inserts, removes=removes)
            deltas[kind] = (
                frozenset(delta.moved),
                frozenset(delta.touched_cells),
            )
            if isinstance(grid._store, ColumnarStore):
                grid._store.check_invariants()
        assert deltas["columnar"] == deltas["mapping"]
        states = {k: _observable_state(g) for k, g in grids.items()}
        assert states["columnar"] == states["mapping"]


class TestKernelEquivalence:
    """The rewritten scan kernels, slab path against the scalar paths."""

    @given(
        grid_sizes,
        st.lists(point, min_size=1, max_size=80),
        point,
        unit,
    )
    @settings(max_examples=60, deadline=None)
    def test_count_and_witnesses_agree(self, n, pts, q, threshold):
        t2 = threshold * threshold
        results = {}
        for kind in BACKENDS:
            grid = GridIndex(n, store=kind)
            for i, p in enumerate(pts):
                grid.insert(i, p)
            search = GridSearch(grid)
            results[kind] = []
            # Float and exact mode, each as a whole count (with and
            # without witness rows) and capped at two.  Which two
            # witnesses a capped probe meets first depends on the
            # layout's row order, so only its count is compared.
            for options in ({}, {"threshold_point": q}):
                rows = []
                count = search.count_closer_than(q, t2, **options)
                assert search.count_closer_than(q, t2, witnesses=rows, **options) == count
                assert len(rows) == count
                first = []
                capped = search.count_closer_than(
                    q, t2, stop_at=2, witnesses=first, **options
                )
                assert capped == len(first) == min(2, count)
                assert set(first) <= set(rows)
                results[kind].append((count, sorted(rows), capped))
        assert results["columnar"] == results["mapping"]

    @given(grid_sizes, st.lists(point, min_size=1, max_size=80), point)
    @settings(max_examples=60, deadline=None)
    def test_nearest_agrees_on_distance(self, n, pts, q):
        best = {}
        for kind in BACKENDS:
            grid = GridIndex(n, store=kind)
            for i, p in enumerate(pts):
                grid.insert(i, p)
            hit = GridSearch(grid).nearest(q)
            assert hit is not None
            best[kind] = hit[1]
        # Exact distance ties may resolve to different (equally valid)
        # winners across layouts; the minimum distance itself must be
        # bit-identical.
        assert best["columnar"] == best["mapping"]


class TestCompaction:
    def test_churn_triggers_compaction_and_preserves_state(self):
        grid = GridIndex(8, store="columnar")
        store = grid._store
        total = COMPACT_MIN_FREE * 3
        for i in range(total):
            grid.insert(i, ((i % 97) / 97.0, (i % 89) / 89.0))
        capacity_before = len(store.oids)
        survivors = {}
        for i in range(total):
            if i % 3:
                grid.remove(i)
            else:
                survivors[i] = grid.position(i)
        # Far more rows were freed than the compaction threshold keeps.
        assert len(store.free) < COMPACT_MIN_FREE
        assert len(store.oids) < capacity_before
        store.check_invariants()
        assert len(grid) == len(survivors)
        for oid, pos in survivors.items():
            p = grid.position(oid)
            assert (p.x, p.y) == (pos.x, pos.y)

    def test_free_rows_are_recycled_before_growth(self):
        grid = GridIndex(4, store="columnar")
        store = grid._store
        for i in range(100):
            grid.insert(i, (0.5, 0.5))
        for i in range(50):
            grid.remove(i)
        free_before = len(store.free)
        assert free_before == 50
        for i in range(100, 150):
            grid.insert(i, (0.25, 0.75))
        assert len(store.free) == 0
        store.check_invariants()

    def test_compaction_keeps_search_results(self):
        grid = GridIndex(8, store="columnar")
        pts = [
            ((i % 53) / 53.0, (i % 47) / 47.0)
            for i in range(COMPACT_MIN_FREE * 2)
        ]
        for i, p in enumerate(pts):
            grid.insert(i, p)
        for i in range(0, COMPACT_MIN_FREE * 2, 2):
            grid.remove(i)
        grid._store.check_invariants()
        search = GridSearch(grid)
        q = (0.31, 0.62)
        got = []
        search.count_closer_than(q, 0.04, witnesses=got)
        got.sort()
        expected = sorted(
            (i, (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
            for i, p in enumerate(pts)
            if i % 2 and (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 < 0.04
        )
        assert [oid for oid, _ in got] == [oid for oid, _ in expected]
        for (_, d_got), (_, d_exp) in zip(got, expected):
            assert math.isclose(d_got, d_exp, rel_tol=0.0, abs_tol=0.0)
