"""Cache soundness of the per-tick shared-execution context.

The :class:`~repro.grid.context.SharedTickContext` memoizes the two
verification probes (witness counts and nearest searches) across the
queries of one tick.  Its contract is
absolute: a memoized read returns exactly what a cold computation on the
current grid state would, no matter how probes, repeats and grid
mutations interleave.  The Hypothesis suite here drives random
interleavings against cold recomputation; the deterministic tests pin
the stale-cache regression (a within-cell move — same cell key, changed
coordinates — must invalidate the context) at both the context level and
end-to-end through a batched simulator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulation import Simulator
from repro.geometry import predicates
from repro.geometry.point import Point, dist_sq
from repro.grid.context import SharedTickContext
from repro.grid.index import GridIndex
from repro.grid.search import GridSearch
from repro.motion.churn import TickEvents
from repro.queries import IGERNMonoQuery, QueryPosition, brute_mono_rnn

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
    lambda v: round(v, 6)
)
point = st.tuples(coord, coord)


class _Feed:
    """Scripted per-tick event feed (the Simulator generator protocol)."""

    def __init__(self, initial):
        self._initial = list(initial)
        self.pending = TickEvents([], [], [])

    def initial(self):
        return list(self._initial)

    def step_events(self, dt: float = 1.0) -> TickEvents:
        events, self.pending = self.pending, TickEvents([], [], [])
        return events


class TestMemoEqualsCold:
    """Random probes, repeats and mutations: memoized == cold, always."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_probes_match_cold_recomputation(self, data):
        grid = GridIndex(6)
        n = data.draw(st.integers(min_value=4, max_value=16), label="n_objects")
        for oid in range(n):
            grid.insert(
                oid,
                data.draw(point, label=f"pos{oid}"),
                data.draw(st.sampled_from(["A", "B"]), label=f"cat{oid}"),
            )
        ctx = SharedTickContext(grid)
        ctx.begin_tick()
        search = GridSearch(grid)
        cold = GridSearch(grid)

        # A small pool of probe parameter tuples so repeats occur and the
        # memo is genuinely exercised (not just populated).
        ids = sorted(grid.objects())
        pool = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids),                      # center object
                    st.floats(min_value=0.0, max_value=1.5),   # threshold
                    st.sets(st.sampled_from(ids), max_size=3), # exclusions
                    st.sampled_from([None, "A", "B"]),         # category
                    st.integers(min_value=1, max_value=3),     # k
                ),
                min_size=2,
                max_size=5,
            ),
            label="probe_pool",
        )
        next_id = n
        for step in range(data.draw(st.integers(8, 24), label="n_steps")):
            op = data.draw(
                st.sampled_from(["witness", "witness", "nearest", "mutate"]),
                label=f"op{step}",
            )
            if op == "mutate":
                kind = data.draw(
                    st.sampled_from(["move", "insert", "remove"]),
                    label=f"mutate{step}",
                )
                live = sorted(grid.objects())
                if kind == "insert" or not live:
                    grid.insert(
                        next_id, data.draw(point, label=f"ins{step}"), "A"
                    )
                    next_id += 1
                elif kind == "move":
                    grid.move(
                        data.draw(st.sampled_from(live), label=f"mv{step}"),
                        data.draw(point, label=f"mvpos{step}"),
                    )
                else:
                    grid.remove(
                        data.draw(st.sampled_from(live), label=f"rm{step}")
                    )
                continue
            oid, threshold, exclude, category, k = data.draw(
                st.sampled_from(pool), label=f"params{step}"
            )
            if oid not in grid:
                continue
            center = grid.position(oid)
            sig = frozenset(o for o in exclude if o in grid)
            if op == "witness":
                t2 = threshold * threshold
                got = ctx.witness_count(
                    search, oid, center, t2, sig, category, k
                )
                rows = []
                count = cold.count_closer_than(
                    center, t2, exclude=sig, category=category, stop_at=k, witnesses=rows
                )
                assert got == count == len(rows)
            else:
                got = ctx.nearest_excluding(search, oid, center, sig, category)
                assert got == cold.nearest(center, exclude=sig, category=category)


class TestWitnessCertificate:
    """The certificate read back after a probe is sound whatever other
    thresholds banked witnesses into the same memo entry first (fixed
    queries at different points share a candidate's entry)."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_certificate_lists_k_strict_witnesses(self, data):
        grid = GridIndex(6)
        n = data.draw(st.integers(min_value=3, max_value=16), label="n_objects")
        for oid in range(n):
            grid.insert(oid, data.draw(point, label=f"pos{oid}"), 0)
        ctx = SharedTickContext(grid)
        ctx.begin_tick()
        search = GridSearch(grid)
        oid = data.draw(st.integers(0, n - 1), label="candidate")
        center = grid.position(oid)
        sig = frozenset({oid})
        k = data.draw(st.integers(1, 3), label="k")
        queries = data.draw(st.lists(point, min_size=1, max_size=4), label="queries")
        for ref in map(Point._make, queries):
            t2 = dist_sq(center, ref)
            count = ctx.witness_count(
                search, oid, center, t2, sig, None, k, threshold_ref=ref
            )
            cert = ctx.witness_certificate(oid, center, sig, None, k, ref)
            if count < k:
                assert cert is None
                continue
            assert cert is not None and len(set(cert)) == k and oid not in cert
            for wid in cert:
                assert predicates.closer_than(center, grid.position(wid), ref)


class TestAccounting:
    def test_repeated_probe_hits_the_memo(self):
        grid = GridIndex(4)
        grid.insert(0, (0.10, 0.10), "A")
        grid.insert(1, (0.15, 0.10), "A")
        ctx = SharedTickContext(grid)
        ctx.begin_tick()
        search = GridSearch(grid)
        center = grid.position(0)
        sig = frozenset({0})
        first = ctx.witness_count(search, 0, center, 0.01, sig, None, 1)
        second = ctx.witness_count(search, 0, center, 0.01, sig, None, 1)
        assert first == second == 1
        snap = ctx.counters_snapshot()
        assert snap["misses_witness"] == 1
        assert snap["hits_witness"] == 1
        assert 0.0 < ctx.sharing_ratio < 1.0

    def test_signature_is_part_of_the_key(self):
        """Two probes around the same center with different exclusion
        signatures are different questions — neither may reuse the other."""
        grid = GridIndex(4)
        grid.insert(0, (0.10, 0.10), "A")
        grid.insert(1, (0.15, 0.10), "A")
        ctx = SharedTickContext(grid)
        ctx.begin_tick()
        search = GridSearch(grid)
        center = grid.position(0)
        with_witness = ctx.witness_count(
            search, 0, center, 0.01, frozenset({0}), None, 1
        )
        without_witness = ctx.witness_count(
            search, 0, center, 0.01, frozenset({0, 1}), None, 1
        )
        assert with_witness == 1
        assert without_witness == 0
        assert ctx.hits == 0  # distinct keys: both probes ran cold


class TestStaleCacheRegression:
    """A move that stays inside its cell still changes geometry: the
    context must be rebuilt, never served from the pre-move memo."""

    def test_within_cell_move_invalidates_context(self):
        grid = GridIndex(4)  # cells are 0.25 wide
        grid.insert(0, (0.10, 0.10), "A")
        grid.insert(1, (0.12, 0.10), "A")
        ctx = SharedTickContext(grid)
        ctx.begin_tick()
        search = GridSearch(grid)
        center = grid.position(0)
        sig = frozenset({0})
        t2 = 0.05 * 0.05
        assert ctx.witness_count(search, 0, center, t2, sig, None, 1) == 1
        invalidations = ctx.invalidations
        cell_before = grid.cell_of(1)
        grid.move(1, (0.20, 0.10))  # same cell, different coordinates
        assert grid.cell_of(1) == cell_before
        assert ctx.witness_count(search, 0, center, t2, sig, None, 1) == 0
        assert ctx.invalidations > invalidations

    def test_insert_remove_pair_invalidates_context(self):
        """Found by the Hypothesis suite: an insert followed by a remove
        restores the population count, and neither bumps ``updates`` or
        ``cell_changes`` — a version stamp built on those alone would
        serve the pre-churn nearest answer for an object that no longer
        exists.  The monotonic ``mutations`` counter must catch it."""
        grid = GridIndex(4)
        grid.insert(0, (0.10, 0.10), "A")
        grid.insert(1, (0.15, 0.10), "B")
        ctx = SharedTickContext(grid)
        ctx.begin_tick()
        search = GridSearch(grid)
        center = grid.position(0)
        sig = frozenset({0})
        assert ctx.nearest_excluding(search, 0, center, sig, None)[0] == 1
        grid.insert(2, (0.16, 0.10), "B")
        grid.remove(1)  # population is back to 2; updates/cell_changes untouched
        got = ctx.nearest_excluding(search, 0, center, sig, None)
        assert got[0] == 2
        assert got == search.nearest(center, exclude=sig, category=None)

    def test_within_cell_move_reflected_in_batched_answer(self):
        """End-to-end: a batched simulator whose only event is a
        within-cell jitter must re-derive the answer from the post-move
        geometry (and the shared context must report the rebuild)."""
        initial = [(0, (0.52, 0.50), 0), (1, (0.56, 0.50), 0)]
        feed = _Feed(initial)
        sim = Simulator(feed, grid_size=4, scheduler=True, batch=True)
        qpos = (0.50, 0.50)
        sim.add_query(
            "mono", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=qpos))
        )
        sim.execute_queries()
        assert set(sim.query("mono").answer) == brute_mono_rnn(
            sim.grid.positions_snapshot(), qpos
        )
        invalidations = sim.batch.context.invalidations
        # Jitter object 0 within its cell (x in [0.5, 0.75)): object 1's
        # NN flips from 0 to the query, so the true answer changes while
        # cell membership doesn't.
        cell_before = sim.grid.cell_of(0)
        feed.pending = TickEvents(moves=[(0, (0.70, 0.50))], inserts=[], removes=[])
        sim.step()
        assert sim.grid.cell_of(0) == cell_before
        expected = brute_mono_rnn(sim.grid.positions_snapshot(), qpos)
        assert set(sim.query("mono").answer) == expected
        assert 1 in expected  # the answer genuinely changed with the move
        assert sim.batch.context.invalidations > invalidations
