"""Hypothesis stateful tests: random operation sequences, exact answers.

Five state machines:

- :class:`GridIndexMachine` drives the grid index with random inserts,
  moves and removals and checks it against a dictionary model;
- :class:`ContinuousRNNMachine` interleaves arbitrary data mutations with
  incremental IGERN executions (mono and bi simultaneously) and checks
  both answers against the brute-force oracle after every step — the
  operational form of Theorems 1-4 under adversarial update sequences;
- :class:`SchedulerLockstepMachine` and :class:`BatchLockstepMachine`
  step one simulator per row of the fuzz lockstep table (scheduler off,
  scheduler on, batching, the mapping store, leases) over identical
  random ticks (movement, within-budget jitter, churn, pause/resume)
  and assert the answers never differ from the scheduler-off oracle
  side's or the brute force's — the footprint skip test must be
  conservative, batching answer-neutral, and a held lease must never
  certify a stale answer, under any event sequence.  The first
  monitors one query; the second three overlapping ones, so the
  per-tick context genuinely memoizes across them;
- :class:`StoreLockstepMachine` drives the columnar and mapping storage
  backends through identical mutation sequences (single ops and
  ``apply_updates`` batches) and asserts observational identity
  plus the columnar store's internal row/bucket/free-list invariants at
  every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.bi import BiIGERN
from repro.core.mono import MonoIGERN
from repro.fuzz.runner import ORACLE, PARTICIPANTS
from repro.grid.cell import cell_key_of
from repro.grid.index import GridIndex
from repro.grid.search import GridSearch
from repro.motion.churn import TickEvents
from repro.queries import QueryPosition
from repro.queries.brute import BruteForceMonoQuery, brute_bi_rnn, brute_mono_rnn
from repro.serving import QuerySpec, build_query

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
    lambda v: round(v, 6)
)
point = st.tuples(coord, coord)


class GridIndexMachine(RuleBasedStateMachine):
    """The grid index must agree with a plain dict model at all times."""

    def __init__(self):
        super().__init__()
        self.grid = GridIndex(7)
        self.model = {}
        self.next_id = 0

    @rule(pos=point, category=st.sampled_from([0, "A", "B"]))
    def insert(self, pos, category):
        oid = self.next_id
        self.next_id += 1
        self.grid.insert(oid, pos, category)
        self.model[oid] = (pos, category)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), pos=point)
    def move(self, data, pos):
        oid = data.draw(st.sampled_from(sorted(self.model)))
        self.grid.move(oid, pos)
        self.model[oid] = (pos, self.model[oid][1])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(sorted(self.model)))
        returned = self.grid.remove(oid)
        expected = self.model.pop(oid)[0]
        assert (returned.x, returned.y) == expected

    @invariant()
    def sizes_match(self):
        assert len(self.grid) == len(self.model)

    @invariant()
    def positions_and_categories_match(self):
        for oid, (pos, category) in self.model.items():
            p = self.grid.position(oid)
            assert (p.x, p.y) == pos
            assert self.grid.category(oid) == category

    @invariant()
    def cell_membership_consistent(self):
        for oid, (pos, _) in self.model.items():
            key = cell_key_of(self.grid.extent, self.grid.size, pos)
            assert self.grid.cell_of(oid) == key
            assert oid in set(self.grid.objects_in_cell(key))

    @invariant()
    def no_ghost_objects_in_cells(self):
        listed = {
            oid
            for key in self.grid.occupied_cells()
            for oid in self.grid.objects_in_cell(key)
        }
        assert listed == set(self.model)


class ContinuousRNNMachine(RuleBasedStateMachine):
    """Arbitrary mutations; IGERN must match brute force after each."""

    def __init__(self):
        super().__init__()
        self.grid = GridIndex(6)
        self.next_id = 0
        self.qpos = (0.5, 0.5)
        self.mono = MonoIGERN(self.grid)
        self.bi = BiIGERN(self.grid)
        self.mono_state, _ = self.mono.initial(self.qpos)
        self.bi_state, _ = self.bi.initial(self.qpos)

    def _ids(self):
        return sorted(self.grid.objects(), key=repr)

    @rule(pos=point, category=st.sampled_from(["A", "B"]))
    def insert(self, pos, category):
        self.grid.insert(self.next_id, pos, category)
        self.next_id += 1

    @precondition(lambda self: len(self.grid) > 0)
    @rule(data=st.data(), pos=point)
    def move(self, data, pos):
        oid = data.draw(st.sampled_from(self._ids()))
        self.grid.move(oid, pos)

    @precondition(lambda self: len(self.grid) > 0)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(self._ids()))
        self.grid.remove(oid)

    @rule(pos=point)
    def move_query(self, pos):
        self.qpos = pos

    @invariant()
    def mono_matches_brute(self):
        self.mono.incremental(self.mono_state, self.qpos)
        expected = brute_mono_rnn(self.grid.positions_snapshot(), self.qpos)
        assert set(self.mono_state.answer) == expected

    @invariant()
    def bi_matches_brute(self):
        self.bi.incremental(self.bi_state, self.qpos)
        expected = brute_bi_rnn(
            self.grid.positions_snapshot("A"),
            self.grid.positions_snapshot("B"),
            self.qpos,
        )
        assert set(self.bi_state.answer) == expected


class _EventFeed:
    """Generator stub whose per-tick events are pushed by the machine.

    Implements the generator protocol the :class:`Simulator` expects
    (``initial`` plus ``step_events``), so one machine step can feed the
    exact same tick to the scheduler-on and scheduler-off simulators.
    """

    def __init__(self, initial):
        self._initial = list(initial)
        self.pending = TickEvents([], [], [])

    def initial(self):
        return list(self._initial)

    def step_events(self, dt: float = 1.0) -> TickEvents:
        events, self.pending = self.pending, TickEvents([], [], [])
        return events


class _TableLockstepMachine(RuleBasedStateMachine):
    """Every configuration of the fuzz lockstep table
    (:data:`repro.fuzz.runner.PARTICIPANTS`) stepped over identical
    random ticks.

    Ticks mix boundary-crossing moves, within-budget jitter (tiny
    displacements, so leases survive and the lease side's held path
    fires instead of every lease breaking), churn and empty ticks (the
    pure skip path), plus pause/resume of a registered query (pause
    drops its lease; resume forces re-evaluation).  Subclasses choose
    the initial objects and the queries (``_SPECS``, registered in every
    simulator) and assert their answers.
    """

    _INITIAL: list = []
    _SPECS: list = []

    def __init__(self):
        super().__init__()
        self.feeds = {}
        self.sims = {}
        for row in PARTICIPANTS:
            feed = _EventFeed(self._INITIAL)
            sim = row.simulator(feed, grid_size=6)
            self._register(row, sim)
            sim.execute_queries()
            self.feeds[row.side] = feed
            self.sims[row.side] = sim
        self.oracle = self.sims[ORACLE.side]
        self.alive = {oid for oid, _, _ in self._INITIAL}
        self.next_id = 10
        self.moves = {}
        self.inserts = []
        self.removes = set()
        self.paused = set()
        #: Answers go stale at pause and stay stale until the first tick
        #: after resume (which ``_force_eval`` guarantees is evaluated).
        self.stale = set()

    def _register(self, row, sim):
        for spec in self._SPECS:
            sim.add_query(spec.name, build_query(spec, sim, None))

    def _movable(self):
        return sorted(self.alive - self.removes)

    def _names(self):
        return [spec.name for spec in self._SPECS]

    @precondition(lambda self: self._movable())
    @rule(data=st.data(), pos=point)
    def queue_move(self, data, pos):
        oid = data.draw(st.sampled_from(self._movable()))
        self.moves[oid] = pos

    @rule(pos=point)
    def queue_insert(self, pos):
        self.inserts.append((self.next_id, pos, 0))
        self.next_id += 1

    @precondition(lambda self: self._movable())
    @rule(data=st.data())
    def queue_remove(self, data):
        oid = data.draw(st.sampled_from(self._movable()))
        self.removes.add(oid)
        self.moves.pop(oid, None)

    @precondition(lambda self: self._movable())
    @rule(
        data=st.data(),
        dx=st.floats(min_value=-1e-7, max_value=1e-7, allow_nan=False),
        dy=st.floats(min_value=-1e-7, max_value=1e-7, allow_nan=False),
    )
    def queue_jitter(self, data, dx, dy):
        """A displacement far inside any plausible lease budget — the
        rule that lets the lease side's held-skip path actually fire."""
        oid = data.draw(st.sampled_from(self._movable()))
        pos = self.oracle.grid.position(oid)
        self.moves[oid] = (
            min(1.0, max(0.0, pos.x + dx)),
            min(1.0, max(0.0, pos.y + dy)),
        )

    @precondition(lambda self: len(self.paused) < len(self._SPECS))
    @rule(data=st.data())
    def pause(self, data):
        name = data.draw(st.sampled_from(sorted(set(self._names()) - self.paused)))
        for sim in self.sims.values():
            sim.pause_query(name)
        self.paused.add(name)
        self.stale.add(name)

    @precondition(lambda self: self.paused)
    @rule(data=st.data())
    def resume(self, data):
        name = data.draw(st.sampled_from(sorted(self.paused)))
        for sim in self.sims.values():
            sim.resume_query(name)
        self.paused.discard(name)

    @rule()
    def tick(self):
        events = TickEvents(
            moves=sorted(self.moves.items()),
            inserts=list(self.inserts),
            removes=sorted(self.removes),
        )
        self.alive -= self.removes
        self.alive.update(oid for oid, _, _ in self.inserts)
        self.moves, self.inserts, self.removes = {}, [], set()
        for feed in self.feeds.values():
            feed.pending = events
        for sim in self.sims.values():
            sim.step()
        self.stale &= self.paused

    @invariant()
    def grids_in_sync(self):
        snapshot = self.oracle.grid.positions_snapshot()
        for side, sim in self.sims.items():
            assert sim.grid.positions_snapshot() == snapshot, side


class SchedulerLockstepMachine(_TableLockstepMachine):
    """One monitored query: skipping, batching, the mapping layout and
    held leases must never change its answer under any event sequence.

    After every tick every side's answer must equal the oracle side's,
    and (unless paused or stale) the brute-force answer.  The oracle
    side also hosts a brute-force executor.
    """

    _INITIAL = [
        (0, (0.52, 0.48), 0),
        (1, (0.25, 0.70), 0),
        (2, (0.80, 0.20), 0),
        (3, (0.10, 0.10), 0),
        (4, (0.65, 0.85), 0),
    ]
    _QPOS = (0.5, 0.5)
    _SPECS = [QuerySpec(name="mono", point=_QPOS)]

    def _register(self, row, sim):
        super()._register(row, sim)
        if row is ORACLE:
            sim.add_query(
                "brute",
                BruteForceMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=self._QPOS)),
            )

    @invariant()
    def answers_identical(self):
        off = self.oracle.query("mono").answer
        for side, sim in self.sims.items():
            # The lease side may have skipped the evaluation entirely on
            # a held lease — its answer must still be the exact one.
            assert sim.query("mono").answer == off, side
        if "mono" in self.stale:
            return
        expected = brute_mono_rnn(self.oracle.grid.positions_snapshot(), self._QPOS)
        assert set(off) == expected


class BatchLockstepMachine(_TableLockstepMachine):
    """Three overlapping queries: batching must stay answer-neutral.

    The queries sit close together so their footprints overlap and the
    shared tick context actually serves cross-query hits; pausing one
    mixes batched, skipped and lease-dropped evaluations within the same
    tick, and held leases skip publications for some queries while
    others evaluate batched.
    """

    _INITIAL = [
        (0, (0.52, 0.48), 0),
        (1, (0.47, 0.53), 0),
        (2, (0.80, 0.20), 0),
        (3, (0.55, 0.55), 0),
        (4, (0.30, 0.70), 0),
    ]
    _SPECS = [
        QuerySpec(name="q0", point=(0.50, 0.50)),
        QuerySpec(name="q1", point=(0.53, 0.47)),
        QuerySpec(name="q2", point=(0.45, 0.55)),
    ]

    @invariant()
    def answers_identical_and_exact(self):
        snapshot = self.oracle.grid.positions_snapshot()
        for spec in self._SPECS:
            off = self.oracle.query(spec.name).answer
            for side, sim in self.sims.items():
                # Held-lease skips must serve the exact answer verbatim.
                assert sim.query(spec.name).answer == off, (side, spec.name)
            if spec.name in self.stale:
                continue
            assert set(off) == brute_mono_rnn(snapshot, spec.point)


class StoreLockstepMachine(RuleBasedStateMachine):
    """The two storage backends driven in lockstep must be
    observationally identical at every step.

    Mutations arrive both one at a time (``insert``/``move``/``remove``)
    and as ``apply_updates`` batches — the engine's path, whose deltas'
    moved ids and touched cells must agree too.  The batches stay below
    the bulk-move threshold, so the columnar bulk-move kernel is not
    reached here; ``tests/grid/test_delta.py`` checks it against serial
    moves.  After every step the backends must agree on positions,
    per-cell membership and a search probe, and the columnar layout
    must pass its full internal consistency check (rows, buckets,
    slots, free list, category sets)."""

    _KINDS = ("columnar", "mapping")

    def __init__(self):
        super().__init__()
        self.grids = {kind: GridIndex(5, store=kind) for kind in self._KINDS}
        self.searches = {
            kind: GridSearch(grid) for kind, grid in self.grids.items()
        }
        self.live = []
        self.next_id = 0

    @rule(pos=point, category=st.sampled_from([None, "A", "B"]))
    def insert(self, pos, category):
        oid = self.next_id
        self.next_id += 1
        self.live.append(oid)
        for grid in self.grids.values():
            grid.insert(oid, pos, category)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), pos=point)
    def move(self, data, pos):
        oid = data.draw(st.sampled_from(self.live))
        for grid in self.grids.values():
            grid.move(oid, pos)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(self.live))
        self.live.remove(oid)
        for grid in self.grids.values():
            grid.remove(oid)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def batch_tick(self, data):
        targets = data.draw(
            st.lists(st.sampled_from(self.live), unique=True, max_size=6)
        )
        moves = [(oid, data.draw(point)) for oid in targets]
        inserts = []
        for pos in data.draw(st.lists(point, max_size=2)):
            inserts.append((self.next_id, pos, None))
            self.live.append(self.next_id)
            self.next_id += 1
        deltas = {}
        for kind, grid in self.grids.items():
            delta = grid.apply_updates(moves, inserts=inserts)
            deltas[kind] = (
                frozenset(delta.moved),
                frozenset(delta.touched_cells),
            )
        assert deltas["columnar"] == deltas["mapping"]

    @invariant()
    def backends_observationally_identical(self):
        ref = self.grids["mapping"]
        snap = ref.positions_snapshot()
        cells = {
            key: frozenset(ref.objects_in_cell(key))
            for key in ref.occupied_cells()
        }
        grid = self.grids["columnar"]
        assert grid.positions_snapshot() == snap
        assert {
            key: frozenset(grid.objects_in_cell(key))
            for key in grid.occupied_cells()
        } == cells

    @invariant()
    def columnar_internal_consistency(self):
        self.grids["columnar"]._store.check_invariants()

    @precondition(lambda self: self.live)
    @invariant()
    def search_probe_identical(self):
        probes = {}
        for kind, search in self.searches.items():
            rows = []
            count = search.count_closer_than((0.4, 0.6), 0.09)
            listed = search.count_closer_than((0.4, 0.6), 0.09, witnesses=rows)
            probes[kind] = (count, listed, sorted(rows))
        assert probes["columnar"] == probes["mapping"]


TestGridIndexStateful = GridIndexMachine.TestCase
TestGridIndexStateful.settings = settings(
    max_examples=30, stateful_step_count=30
)

TestContinuousRNNStateful = ContinuousRNNMachine.TestCase
TestContinuousRNNStateful.settings = settings(
    max_examples=25, stateful_step_count=25
)

TestSchedulerLockstep = SchedulerLockstepMachine.TestCase
TestSchedulerLockstep.settings = settings(
    max_examples=20, stateful_step_count=30
)

TestBatchLockstep = BatchLockstepMachine.TestCase
TestBatchLockstep.settings = settings(
    max_examples=15, stateful_step_count=25
)

TestStoreLockstep = StoreLockstepMachine.TestCase
TestStoreLockstep.settings = settings(
    max_examples=25, stateful_step_count=30
)
