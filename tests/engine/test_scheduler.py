"""Correctness of the event-driven tick scheduler.

The skip decision must be *conservative*: a simulator with the scheduler
enabled has to produce bit-identical per-tick answers to one evaluating
every query every tick (the oracle).  The lockstep matrix below runs the
two configurations over the same workloads — monochromatic and
bichromatic, k = 1 and k > 1, light and heavy movement, population churn,
and a moving query object — and compares every answer of every tick.

The unit tests then pin the mechanism itself: quiet ticks are skipped, an
object entering a footprint cell forces re-evaluation, resumed queries
are always re-evaluated, and the scheduler's reverse indices stay
consistent under footprint churn.
"""

from __future__ import annotations

import pytest

from repro.engine.metrics import TickMetrics
from repro.engine.scheduler import TickScheduler
from repro.engine.simulation import Simulator
from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.geometry.point import Point
from repro.grid.delta import TickDelta
from repro.leases import Lease
from repro.obs.ledger import REASON_FOOTPRINT_ENTER, REASON_OBJECT_MOVED
from repro.queries.base import QueryFootprint, QueryPosition
from repro.queries.brute import brute_mono_rnn
from repro.queries.igern_bi import IGERNBiQuery
from repro.queries.igern_mono import IGERNMonoQuery
from repro.motion.churn import ChurnRandomWalkGenerator


# ----------------------------------------------------------------------
# Lockstep oracle matrix
# ----------------------------------------------------------------------


def _register_queries(sim: Simulator, kind: str, k: int) -> None:
    """Identical query setup in both simulators (same seed → same ids)."""
    if kind == "mono":
        qid = central_object(sim)
        sim.add_query(
            "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid), k=k)
        )
    else:
        qid = central_object(sim, "A")
        sim.add_query(
            "q",
            IGERNBiQuery(sim.grid, QueryPosition(sim.grid, query_id=qid), k=k),
        )


def _assert_lockstep(sim_on: Simulator, sim_off: Simulator, n_ticks: int) -> None:
    assert sim_on.scheduler is not None
    assert sim_off.scheduler is None
    res_on = sim_on.run(n_ticks)
    res_off = sim_off.run(n_ticks)
    for name in res_off.names():
        answers_on = [t.answer for t in res_on[name].ticks]
        answers_off = [t.answer for t in res_off[name].ticks]
        assert answers_on == answers_off, f"answers diverged for {name!r}"
    # The oracle never skips; the scheduled run must account every tick
    # as either an evaluation or a skip.
    assert res_off.queries_skipped == 0
    total = sum(len(res_on[name].ticks) for name in res_on.names())
    assert res_on.queries_evaluated + res_on.queries_skipped == total


@pytest.mark.parametrize("move_fraction", [0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "kind,k",
    [("mono", 1), ("mono", 2), ("bi", 1), ("bi", 2)],
)
def test_lockstep_matrix(kind: str, k: int, move_fraction: float):
    """Scheduler on vs off: identical per-tick answers across the matrix.

    The query object is itself part of the moving population, so this
    also covers the moving-query case whenever the generator picks it.
    """
    spec = WorkloadSpec(
        n_objects=320,
        grid_size=24,
        seed=11,
        network="walk",
        move_fraction=move_fraction,
        bichromatic=(kind == "bi"),
    )
    sim_on = build_simulator(spec, scheduler=True)
    sim_off = build_simulator(spec, scheduler=False)
    _register_queries(sim_on, kind, k)
    _register_queries(sim_off, kind, k)
    _assert_lockstep(sim_on, sim_off, n_ticks=20)


@pytest.mark.parametrize("kind", ["mono", "bi"])
def test_lockstep_under_churn(kind: str):
    """Births and deaths flow through the batched delta identically."""
    categories = {"A": 0.4, "B": 0.6} if kind == "bi" else None

    def make_sim(scheduler: bool) -> Simulator:
        gen = ChurnRandomWalkGenerator(
            260,
            seed=5,
            step_sigma=0.012,
            birth_rate=0.04,
            death_rate=0.04,
            categories=categories,
        )
        sim = Simulator(gen, grid_size=20, scheduler=scheduler)
        # Fixed query position: churn may kill any moving query object.
        position = QueryPosition(sim.grid, fixed=(0.47, 0.53))
        if kind == "mono":
            sim.add_query("q", IGERNMonoQuery(sim.grid, position))
        else:
            sim.add_query("q", IGERNBiQuery(sim.grid, position))
        return sim

    _assert_lockstep(make_sim(True), make_sim(False), n_ticks=25)


def test_lockstep_multi_query():
    """Several heterogeneous queries share one batched update stream."""
    spec = WorkloadSpec(
        n_objects=400,
        grid_size=24,
        seed=3,
        network="walk",
        move_fraction=0.2,
        bichromatic=True,
    )

    def make_sim(scheduler: bool) -> Simulator:
        sim = build_simulator(spec, scheduler=scheduler)
        qid = central_object(sim, "A")
        sim.add_query(
            "bi1", IGERNBiQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
        )
        sim.add_query(
            "bi2",
            IGERNBiQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.25, 0.75))),
        )
        sim.add_query(
            "bi_k2",
            IGERNBiQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.6, 0.4)), k=2),
        )
        return sim

    _assert_lockstep(make_sim(True), make_sim(False), n_ticks=20)


# ----------------------------------------------------------------------
# Skip mechanics on a scripted workload
# ----------------------------------------------------------------------


class ScriptedGenerator:
    """Replays a fixed initial population and a per-tick move script."""

    def __init__(self, initial, script):
        self._initial = list(initial)
        self._script = [list(moves) for moves in script]

    def initial(self):
        return iter(self._initial)

    def step(self, dt):
        if self._script:
            return self._script.pop(0)
        return []


def _scripted_sim(script) -> Simulator:
    initial = [
        ("n1", Point(0.53, 0.50), 0),
        ("n2", Point(0.47, 0.50), 0),
        ("n3", Point(0.50, 0.53), 0),
        ("n4", Point(0.50, 0.47), 0),
        ("far", Point(0.95, 0.95), 0),
    ]
    sim = Simulator(ScriptedGenerator(initial, script), grid_size=16)
    sim.add_query(
        "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
    )
    return sim


def test_quiet_tick_is_skipped():
    """No movement at all → the query carries its answer at zero cost."""
    sim = _scripted_sim(script=[[]])
    sim.execute_queries()
    before = sim.query("q").answer
    metrics = sim.step()
    assert metrics["q"].skipped
    assert metrics["q"].wall_time == 0.0
    assert metrics["q"].ops == {}
    assert metrics["q"].answer == before
    assert sim.ticks_skipped == 1


def test_far_movement_outside_footprint_is_skipped():
    """An object moving within a far-away cell never touches the query."""
    sim = _scripted_sim(script=[[("far", Point(0.951, 0.951))]])
    sim.execute_queries()
    metrics = sim.step()
    assert metrics["q"].skipped


def test_object_entering_footprint_cell_triggers_evaluation():
    """The tentpole trigger: an enter event inside a monitored cell.

    The far object teleports next to the query; the tick must be
    evaluated (not skipped) and the fresh answer must match the
    exhaustive oracle, which now includes the newcomer.
    """
    sim = _scripted_sim(
        script=[
            [("far", Point(0.951, 0.951))],  # skipped warm-up tick
            [("far", Point(0.50, 0.505))],  # enters the alive region
        ]
    )
    sim.execute_queries()
    initial_answer = sim.query("q").answer
    assert "far" not in initial_answer

    assert sim.step()["q"].skipped
    metrics = sim.step()
    assert not metrics["q"].skipped

    positions = {oid: sim.grid.position(oid) for oid in sim.grid.objects()}
    oracle = frozenset(brute_mono_rnn(positions, (0.5, 0.5)))
    assert metrics["q"].answer == oracle
    assert "far" in metrics["q"].answer


def test_monitored_object_movement_triggers_evaluation():
    """A candidate moving — even within its own cell — re-evaluates."""
    sim = _scripted_sim(script=[[("n1", Point(0.531, 0.501))]])
    sim.execute_queries()
    metrics = sim.step()
    assert not metrics["q"].skipped


def test_resume_forces_evaluation():
    """Movement during a pause voids the stale skip evidence."""
    sim = _scripted_sim(script=[[], [], []])
    sim.execute_queries()
    sim.pause_query("q")
    sim.step()
    sim.resume_query("q")
    metrics = sim.step()
    assert not metrics["q"].skipped
    # Once re-evaluated, quiet ticks skip again.
    assert sim.step()["q"].skipped


def test_bichromatic_k2_query_gets_a_footprint():
    """k > 1 regions are bounded by their dense alive count, not by the
    whole grid, so a tight bichromatic k = 2 region gets a footprint."""
    spec = WorkloadSpec(
        n_objects=300, grid_size=16, seed=7, bichromatic=True, a_fraction=0.5
    )
    sim = build_simulator(spec)
    qid = central_object(sim, "A")
    query = IGERNBiQuery(sim.grid, QueryPosition(sim.grid, query_id=qid), k=2)
    sim.add_query("bi-k2", query)
    sim.execute_queries()
    sim.step()
    assert query.footprint() is not None


def test_mono_footprint_lists_certificate_witnesses_not_their_balls():
    """A monochromatic footprint holds every certificate witness as an
    object, and the witness balls of the answers only."""
    spec = WorkloadSpec(n_objects=300, grid_size=16, seed=7)
    sim = build_simulator(spec)
    query = IGERNMonoQuery(
        sim.grid, QueryPosition(sim.grid, query_id=central_object(sim))
    )
    sim.add_query("mono", query)
    sim.execute_queries()
    sim.step()
    state = query._state
    fp = query.footprint()
    assert fp is not None
    assert state.certificates, "no non-answer candidate was certified"
    assert set(state.certificates).isdisjoint(state.answer)
    assert set(state.certificates) | state.answer == set(state.monitored)
    assert state.certificate_witnesses() <= fp.objects
    assert fp.cells == state.footprint_cells(sim.grid)


def test_scheduler_off_never_skips():
    sim = Simulator(
        ScriptedGenerator([("a", Point(0.2, 0.2), 0)], [[], []]),
        grid_size=8,
        scheduler=False,
    )
    sim.add_query(
        "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
    )
    result = sim.run(2)
    assert result.queries_skipped == 0
    assert all(not t.skipped for t in result["q"].ticks)


def test_removed_query_is_forgotten_by_scheduler():
    sim = _scripted_sim(script=[[]])
    sim.execute_queries()
    assert sim.scheduler.footprint("q") is not None
    sim.remove_query("q")
    assert sim.scheduler.footprint("q") is None
    assert sim.step() == {}


# ----------------------------------------------------------------------
# TickScheduler unit behavior
# ----------------------------------------------------------------------


def _delta(moved=(), touched=(), inserted=(), removed=()) -> TickDelta:
    return TickDelta(
        moved=set(moved),
        inserted=set(inserted),
        removed=set(removed),
        touched_cells=set(touched),
    )


class TestTickScheduler:
    def test_cell_hit(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset())
        )
        assert sched.affected(_delta(moved={"x"}, touched={(1, 1)})) == {"q"}
        assert sched.affected(_delta(moved={"x"}, touched={(5, 5)})) == set()

    def test_object_hit_without_cell_overlap(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset(), objects=frozenset({"v"}))
        )
        assert sched.affected(_delta(moved={"v"}, touched={(9, 9)})) == {"q"}
        assert sched.affected(_delta(removed={"v"})) == {"q"}
        assert sched.affected(_delta(inserted={"v"})) == {"q"}
        assert sched.affected(_delta(moved={"w"}, touched={(9, 9)})) == set()

    def test_footprint_diffing_unindexes_old_entries(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q",
            QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset({"a"})),
        )
        sched.update_footprint(
            "q",
            QueryFootprint(cells=frozenset({(2, 2)}), objects=frozenset({"b"})),
        )
        assert sched.affected(_delta(moved={"a"}, touched={(1, 1)})) == set()
        assert sched.affected(_delta(moved={"b"}, touched={(2, 2)})) == {"q"}

    def test_none_footprint_is_always_mode(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset())
        )
        sched.update_footprint("q", None)
        assert sched.footprint("q") is None
        # Not a footprint hit — the engine evaluates it unconditionally.
        assert sched.affected(_delta(moved={"x"}, touched={(1, 1)})) == set()

    def test_busy_tick_path_matches_quiet_path(self):
        """Both iteration sides of affected() agree on the same delta."""
        sched = TickScheduler()
        sched.update_footprint(
            "a",
            QueryFootprint(cells=frozenset({(0, 0)}), objects=frozenset({"x"})),
        )
        sched.update_footprint(
            "b",
            QueryFootprint(cells=frozenset({(3, 3)}), objects=frozenset()),
        )
        busy = _delta(
            moved={"x", "y", "z"},
            touched={(i, i) for i in range(10)},
        )
        assert sched.affected(busy) == {"a", "b"}

    def test_remove_query(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset({"a"}))
        )
        sched.remove_query("q")
        assert sched.affected(_delta(moved={"a"}, touched={(1, 1)})) == set()


def _fp(cells=(), objects=()) -> QueryFootprint:
    return QueryFootprint(cells=frozenset(cells), objects=frozenset(objects))


class TestAffectedReasons:
    """``affected_reasons`` is the scheduler's one matcher: both
    iteration sides, both object-index sides, and the reason each hit
    carries."""

    #: Footprints registered by :meth:`_sched`: four indexed cells.
    FOOTPRINTS = {
        "cell": _fp(cells={(1, 1)}),
        "obj": _fp(cells={(4, 4)}, objects={"v"}),
        "both": _fp(cells={(2, 2)}, objects={"w"}),
        "idle": _fp(cells={(7, 7)}, objects={"u"}),
    }

    def _sched(self) -> TickScheduler:
        sched = TickScheduler()
        for name, fp in self.FOOTPRINTS.items():
            sched.update_footprint(name, fp)
        # Same footprint as "cell"/"obj", but in always-evaluate mode or
        # removed: neither may ever be reported as a footprint hit.
        sched.update_footprint("always", _fp(cells={(1, 1)}, objects={"v"}))
        sched.update_footprint("always", None)
        sched.update_footprint("gone", _fp(cells={(1, 1)}, objects={"v"}))
        sched.remove_query("gone")
        return sched

    def test_quiet_and_busy_branches_agree(self):
        sched = self._sched()
        filler_cells = {(10 + i, 10 + i) for i in range(10)}
        filler_ids = {f"m{i}" for i in range(10)}
        quiet = _delta(moved={"v", "w"}, touched={(1, 1), (2, 2)})
        # More movers than indexed objects: the object side iterates
        # the index instead of the ids.
        many_movers = _delta(
            moved={"v", "w"} | filler_ids, touched={(1, 1), (2, 2)}
        )
        # More touched cells than indexed cells: each footprint is
        # tested against the delta instead.
        busy = _delta(
            moved={"v", "w"} | filler_ids,
            touched={(1, 1), (2, 2)} | filler_cells,
        )
        assert len(quiet.touched_cells) <= 4 < len(busy.touched_cells)
        expected = {
            "cell": REASON_FOOTPRINT_ENTER,
            "obj": REASON_OBJECT_MOVED,
            "both": REASON_FOOTPRINT_ENTER,
        }
        for delta in (quiet, many_movers, busy):
            assert sched.affected_reasons(delta) == expected
            assert sched.affected(delta) == set(expected)

    def test_cell_reason_wins_over_object_reason(self):
        sched = self._sched()
        # "both" is hit by its cell and by its object; "obj" by its
        # object only (its cell is untouched).
        delta = _delta(moved={"w", "v"}, touched={(2, 2), (9, 9)})
        assert sched.affected_reasons(delta) == {
            "both": REASON_FOOTPRINT_ENTER,
            "obj": REASON_OBJECT_MOVED,
        }
        # An inserted or removed monitored object is an object hit too.
        for delta in (_delta(inserted={"u"}), _delta(removed={"u"})):
            assert sched.affected_reasons(delta) == {"idle": REASON_OBJECT_MOVED}

    def test_always_evaluate_and_removed_queries_never_appear(self):
        sched = self._sched()
        filler_cells = {(10 + i, 10 + i) for i in range(10)}
        for touched in ({(1, 1)}, {(1, 1)} | filler_cells):
            delta = _delta(moved={"v"}, touched=touched)
            reasons = sched.affected_reasons(delta)
            assert "always" not in reasons and "gone" not in reasons
            assert sched.affected(delta) == set(reasons)


def _lease(query_oid=None) -> Lease:
    return Lease(
        qpos=(0.5, 0.5),
        query_budget=1.0,
        object_budget=10.0,
        answer=frozenset(),
        query_oid=query_oid,
    )


def _charged(displacement: float) -> float:
    """What ``LeaseState.absorb`` adds for one tick's displacement."""
    return displacement * (1.0 + 1e-12)


class TestAbsorbDisplacements:
    def _sched(self) -> TickScheduler:
        sched = TickScheduler()
        sched.update_lease("fixed", _lease())
        sched.update_lease("rides-top", _lease(query_oid="a"))
        sched.update_lease("rides-other", _lease(query_oid="c"))
        return sched

    def test_charges_largest_displacement_of_the_other_objects(self):
        sched = self._sched()
        sched.absorb_displacements({"a": 0.5, "b": 0.25, "c": 0.125}, False)
        states = sched.lease_states()
        assert states["fixed"].spent == _charged(0.5)
        assert states["rides-other"].spent == _charged(0.5)
        # Its own query object is the largest mover: the second largest.
        assert states["rides-top"].spent == _charged(0.25)
        assert not any(state.broken for state in states.values())

    def test_churn_breaks_every_lease(self):
        sched = self._sched()
        sched.absorb_displacements({"b": 0.25}, True)
        states = sched.lease_states()
        assert all(state.broken for state in states.values())
        assert all(state.spent == 0.0 for state in states.values())

    def test_empty_map_charges_nothing(self):
        sched = self._sched()
        sched.absorb_displacements({}, False)
        states = sched.lease_states()
        assert all(state.spent == 0.0 for state in states.values())
        assert not any(state.broken for state in states.values())


def test_tickmetrics_skip_accounting():
    m = TickMetrics(
        tick=3,
        wall_time=0.0,
        answer=frozenset({"a"}),
        monitored=2,
        region_cells=4,
        skipped=True,
    )
    assert m.skipped and m.answer_size == 1
