"""Differential runner: lockstep execution, reporting, obs counters."""

import random
from dataclasses import replace

import pytest

from repro import obs
from repro.fuzz.runner import (
    ORACLE,
    PARTICIPANTS,
    Divergence,
    FuzzReport,
    Participant,
    run_fuzz,
    run_scenario,
)
from repro.fuzz.scenario import Scenario, make_scenario
from repro.geometry.point import Point
from repro.queries.base import QueryFootprint
from repro.serving import ShardCluster


def _tiny_scenario(mode="mono", k=1, baseline=None, script=None):
    return Scenario(
        seed=0,
        index=0,
        mode=mode,
        k=k,
        grid_size=4,
        extent=(0.0, 0.0, 1.0, 1.0),
        motion="walk",
        n_objects=3,
        n_ticks=2,
        move_fraction=1.0,
        a_fraction=0.5,
        moving_query=False,
        query_point=(0.5, 0.5),
        baseline=baseline,
        script=script,
    )


class TestRunScenario:
    def test_clean_scenario_is_ok_and_scripted(self):
        sc = _tiny_scenario(
            script={
                "initial": [[0, 0.2, 0.2, 0], [1, 0.8, 0.8, 0], [2, 0.4, 0.6, 0]],
                "ticks": [
                    {"moves": [[0, 0.3, 0.3]], "inserts": [], "removes": []},
                    {"moves": [[1, 0.7, 0.1]], "inserts": [], "removes": []},
                ],
            }
        )
        result = run_scenario(sc)
        assert result.ok
        assert result.ticks == 2
        assert result.scenario.script is not None

    def test_result_is_deterministic(self):
        sc = make_scenario(0, 0)
        one = run_scenario(sc)
        two = run_scenario(sc)
        assert one.scenario.to_dict() == two.scenario.to_dict()
        assert [d.to_dict() for d in one.divergences] == [
            d.to_dict() for d in two.divergences
        ]

    def test_obs_counters_published(self):
        _, registry = obs.enable()
        try:
            before = registry.counter("fuzz_scenarios_total").value
            run_scenario(make_scenario(0, 0))
            assert registry.counter("fuzz_scenarios_total").value == before + 1
        finally:
            obs.disable(clear=True)


_PLANTED = "planted"


def _plant(monkeypatch, row, corrupt):
    """Call ``corrupt(sim, metrics)`` after every incremental tick of the
    simulator the lockstep builds for ``row``, and of no other."""
    build = Participant.simulator

    def simulator(self, generator, **kwargs):
        sim = build(self, generator, **kwargs)
        if self is row:
            step = sim.step

            def planted_step():
                out = step()
                corrupt(sim, out)
                return out

            sim.step = planted_step
        return sim

    monkeypatch.setattr(Participant, "simulator", simulator)


def _wrong_answer(sim, out):
    out["igern"] = replace(out["igern"], answer=out["igern"].answer | {_PLANTED})


def _moved_object(sim, out):
    grid = sim.grid
    oid = min(grid.positions_snapshot(), key=repr)
    e = grid.extent
    grid.move(oid, (e.xmin + 0.123 * e.width, e.ymin + 0.321 * e.height))


def _unsound_state(sim, out):
    sim.query("igern")._state.answer.add(_PLANTED)


def _empty_footprint(sim, out):
    sim.scheduler.update_footprint("igern", QueryFootprint(frozenset(), frozenset()))


def _extra_candidate(sim, out):
    sim.query("igern")._state.monitored[_PLANTED] = Point(0.0, 0.0)


def _small_scenario():
    """Mono, k=1: twelve objects on a 4x4 grid, four ticks of moves."""
    rng = random.Random(3)
    script = {
        "initial": [[i, rng.random(), rng.random(), 0] for i in range(12)],
        "ticks": [
            {
                "moves": [[i, rng.random(), rng.random()] for i in range(0, 12, 3)],
                "inserts": [],
                "removes": [],
            }
            for _ in range(4)
        ],
    }
    return replace(_tiny_scenario(script=script), n_objects=12, n_ticks=4)


def _run(monkeypatch, row, corrupt):
    _plant(monkeypatch, row, corrupt)
    return run_scenario(_small_scenario()).divergences


class TestEveryRowIsLive:
    """Each check of the lockstep table fires on each row it covers:
    one participant at a time is corrupted, the others left alone."""

    @pytest.mark.parametrize("row", PARTICIPANTS, ids=lambda row: row.side)
    def test_wrong_answer_reported_under_the_rows_kind(self, row, monkeypatch):
        divergences = _run(monkeypatch, row, _wrong_answer)
        planted = [d for d in divergences if _PLANTED in d.actual]
        assert planted, "the planted answer went unnoticed"
        assert {d.kind for d in planted} == {row.kind}
        assert {d.detail for d in planted} == {row.detail}
        assert {d.name for d in planted} == {"igern"}
        if row is not ORACLE:
            # Every other side agrees with the oracle side: only the
            # planted row diverges.
            assert {d.kind for d in divergences} == {row.kind}

    @pytest.mark.parametrize("row", PARTICIPANTS[1:], ids=lambda row: row.side)
    def test_moved_object_reported_as_grid_sync(self, row, monkeypatch):
        divergences = _run(monkeypatch, row, _moved_object)
        assert {d.name for d in divergences if d.kind == "grid-sync"} == {
            f"grid[{row.side}]"
        }

    @pytest.mark.parametrize("row", PARTICIPANTS, ids=lambda row: row.side)
    def test_state_invariants_checked_where_the_row_asks(self, row, monkeypatch):
        divergences = _run(monkeypatch, row, _unsound_state)
        sites = {d.name for d in divergences if d.kind == "invariant"}
        assert sites == ({f"igern[{row.side}]"} if row.invariants else set())

    @pytest.mark.parametrize(
        "row",
        [row for row in PARTICIPANTS if row.options.get("scheduler")],
        ids=lambda row: row.side,
    )
    def test_footprints_checked_where_the_row_asks(self, row, monkeypatch):
        divergences = _run(monkeypatch, row, _empty_footprint)
        # The stale footprint then skips the query, so its state lags
        # and state invariants may fire too; only footprint sites count.
        sites = {d.name for d in divergences if d.name.startswith("footprint:")}
        expected = {f"footprint:igern[{row.side}]"} if row.footprints else set()
        assert sites == expected

    @pytest.mark.parametrize(
        "row",
        [row for row in PARTICIPANTS if row.monitored_as is not None],
        ids=lambda row: row.side,
    )
    def test_monitored_set_compared_with_its_reference(self, row, monkeypatch):
        divergences = _run(monkeypatch, row, _extra_candidate)
        monitored = [d for d in divergences if d.detail == row.monitored_detail]
        assert monitored and {d.kind for d in monitored} == {row.kind}
        assert all(_PLANTED in d.actual for d in monitored)


class TestServingParticipant:
    def _run(self, monkeypatch, tick):
        monkeypatch.setattr(ShardCluster, "tick", tick)
        return run_scenario(_small_scenario(), serving=True).divergences

    def test_wrong_answer_and_lease_state_reported(self, monkeypatch):
        original = ShardCluster.tick

        def tick(self, *args):
            result = original(self, *args)
            answer, skipped, reason = result.answers["igern"]
            result.answers["igern"] = (answer + (_PLANTED,), skipped, reason)
            result.leases[_PLANTED] = (0.0, False, False)
            return result

        serving = [d for d in self._run(monkeypatch, tick) if d.kind == "serving"]
        assert {d.name for d in serving} == {"igern", "leases"}

    def test_cluster_fault_reported(self, monkeypatch):
        def tick(self, *args):
            raise RuntimeError("planted cluster fault")

        divergences = self._run(monkeypatch, tick)
        assert {(d.kind, d.name, d.detail) for d in divergences} == {
            ("serving", "cluster", "planted cluster fault")
        }


class TestDivergence:
    def test_round_trip_and_describe(self):
        div = Divergence(
            kind="oracle",
            tick=3,
            name="igern",
            expected=[1, 2],
            actual=[1],
            detail="answer mismatch",
        )
        assert Divergence.from_dict(div.to_dict()) == div
        text = div.describe()
        assert "[oracle]" in text and "tick 3" in text and "igern" in text


class TestFuzzReport:
    def test_record_tracks_coverage_and_failures(self):
        report = FuzzReport(seed=0)
        ok = run_scenario(make_scenario(0, 0))
        report.record(ok)
        assert report.scenarios == 1
        assert report.ok
        bad = run_scenario(make_scenario(0, 1))
        bad.divergences.append(
            Divergence(kind="oracle", tick=0, name="igern", expected=[], actual=[1])
        )
        report.record(bad)
        assert not report.ok
        assert report.divergences == 1
        assert report.coverage["mode"] == {"mono": 1, "bi": 1}
        summary = report.summary()
        assert "2 scenarios" in summary
        assert "FAIL" in summary


class TestRunFuzz:
    def test_requires_some_budget(self):
        with pytest.raises(ValueError):
            run_fuzz(seed=0)

    def test_short_run_is_clean_and_covers_both_modes(self):
        report = run_fuzz(seed=0, max_scenarios=4)
        assert report.ok
        assert report.scenarios == 4
        assert set(report.coverage["mode"]) == {"mono", "bi"}

    def test_zero_time_budget_runs_nothing(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0])
        report = run_fuzz(seed=0, budget_seconds=0.5, clock=lambda: next(ticks))
        assert report.scenarios == 0
