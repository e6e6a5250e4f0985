"""Tests for the tick flight recorder: digest ring, anomaly detection,
and the replayable incident bundle."""

import json

import pytest

from repro.engine.simulation import Simulator
from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.fuzz import replay_artifact
from repro.fuzz.corpus import ARTIFACT_VERSION as FUZZ_ARTIFACT_VERSION
from repro.fuzz.scenario import MOTIONS
from repro.motion.churn import TickEvents
from repro.obs.flight import (
    ARTIFACT_VERSION,
    FLIGHT_MOTION,
    FlightRecorder,
    TickDigest,
)
from repro.queries.base import QueryPosition
from repro.queries.igern_mono import IGERNMonoQuery


def _digest(tick, latency, **kw):
    defaults = dict(evaluated=1, skipped=0, moves=4, inserts=0, removes=0)
    defaults.update(kw)
    return TickDigest(tick=tick, latency=latency, **defaults)


def _small_sim(flight):
    sim = build_simulator(
        WorkloadSpec(n_objects=60, grid_size=8, seed=3, network="walk")
    )
    sim.ledger = None
    sim.flight = flight
    qid = central_object(sim)
    sim.add_query(
        "igern", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
    )
    sim.execute_queries()
    return sim


class TestDigest:
    def test_to_dict_omits_absent_anomaly(self):
        d = _digest(3, 0.01, top=[("igern", 0.004)])
        out = d.to_dict()
        assert "anomaly" not in out
        assert out["top"] == [["igern", 0.004]]
        d.anomaly = "flagged"
        assert d.to_dict()["anomaly"] == "flagged"


class TestConstruction:
    def test_window_floor(self):
        with pytest.raises(ValueError):
            FlightRecorder(window=1)

    def test_latency_factor_floor(self):
        with pytest.raises(ValueError):
            FlightRecorder(latency_factor=1.0)

    def test_artifact_version_matches_fuzz_corpus(self):
        assert ARTIFACT_VERSION == FUZZ_ARTIFACT_VERSION

    def test_flight_motion_tag_stays_out_of_sampling(self):
        assert FLIGHT_MOTION not in MOTIONS


class TestAnomalyDetection:
    def test_digest_ring_is_bounded(self):
        rec = FlightRecorder(window=4)
        for tick in range(10):
            rec.observe(_digest(tick, 0.01))
        assert len(rec.digests) == 4
        assert [d.tick for d in rec.digests] == [6, 7, 8, 9]

    def test_latency_spike_triggers_after_arming(self):
        rec = FlightRecorder(window=16, latency_factor=2.0, min_history=3)
        # Not armed yet: even a huge tick passes silently.
        assert rec.observe(_digest(0, 5.0)) is None
        for tick in range(1, 4):
            assert rec.observe(_digest(tick, 0.01)) is None
        anomaly = rec.observe(_digest(4, 1.0))
        assert anomaly is not None and "rolling median" in anomaly
        assert rec.digests[-1].anomaly == anomaly

    def test_normal_latency_stays_quiet(self):
        rec = FlightRecorder(window=16, latency_factor=8.0, min_history=2)
        for tick in range(10):
            assert rec.observe(_digest(tick, 0.01)) is None
        assert rec.rolling_median() == pytest.approx(0.01)

    def test_flag_marks_exactly_one_tick(self):
        rec = FlightRecorder(min_history=1000)
        rec.flag("operator request")
        assert rec.observe(_digest(0, 0.01)) == "operator request"
        assert rec.observe(_digest(1, 0.01)) is None


class TestCheckpointWindow:
    def test_capture_without_events_returns_none(self):
        rec = FlightRecorder()
        sim = _small_sim(rec)  # no step yet: checkpoint exists, no events
        assert rec.capture(sim, "too early") is None

    def test_events_only_recorded_with_replayable_delta(self):
        rec = FlightRecorder(window=4)
        rec._checkpoint = {}
        rec.observe(_digest(0, 0.01), moves=None)
        assert rec._events == []
        rec.observe(_digest(1, 0.01), moves=[("o", None)])
        assert len(rec._events) == 1

    def test_checkpoint_refreshes_once_per_window(self):
        rec = FlightRecorder(window=4, min_history=1000)
        sim = _small_sim(rec)
        for _ in range(6):
            sim.step()
        # Window rolled once at tick 5: 4 events filed, then reset to 2.
        assert len(rec._events) == 2
        assert rec._checkpoint_tick == 4
        assert len(rec._checkpoint) == 60


class TestIncidentBundle:
    def test_induced_spike_produces_replayable_bundle(self, tmp_path):
        rec = FlightRecorder(
            window=8, min_history=1000, incident_dir=tmp_path / "incidents"
        )
        sim = _small_sim(rec)
        for _ in range(5):
            sim.step()
        rec.flag("test-induced spike")
        sim.step()

        assert len(rec.incidents) == 1
        bundle = rec.incidents[0]
        assert bundle["version"] == ARTIFACT_VERSION
        assert bundle["flight"]["reason"] == "test-induced spike"
        assert bundle["flight"]["tick"] == 6
        assert bundle["divergences"] == []
        scenario = bundle["scenario"]
        assert scenario["mode"] == "mono"
        assert scenario["motion"] == FLIGHT_MOTION
        assert scenario["n_objects"] == 60
        assert len(scenario["script"]["initial"]) == 60
        assert len(scenario["script"]["ticks"]) == scenario["n_ticks"]
        assert scenario["moving_query"]
        assert scenario["script"]["query_id"] is not None

        [path] = rec.incident_paths
        assert path.name == "incident-t6.json"
        assert json.loads(path.read_text()) == bundle

        # The bundle replays deterministically under the differential
        # harness: scheduler-on/off lockstep plus the brute-force oracle
        # agree, twice in a row.
        first = replay_artifact(path)
        second = replay_artifact(path)
        assert first.divergences == []
        assert second.divergences == []
        assert first.scenario.to_dict() == second.scenario.to_dict()

    def test_incident_ring_is_bounded(self):
        rec = FlightRecorder(window=4, min_history=1000, max_incidents=2)
        sim = _small_sim(rec)
        for spike in range(3):
            sim.step()
            rec.flag(f"spike {spike}")
            sim.step()
        assert len(rec.incidents) == 2
        assert rec.incidents[-1]["flight"]["reason"] == "spike 2"


class _TupleFeed:
    """Generator stub that hands the simulator plain ``(x, y)`` tuples,
    never Points: one move and one insert per tick, plus an optional
    move of an unknown object on a chosen tick."""

    def __init__(self, bad_tick=None):
        self.tick = 0
        self.bad_tick = bad_tick

    def initial(self):
        return [(i, (0.1 + 0.08 * i, 0.5), 0) for i in range(10)]

    def step_events(self, dt=1.0):
        self.tick += 1
        moves = [(3, (0.3, 0.1 * self.tick))]
        if self.tick == self.bad_tick:
            moves.append(("ghost", (0.5, 0.5)))
        inserts = [(100 + self.tick, (0.05 * self.tick, 0.75), 0)]
        return TickEvents(moves, inserts, [])


def _tuple_sim(rec, feed):
    sim = Simulator(feed, grid_size=4, ledger=False, flight=rec)
    sim.add_query(
        "igern",
        IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5))),
    )
    sim.execute_queries()
    return sim


class TestTuplePositions:
    def test_capture_reads_tuple_moves_and_inserts(self):
        rec = FlightRecorder(window=8, min_history=1000)
        sim = _tuple_sim(rec, _TupleFeed())
        for _ in range(3):
            sim.step()
        bundle = rec.capture(sim, "tuple feed")
        assert bundle is not None
        ticks = bundle["scenario"]["script"]["ticks"]
        assert [t["moves"] for t in ticks] == [
            [[3, 0.3, 0.1 * tick]] for tick in (1, 2, 3)
        ]
        assert [t["inserts"] for t in ticks] == [
            [[100 + tick, 0.05 * tick, 0.75, 0]] for tick in (1, 2, 3)
        ]

    def test_failing_tuple_tick_keeps_its_own_exception(self):
        rec = FlightRecorder(window=8, min_history=1000)
        sim = _tuple_sim(rec, _TupleFeed(bad_tick=2))
        sim.step()
        with pytest.raises(KeyError):
            sim.step()
        [bundle] = rec.incidents
        assert bundle["flight"]["reason"].startswith("exception: KeyError")
        assert bundle["scenario"]["script"]["ticks"][-1]["moves"] == [
            [3, 0.3, 0.2],
            ["ghost", 0.5, 0.5],
        ]
