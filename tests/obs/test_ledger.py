"""Tests for the per-query cost ledger: recording, attribution math,
the ring bound, and the explain report."""

import pytest

from repro.engine.simulation import Simulator
from repro.motion.uniform import RandomWalkGenerator
from repro.obs.export import chrome_trace
from repro.obs.ledger import (
    EVALUATED,
    MATCHING,
    MOVEMENT,
    REASON_DELTA_DISJOINT,
    REASON_FOOTPRINT_ENTER,
    REASON_INITIAL,
    REASON_NO_FOOTPRINT,
    REASON_OBJECT_MOVED,
    REASON_RESUME_FORCED,
    REASON_SCHEDULER_OFF,
    SKIPPED,
    TICK,
    QueryCostLedger,
    QueryTickCost,
    TickRecord,
    get_ledger,
    phase,
)
from repro.queries import IGERNMonoQuery, QueryPosition


def _cost(query="q", tick=0, decision=EVALUATED, reason=REASON_INITIAL, **kw):
    return QueryTickCost(
        query=query, tick=tick, decision=decision, reason=reason, **kw
    )


class TestReasonVocabulary:
    def test_reason_codes_are_distinct(self):
        reasons = {
            REASON_DELTA_DISJOINT,
            REASON_INITIAL,
            REASON_RESUME_FORCED,
            REASON_FOOTPRINT_ENTER,
            REASON_OBJECT_MOVED,
            REASON_NO_FOOTPRINT,
            REASON_SCHEDULER_OFF,
        }
        assert len(reasons) == 7

    def test_reasons_documented_in_observability_guide(self):
        from pathlib import Path

        doc = (
            Path(__file__).resolve().parents[2]
            / "docs"
            / "OBSERVABILITY.md"
        ).read_text()
        for reason in (
            REASON_DELTA_DISJOINT,
            REASON_INITIAL,
            REASON_RESUME_FORCED,
            REASON_FOOTPRINT_ENTER,
            REASON_OBJECT_MOVED,
            REASON_NO_FOOTPRINT,
            REASON_SCHEDULER_OFF,
        ):
            assert f"`{reason}`" in doc


class TestQueryTickCost:
    def test_absorb_ops_routes_counter_families(self):
        cost = _cost()
        cost.absorb_ops(
            {
                "calls_BOUNDED": 2,
                "calls_CONSTRAINED": 1,
                "cells_alive": 10,
                "cells_probed": 5,
                "objects_scanned": 40,
                "witness_probes": 3,
                "unrelated": 99,
                "calls_empty": 0,
            }
        )
        assert cost.search_calls == 3
        assert cost.cells_visited == 15
        assert cost.objects_examined == 40
        assert cost.witness_probes == 3

    def test_phase_total_and_unattributed(self):
        cost = _cost(wall_time=0.010)
        cost.phases = {"tighten": 0.004, "verify": 0.003}
        assert cost.phase_total() == pytest.approx(0.007)
        assert cost.unattributed() == pytest.approx(0.003)

    def test_unattributed_clamps_at_zero(self):
        cost = _cost(wall_time=0.001)
        cost.phases = {"verify": 0.005}
        assert cost.unattributed() == 0.0

    def test_phase_helper_accumulates(self):
        cost = _cost()
        with phase(cost, "tighten"):
            pass
        with phase(cost, "tighten"):
            pass
        assert cost.phases["tighten"] >= 0.0
        assert set(cost.phases) == {"tighten"}

    def test_phase_helper_is_noop_without_cost(self):
        with phase(None, "tighten") as span:
            pass
        assert not hasattr(span, "phases")


class TestTickRecord:
    def test_top_is_deterministic_on_wall_ties(self):
        record = TickRecord(tick=0)
        for name in ("zeta", "alpha", "mid"):
            record.costs.append(_cost(query=name, wall_time=1.0))
        record.costs.append(
            _cost(query="skip", decision=SKIPPED, reason=REASON_DELTA_DISJOINT)
        )
        top = record.top(2)
        assert [c.query for c in top] == ["alpha", "mid"]

    def test_attributed_time_includes_engine_glue(self):
        record = TickRecord(
            tick=0,
            movement_time=0.002,
            scheduler_time=0.001,
            dispatch_time=0.0005,
        )
        record.costs.append(_cost(wall_time=0.004))
        assert record.attributed_time() == pytest.approx(0.0075)

    def test_attributed_fraction_none_when_untimed(self):
        record = TickRecord(tick=0)
        assert record.attributed_fraction() is None
        record.total_time = 0.01
        record.costs.append(_cost(wall_time=0.005))
        assert record.attributed_fraction() == pytest.approx(0.5)


class TestLedgerRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryCostLedger(capacity=0)

    def test_ring_evicts_oldest_and_forgets_index(self):
        ledger = QueryCostLedger(capacity=3)
        for tick in range(5):
            ledger.begin_tick(tick)
            ledger.record(_cost(tick=tick))
            ledger.add(TICK, 0.0, 0.001)
        assert [r.tick for r in ledger.records()] == [2, 3, 4]
        assert ledger.record_for(0) is None
        assert ledger.record_for(4) is not None
        assert ledger.latest().tick == 4

    def test_begin_tick_is_idempotent_per_tick(self):
        ledger = QueryCostLedger()
        first = ledger.begin_tick(7)
        again = ledger.begin_tick(7)
        assert first is again
        assert len(ledger.records()) == 1

    def test_record_reopens_matching_tick(self):
        ledger = QueryCostLedger()
        ledger.begin_tick(1)
        ledger.begin_tick(2)
        ledger.record(_cost(query="late", tick=1))
        assert [c.query for c in ledger.record_for(1).costs] == ["late"]

    def test_history_and_queries(self):
        ledger = QueryCostLedger()
        for tick in range(3):
            ledger.begin_tick(tick)
            ledger.record(_cost(query="a", tick=tick))
            if tick == 1:
                ledger.record(_cost(query="b", tick=tick))
        assert [c.tick for c in ledger.history("a")] == [0, 1, 2]
        assert [c.tick for c in ledger.history("b")] == [1]
        assert ledger.queries() == ["a", "b"]

    def test_clear_resets_everything(self):
        ledger = QueryCostLedger()
        ledger.begin_tick(0)
        ledger.record(_cost())
        ledger.clear()
        assert ledger.records() == []
        assert ledger.latest() is None

    def test_end_tick_accumulates_across_simulators(self):
        """Two simulators replaying the same tick into a shared ledger
        merge their measurements instead of the second overwriting."""
        ledger = QueryCostLedger()
        ledger.begin_tick(3)
        ledger.record(_cost(query="mono", tick=3, wall_time=0.004))
        ledger.add(MOVEMENT, 0.0, 0.001)
        ledger.add(TICK, 0.0, 0.005)
        ledger.begin_tick(3)
        ledger.record(_cost(query="bi", tick=3, wall_time=0.002))
        ledger.add(MATCHING, 1.0, 1.0002)
        ledger.add(TICK, 1.0, 1.003)
        record = ledger.record_for(3)
        assert record.total_time == pytest.approx(0.008)
        assert record.movement_time == pytest.approx(0.001)
        assert record.scheduler_time == pytest.approx(0.0002)
        assert record.attributed_fraction() < 1.0

    def test_global_ledger_is_shared(self):
        assert get_ledger() is get_ledger()


class TestExplain:
    def _ledger(self):
        ledger = QueryCostLedger()
        ledger.begin_tick(4)
        ledger.record(
            _cost(
                query="igern",
                tick=4,
                reason=REASON_OBJECT_MOVED,
                wall_time=0.004,
                phases={"tighten": 0.001, "verify": 0.002},
                search_calls=3,
                cells_visited=17,
                objects_examined=120,
                witness_probes=6,
                shared_hits=9,
                shared_misses=3,
                exact_fallbacks=1,
                answer_size=2,
                monitored=14,
            )
        )
        ledger.record(
            _cost(
                query="idle",
                tick=4,
                decision=SKIPPED,
                reason=REASON_DELTA_DISJOINT,
                answer_size=5,
            )
        )
        ledger.add(MOVEMENT, 0.0, 0.001)
        ledger.add(TICK, 0.0, 0.006)
        return ledger

    def test_empty_ledger_explains_itself(self):
        report = QueryCostLedger().explain("igern")
        assert "ledger is empty" in report

    def test_unknown_query_lists_known_ones(self):
        report = self._ledger().explain("nope")
        assert "no retained tick mentions" in report
        assert "idle, igern" in report

    def test_unretained_tick_reports_range(self):
        report = self._ledger().explain("igern", tick=99)
        assert "tick 99 is not retained" in report
        assert "4..4" in report

    def test_query_missing_at_tick(self):
        ledger = self._ledger()
        ledger.begin_tick(5)
        ledger.record(_cost(query="other", tick=5))
        report = ledger.explain("igern", tick=5)
        assert "no entry at tick 5" in report
        assert "other" in report

    def test_evaluated_report_sections(self):
        report = self._ledger().explain("igern", tick=4)
        assert "'igern' tick 4 — evaluated (object-moved)" in report
        assert "tighten" in report and "verify" in report
        assert "unattributed" in report
        assert "3 calls, 17 cells visited" in report
        assert "120 objects examined, 6 witness probes" in report
        assert "9 hits / 3 misses (75.0% shared)" in report
        assert "1 exact fallback(s)" in report
        assert "answer: 2 object(s), monitored 14" in report
        assert "2 queries (1 evaluated, 1 skipped)" in report
        assert "movement" in report and "attributed" in report

    def test_skipped_report_carries_answer(self):
        report = self._ledger().explain("idle", tick=4)
        assert "skipped (delta-disjoint)" in report
        assert "previous answer carried forward (5 object(s))" in report

    def test_default_tick_is_latest_mention(self):
        ledger = self._ledger()
        ledger.begin_tick(6)
        ledger.record(_cost(query="igern", tick=6, reason=REASON_INITIAL))
        assert "tick 6" in ledger.explain("igern")


class TestSharedLedger:
    def test_same_query_name_from_two_simulators_files_both_rows(self):
        """Simulators sharing a ledger and a query name each file their
        own row: the tick totals, the explain report, ``history()`` and
        the Chrome counter tracks all account for both evaluations."""
        ledger = QueryCostLedger()
        ledger.enable()
        sims = []
        for seed in (1, 2):
            sim = Simulator(
                RandomWalkGenerator(80, seed=seed, step_sigma=0.05),
                grid_size=8,
                scheduler=False,
                ledger=ledger,
                flight=False,
            )
            sim.add_query(
                "igern",
                IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5))),
            )
            sims.append(sim)
        for sim in sims:
            sim.run(2)
        record = ledger.record_for(2)
        rows = record.rows("igern")
        assert [c.query for c in record.costs] == ["igern", "igern"]
        assert len(rows) == 2 and rows[0] is not rows[1]
        assert [c.tick for c in ledger.history("igern")] == [0, 0, 1, 1, 2, 2]
        report = ledger.explain("igern", tick=2)
        assert report.count("query 'igern' tick 2 — evaluated") == 2
        assert "2 queries (2 evaluated, 0 skipped)" in report
        counters = [
            e
            for e in chrome_trace(ledger)["traceEvents"]
            if e["ph"] == "C" and e["name"] == "ledger.query_wall_us"
        ]
        last = counters[-1]["args"]["igern"]
        assert last == round(sum(c.wall_time for c in rows) * 1e6, 3)
