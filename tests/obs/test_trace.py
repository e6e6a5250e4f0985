"""Tests for the run's trace: the cost ledger's timed entries.

The ledger is the engine's one timing source.  These tests pin the
disabled path, how entries are timed and filed, their nesting on one
clock, retention and sinks, the span table built from them, and the
global ``obs`` switch.
"""

import itertools
import json
import re
from pathlib import Path

from repro import obs
from repro.engine.simulation import Simulator
from repro.engine.workload import WorkloadSpec, build_generator, build_simulator, central_object
from repro.obs.export import chrome_trace, summary_table
from repro.obs.ledger import (
    EVALUATED,
    MOVEMENT,
    QUERY,
    REASON_INITIAL,
    TICK,
    Entry,
    QueryCostLedger,
    QueryTickCost,
    phase,
)
from repro.obs.metrics import MetricsRegistry
from repro.queries import (
    CRNNQuery,
    IGERNBiQuery,
    IGERNMonoQuery,
    QueryPosition,
    TPLQuery,
    VoronoiRepeatQuery,
)


class FakeClock:
    """Deterministic perf_counter stand-in: advances on demand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _cost(clock, query="q", tick=0):
    return QueryTickCost(
        query=query, tick=tick, decision=EVALUATED, reason=REASON_INITIAL, clock=clock
    )


def _ledger_with(*entries, capacity=256):
    """A ledger holding ``(name, start, end)`` entries at tick 0."""
    ledger = QueryCostLedger(capacity=capacity)
    ledger.begin_tick(0)
    for name, start, end in entries:
        ledger.add(name, start, end)
    return ledger


def _mono_sim(ledger, clock=None, n=300):
    kwargs = {} if clock is None else {"clock": clock}
    spec = WorkloadSpec(n_objects=n, grid_size=16, seed=3)
    sim = Simulator(build_generator(spec), grid_size=16, ledger=ledger, **kwargs)
    qid = central_object(sim)
    sim.add_query("igern", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid)))
    return sim


def _entries(ledger):
    return [e for record in ledger.records() for e in record.entries]


def _inside(inner, outer):
    return outer.start <= inner.start and inner.end <= outer.end


class TestDisabledPath:
    def test_disabled_span_is_null_singleton(self):
        assert phase(None, "mono.incremental.verify") is phase(None, "x")

    def test_disabled_records_nothing(self):
        ledger = QueryCostLedger()
        _mono_sim(ledger).run(2)
        assert ledger.records() == []

    def test_enable_disable_toggles(self):
        ledger = QueryCostLedger()
        sim = _mono_sim(ledger)
        sim.execute_queries()
        assert ledger.enabled is False
        ledger.enable()
        assert ledger.enabled is True
        sim.step()
        ledger.disable()
        sim.step()
        assert [
            e.tick for e in _entries(ledger) if e.name == TICK
        ] == [1]


class TestSpanLifecycle:
    def test_with_block_records_duration(self):
        clock = FakeClock()
        cost = _cost(clock, tick=3)
        clock.advance(1.0)
        with phase(cost, "mono.incremental.verify"):
            clock.advance(0.5)
        assert cost.entries == [
            Entry("mono.incremental.verify", "q", 3, 1.0, 1.5)
        ]
        assert cost.entries[0].duration == 0.5
        assert cost.phases == {"verify": 0.5}

    def test_begin_end_hot_path(self):
        """The engine files its own entries with explicit clock readings;
        each adds to its tick total."""
        ledger = _ledger_with((MOVEMENT, 2.0, 2.25), (TICK, 2.0, 3.0))
        record = ledger.latest()
        assert record.entries == [
            Entry(MOVEMENT, None, 0, 2.0, 2.25),
            Entry(TICK, None, 0, 2.0, 3.0),
        ]
        assert record.movement_time == 0.25
        assert record.total_time == 1.0

    def test_to_dict_shape(self):
        entry = Entry("mono.incremental.verify", "igern", 4, 1.0, 3.0)
        assert entry._asdict() == {
            "name": "mono.incremental.verify",
            "query": "igern",
            "tick": 4,
            "start": 1.0,
            "end": 3.0,
        }


class TestNesting:
    def test_depth_and_parent(self):
        """Phase entries lie inside their query's entry, which lies inside
        its tick's entry: three levels on the simulator's one clock."""
        ledger = QueryCostLedger()
        ledger.enable()
        ticks = itertools.count()
        sim = _mono_sim(ledger, clock=lambda: float(next(ticks)))
        sim.run(3)
        entries = _entries(ledger)
        by_tick = {e.tick: e for e in entries if e.name == TICK}
        queries = [e for e in entries if e.name == QUERY]
        phases = [e for e in entries if e.name.startswith("mono.incremental.")]
        assert phases and sorted(by_tick) == [1, 2, 3]
        for entry in phases:
            (owner,) = [q for q in queries if q.tick == entry.tick]
            assert _inside(entry, owner) and entry.query == owner.query == "igern"
        for entry in queries[1:]:
            assert _inside(entry, by_tick[entry.tick])

    def test_siblings_share_parent(self):
        """One evaluation's phases are disjoint siblings, so their total
        never exceeds the query's wall."""
        ledger = QueryCostLedger()
        ledger.enable()
        ticks = itertools.count()
        _mono_sim(ledger, clock=lambda: float(next(ticks))).run(3)
        for record in ledger.records():
            for cost in record.evaluated():
                spans = sorted(cost.entries, key=lambda e: e.start)
                assert len(spans) >= 2
                for before, after in zip(spans, spans[1:]):
                    assert before.end <= after.start
                assert cost.phase_total() <= cost.wall_time


class TestRetention:
    def test_ring_buffer_drops_oldest(self):
        ledger = QueryCostLedger(capacity=3)
        for tick in range(5):
            ledger.begin_tick(tick)
            ledger.add(TICK, float(tick), tick + 0.5)
        ticks = {e["args"]["tick"] for e in chrome_trace(ledger)["traceEvents"]}
        assert ticks == {2, 3, 4}

    def test_clear(self):
        ledger = _ledger_with(("x", 0.0, 1.0))
        ledger.clear()
        assert ledger.records() == []
        assert "(no spans recorded" in summary_table(ledger)

    def test_sink_sees_every_span_even_past_capacity(self):
        ledger = QueryCostLedger(capacity=2)
        names = []
        ledger.add_sink(lambda e: names.append((e.name, e.tick)))
        for tick in range(4):
            ledger.begin_tick(tick)
            ledger.add(TICK, 0.0, 1.0)
        assert names == [(TICK, 0), (TICK, 1), (TICK, 2), (TICK, 3)]

    def test_remove_sink_stops_forwarding(self):
        ledger = _ledger_with()
        names = []
        sink = lambda e: names.append(e.name)  # noqa: E731
        ledger.add_sink(sink)
        ledger.add("kept", 0.0, 1.0)
        ledger.remove_sink(sink)
        ledger.add("dropped", 1.0, 2.0)
        assert names == ["kept"]


class TestAggregate:
    def test_counts_totals_and_ops(self):
        """Span rows count and total the entries of one name; the search
        work (the operation counts) comes per flavor from the registry."""
        ledger = _ledger_with(
            ("mono.incremental.verify", 0.0, 0.25),
            ("mono.incremental.verify", 1.0, 1.25),
            ("mono.initial.tighten", 2.0, 3.0),
        )
        registry = MetricsRegistry()
        registry.counter("search_calls_total", kind="BOUNDED", query="a").inc(2)
        registry.counter("search_calls_total", kind="BOUNDED", query="b").inc(3)
        registry.counter("search_cells_visited_total", kind="BOUNDED").inc(8)
        text = summary_table(ledger, registry)
        verify = next(l for l in text.splitlines() if "mono.incremental.verify" in l)
        assert verify.split()[1:3] == ["2", "500.000ms"]
        assert "mono.initial.tighten" in text
        search = next(l for l in text.splitlines() if "grid.search.bounded" in l)
        assert search.split()[1:] == ["5", "8", "0"]

    def test_prefix_filter(self):
        ledger = _ledger_with(
            ("mono.initial.verify", 0.0, 1.0),
            ("mono.incremental.verify", 1.0, 2.0),
            ("bi.initial.verify", 2.0, 3.0),
        )
        text = summary_table(ledger, prefix="mono.")
        assert "mono.initial.verify" in text and "mono.incremental.verify" in text
        assert "bi.initial" not in text


class TestGlobalFacade:
    def test_obs_enable_disable_roundtrip(self):
        from repro.obs.metrics import active_registry

        try:
            ledger, registry = obs.enable()
            assert obs.enabled() is True
            assert ledger is obs.get_ledger()
            assert registry is obs.get_registry()
            assert active_registry() is registry
        finally:
            obs.disable(clear=True)
        assert obs.enabled() is False
        assert active_registry() is None

    def test_summary_mentions_spans_header(self):
        try:
            ledger, _ = obs.enable()
            ledger.begin_tick(0)
            ledger.add("demo.phase", 0.0, 1.0)
            text = obs.summary()
            assert "spans (per-phase breakdown" in text
            assert "demo.phase" in text
        finally:
            obs.disable(clear=True)


class TestInstrumentationIntegration:
    """End-to-end: running queries under the ledger produces the phases."""

    def test_mono_igern_phases_visible(self):
        try:
            obs.enable(metrics=False)
            obs.get_ledger().clear()
            _mono_sim(None).run(4)
            names = {e.name for e in _entries(obs.get_ledger())}
        finally:
            obs.disable(clear=True)
        # Initial and incremental phases, verification included, are
        # separately visible.
        assert "mono.initial.tighten" in names
        assert "mono.initial.verify" in names
        assert "mono.incremental.tighten" in names
        assert "mono.incremental.verify" in names


def _documented_names():
    doc = (Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md").read_text()
    return set(re.findall(r"`([a-z_]+(?:\.[a-z_]+)+)`", doc))


class TestOneClock:
    """A mono and a bi simulator share one fake clock and one ledger and
    replay the same tick numbers, as ``igern obs``'s demo does."""

    TICKS = 4

    def _run(self):
        ledger = QueryCostLedger()
        ledger.enable()
        ticks = itertools.count()
        clock = lambda: float(next(ticks))  # noqa: E731
        mono = build_simulator(WorkloadSpec(n_objects=200, grid_size=12, seed=5))
        bi = build_simulator(
            WorkloadSpec(n_objects=200, grid_size=12, seed=5, bichromatic=True)
        )
        for sim in (mono, bi):
            sim.clock = clock
            sim.ledger = ledger
        pos = QueryPosition(mono.grid, query_id=central_object(mono))
        mono.add_query("igern", IGERNMonoQuery(mono.grid, pos))
        mono.add_query("crnn", CRNNQuery(mono.grid, pos))
        mono.add_query("tpl", TPLQuery(mono.grid, pos))
        bi_pos = QueryPosition(bi.grid, query_id=central_object(bi, "A"))
        bi.add_query("igern-bi", IGERNBiQuery(bi.grid, bi_pos))
        bi.add_query("voronoi", VoronoiRepeatQuery(bi.grid, bi_pos))
        mono.run(self.TICKS)
        bi.run(self.TICKS)
        return ledger

    def test_entries_nest_exactly(self):
        ledger = self._run()
        entries = _entries(ledger)
        ticks = [e for e in entries if e.name == TICK]
        queries = [e for e in entries if e.name == QUERY]
        phases = [e for e in entries if e.query is not None and e.name != QUERY]
        assert len(ticks) == 2 * self.TICKS
        # CRNN, TPL and Voronoi have no footprint and run every tick.
        assert len(queries) >= 3 * (self.TICKS + 1)
        for entry in phases:
            assert any(
                q.query == entry.query and q.tick == entry.tick and _inside(entry, q)
                for q in queries
            ), entry
        for entry in queries:
            if entry.tick == 0:
                continue  # the initial pass runs outside any step
            assert any(
                t.tick == entry.tick and _inside(entry, t) for t in ticks
            ), entry

    def test_attribution_never_exceeds_the_tick(self):
        fractions = [
            record.attributed_fraction()
            for record in self._run().records()
            if record.attributed_fraction() is not None
        ]
        assert len(fractions) == self.TICKS
        assert all(0.0 < f <= 1.0 for f in fractions)

    def test_every_name_is_documented(self):
        names = {e.name for e in _entries(self._run())}
        assert {"mono.incremental.verify", "bi.incremental.verify", "crnn.pies"} <= names
        assert names <= _documented_names(), names - _documented_names()


class TestTraceFile:
    def test_trace_holds_every_tick_past_the_ring(self, tmp_path, capsys):
        """``--trace`` writes every entry of the run: one ``engine.tick``
        line per ``Simulator.step``, although the two demo simulators
        replay the same tick numbers for longer than the ring holds."""
        from repro.cli import main

        ticks = obs.get_ledger().capacity + 20
        path = tmp_path / "trace.jsonl"
        rc = main(
            ["obs", "-n", "60", "--ticks", str(ticks), "--grid", "8", "--trace", str(path)]
        )
        assert rc == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        steps = [line["tick"] for line in lines if line["name"] == TICK]
        assert sorted(steps) == sorted(list(range(1, ticks + 1)) * 2)
        assert all(Entry(**line).duration >= 0.0 for line in lines)
