"""Tests for the exporters: JSON-lines entries, Prometheus text, Chrome
trace, summary table."""

import io
import json

from hypothesis import given
from hypothesis import strategies as st

from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.obs.export import (
    JsonLinesSink,
    chrome_trace,
    prometheus_text,
    summary_table,
    write_chrome_trace,
    write_metrics_text,
)
from repro.obs.ledger import QUERY, TICK, Entry, QueryCostLedger, QueryTickCost
from repro.obs.metrics import MetricsRegistry
from repro.queries import IGERNMonoQuery, QueryPosition


def ledger_with(*entries):
    """A ledger holding ``(name, start, end[, query])`` entries at tick 0."""
    ledger = QueryCostLedger()
    ledger.begin_tick(0)
    for name, start, end, *query in entries:
        ledger.add(name, start, end, query=query[0] if query else None)
    return ledger


def nested_fixture():
    """A tick of 0.75s holding one query entry of 0.5s."""
    return ledger_with((QUERY, 0.25, 0.75, "igern"), (TICK, 0.0, 0.75))


def sink_lines(ledger_factory):
    """The JSON lines a sink writes while ``ledger_factory(ledger)`` files."""
    buf = io.StringIO()
    ledger = QueryCostLedger()
    ledger.add_sink(JsonLinesSink(buf))
    ledger_factory(ledger)
    return ledger, buf.getvalue().splitlines()


def file_nested(ledger):
    ledger.begin_tick(0)
    ledger.add(QUERY, 0.25, 0.75, query="igern")
    ledger.add(TICK, 0.0, 0.75)


class TestJsonLines:
    def test_spans_to_jsonl_roundtrip(self):
        ledger, lines = sink_lines(file_nested)
        assert len(lines) == 2
        inner = json.loads(lines[0])
        outer = json.loads(lines[1])
        assert inner == {
            "name": QUERY, "query": "igern", "tick": 0, "start": 0.25, "end": 0.75
        }
        assert Entry(**outer) == ledger.latest().entries[1]
        assert Entry(**outer).duration == 0.75

    def test_write_spans_jsonl(self, tmp_path):
        """A sink attached to the ledger a simulator records into writes
        every entry of the run."""
        target = tmp_path / "trace.jsonl"
        ledger = QueryCostLedger()
        ledger.enable()
        sim = build_simulator(WorkloadSpec(n_objects=150, grid_size=8, seed=2))
        sim.ledger = ledger
        pos = QueryPosition(sim.grid, query_id=central_object(sim))
        sim.add_query("igern", IGERNMonoQuery(sim.grid, pos))
        with JsonLinesSink(target) as sink:
            ledger.add_sink(sink)
            sim.run(2)
        lines = [Entry(**json.loads(line)) for line in target.read_text().splitlines()]
        assert lines and set(lines) == {
            e for record in ledger.records() for e in record.entries
        }

    def test_write_empty_trace(self, tmp_path):
        """A run under a disabled ledger leaves an empty trace file."""
        target = tmp_path / "empty.jsonl"
        ledger = QueryCostLedger()
        sim = build_simulator(WorkloadSpec(n_objects=100, grid_size=8, seed=2))
        sim.ledger = ledger
        sim.add_query(
            "igern", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
        )
        with JsonLinesSink(target) as sink:
            ledger.add_sink(sink)
            sim.run(2)
        assert target.read_text() == ""

    def test_live_sink_streams_as_spans_finish(self):
        ledger = ledger_with()
        buf = io.StringIO()
        sink = JsonLinesSink(buf)
        ledger.add_sink(sink)
        ledger.add("a", 0.0, 1.0)
        assert json.loads(buf.getvalue())["name"] == "a"
        sink.close()  # borrowed file object stays open
        buf.write("")

    def test_sink_owns_path(self, tmp_path):
        ledger = ledger_with()
        target = tmp_path / "live.jsonl"
        with JsonLinesSink(target) as sink:
            ledger.add_sink(sink)
            ledger.add("x", 0.0, 1.0)
            ledger.add("y", 1.0, 2.0)
        lines = target.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["x", "y"]


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("search_calls_total", kind="BOUNDED").inc(4)
        reg.gauge("query_answer_size", query="igern").set(3)
        text = prometheus_text(reg)
        assert "# TYPE repro_search_calls_total counter" in text
        assert 'repro_search_calls_total{kind="BOUNDED"} 4' in text
        assert "# TYPE repro_query_answer_size gauge" in text
        assert 'repro_query_answer_size{query="igern"} 3' in text
        assert text.endswith("\n")

    def test_histogram_expansion(self):
        reg = MetricsRegistry()
        h = reg.histogram("tick_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = prometheus_text(reg)
        assert 'repro_tick_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_tick_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_tick_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_tick_seconds_sum 5.05" in text
        assert "repro_tick_seconds_count 2" in text
        assert "# TYPE repro_tick_seconds histogram" in text

    def test_dots_become_underscores(self):
        reg = MetricsRegistry()
        reg.counter("engine.tick.count").inc()
        assert "repro_engine_tick_count 1" in prometheus_text(reg)

    def test_type_line_emitted_once_across_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("c_total", kind="A").inc()
        reg.counter("c_total", kind="B").inc()
        text = prometheus_text(reg)
        assert text.count("# TYPE repro_c_total counter") == 1

    def test_write_metrics_text(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x_total").inc(9)
        path = write_metrics_text(tmp_path / "metrics.prom", reg)
        assert "repro_x_total 9" in path.read_text()

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestPrometheusEscaping:
    def test_backslash_quote_and_newline_escaped(self):
        reg = MetricsRegistry()
        hostile = 'a\\b"c\nd'
        reg.counter("hostile_total", query=hostile).inc(2)
        text = prometheus_text(reg)
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        assert 'query="a\\\\b\\"c\\nd"' in text
        # The raw newline must never survive into the exposition line.
        line = next(l for l in text.splitlines() if "hostile_total{" in l)
        assert line.endswith(" 2")

    def test_escaped_output_is_line_safe(self):
        reg = MetricsRegistry()
        reg.gauge("g", a="x\ny", b='q"r', c="s\\t").set(1)
        text = prometheus_text(reg)
        # Every non-comment line still parses as 'name{labels} value'.
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert line.rsplit(" ", 1)[1] == "1"

    def test_benign_values_unchanged(self):
        reg = MetricsRegistry()
        reg.counter("ok_total", query="igern-bi").inc()
        assert 'query="igern-bi"' in prometheus_text(reg)


class TestSpanRoundTrip:
    def test_jsonl_roundtrip_preserves_structure(self):
        """Parsed back, the lines are the ledger's entries, nesting
        (interval containment) included."""
        ledger, lines = sink_lines(file_nested)
        parsed = [Entry(**json.loads(line)) for line in lines]
        assert parsed == ledger.latest().entries
        inner, outer = parsed
        assert outer.start <= inner.start and inner.end <= outer.end

    entries = st.builds(
        Entry,
        name=st.text(min_size=1, max_size=16),
        query=st.one_of(st.none(), st.text(max_size=8)),
        tick=st.integers(min_value=0, max_value=2**31),
        start=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        end=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )

    @given(st.lists(entries, max_size=5))
    def test_parse_export_cycle_is_idempotent(self, entries):
        """Every entry survives the JSON-lines round trip bit-exactly."""
        buf = io.StringIO()
        sink = JsonLinesSink(buf)
        for entry in entries:
            sink(entry)
        parsed = [Entry(**json.loads(line)) for line in buf.getvalue().splitlines()]
        assert parsed == entries


class TestChromeTrace:
    def test_spans_become_complete_events_in_microseconds(self):
        doc = chrome_trace(nested_fixture())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        outer = next(e for e in events if e["name"] == TICK)
        assert outer["dur"] == 0.75 * 1e6
        assert outer["args"] == {"tick": 0}
        inner = next(e for e in events if e["name"] == QUERY)
        assert inner["ts"] == 0.25 * 1e6
        assert inner["args"] == {"tick": 0, "query": "igern"}

    def test_ledger_rows_become_counter_tracks(self):
        ledger = QueryCostLedger()
        ledger.enable()
        ledger.begin_tick(1)
        ledger.record(
            QueryTickCost(
                query="q0",
                tick=1,
                decision="evaluated",
                reason="initial",
                wall_time=0.003,
                cells_visited=17,
            )
        )
        ledger.record(
            QueryTickCost(
                query="q1", tick=1, decision="skipped", reason="delta-disjoint"
            )
        )
        ledger.add(TICK, 2.0, 2.004)
        doc = chrome_trace(ledger)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {
            "ledger.query_wall_us",
            "ledger.cells_visited",
        }
        walls = next(
            e for e in counters if e["name"] == "ledger.query_wall_us"
        )
        # Only evaluated queries appear; skipped q1 has no track value.
        assert walls["args"] == {"q0": 3000.0}
        assert walls["ts"] == 2.0 * 1e6

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", nested_fixture())
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2


class TestSummaryTable:
    def test_span_rows_sorted_by_total(self):
        text = summary_table(ledger_with(("cheap", 0.0, 0.01), ("expensive", 1.0, 3.0)))
        assert text.index("expensive") < text.index("cheap")
        assert "count" in text and "total" in text

    def test_sorted_by_self_time_not_total(self):
        """A parent whose time is all children ranks below the child."""
        ledger = ledger_with(("parent", 0.0, 2.01), ("child", 0.01, 2.01))
        text = summary_table(ledger)
        assert text.index("child") < text.index("parent")

    def test_self_time_sort_is_deterministic_on_ties(self):
        ledger = ledger_with(
            ("zeta", 0.0, 1.0), ("alpha", 1.0, 2.0), ("mid", 2.0, 3.0)
        )
        text = summary_table(ledger)
        assert text.index("alpha") < text.index("mid") < text.index("zeta")

    def test_top_truncates_and_reports_hidden_rows(self):
        ledger = ledger_with(
            ("a", 0.0, 4.0), ("b", 4.0, 7.0), ("c", 7.0, 9.0), ("d", 9.0, 10.0)
        )
        text = summary_table(ledger, top=2)
        assert "a" in text and "b" in text
        assert "\n  c " not in text and "\n  d " not in text
        assert "... 2 more span name(s)" in text

    def test_skip_reason_breakdown(self):
        reg = MetricsRegistry()
        reg.counter(
            "ticks_skipped_total", query="q0", reason="delta-disjoint"
        ).inc(5)
        reg.counter(
            "ticks_skipped_total", query="q1", reason="delta-disjoint"
        ).inc(2)
        text = summary_table(registry=reg)
        assert "scheduler skips by reason" in text
        assert "delta-disjoint: 7" in text

    def test_unlabeled_skips_still_counted(self):
        reg = MetricsRegistry()
        reg.counter("ticks_skipped_total", query="q0").inc(3)
        text = summary_table(registry=reg)
        assert "(unlabeled): 3" in text

    def test_metrics_section(self):
        reg = MetricsRegistry()
        reg.counter("search_calls_total", kind="CONSTRAINED").inc(7)
        h = reg.histogram("query_tick_seconds", query="igern")
        h.observe(0.002)
        text = summary_table(registry=reg)
        assert "search_calls_total{kind=CONSTRAINED}: 7" in text
        assert "query_tick_seconds{query=igern}" in text
        assert "p95=" in text

    def test_empty_sections_have_placeholders(self):
        text = summary_table(QueryCostLedger(), MetricsRegistry())
        assert "(no spans recorded" in text
        assert "(no metrics recorded)" in text
