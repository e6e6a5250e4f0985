"""Exporters: JSON-lines entries, Prometheus text, Chrome trace, summary.

Four consumers, four formats, all rendered from the cost ledger's timed
entries (:mod:`repro.obs.ledger`) and the metrics registry:

- machines replaying a run → :class:`JsonLinesSink`, a ledger sink
  writing one JSON object per entry as it is filed;
- scrapers → :func:`prometheus_text` (the Prometheus exposition format,
  produced without any dependency, label values escaped per spec);
- timeline viewers (``chrome://tracing``, Perfetto) →
  :func:`chrome_trace`: every retained entry as a duration event, plus
  per-query counter tracks;
- humans → :func:`summary_table` (entries grouped by name and sorted by
  *self* time, search work per flavor, and a metric listing — the
  output of ``igern obs``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Dict, Iterable, List, Optional, Union

from repro.obs.ledger import Entry, QueryCostLedger, TickRecord
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------


class JsonLinesSink:
    """A ledger sink streaming entries to a file as JSON lines.

    Attach with ``ledger.add_sink(sink)``; entries are written as they
    are filed, so the file holds every entry of the run — also those of
    ticks the ledger's ring has dropped — and is useful even if the
    process dies mid-run.  Accepts a path (opened and owned, close with
    :meth:`close`) or any writable text file object (borrowed).
    """

    def __init__(self, target: Union[str, Path, IO[str]]):
        if isinstance(target, (str, Path)):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False

    def __call__(self, entry: Entry) -> None:
        self._file.write(json.dumps(entry._asdict(), separators=(",", ":")) + "\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _prom_name(name: str, prefix: str) -> str:
    return prefix + name.replace(".", "_").replace("-", "_")


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition-format spec: backslash,
    double quote, and line feed are the three characters with meaning
    inside a quoted label value."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels, extra: str = "") -> str:
    parts = [f'{k}="{_prom_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """The registry in Prometheus text exposition format.

    Counters keep their ``_total`` suffix, histograms expand into
    ``_bucket`` / ``_sum`` / ``_count`` series; every line is scrapeable
    by a stock Prometheus server.
    """
    lines = []
    typed = set()
    for metric in registry.collect():
        name = _prom_name(metric.name, prefix)
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Histogram):
            for bound, cumulative in metric.cumulative_buckets():
                le = "+Inf" if bound == float("inf") else repr(bound)
                le_label = 'le="' + le + '"'
                lines.append(
                    f"{name}_bucket{_prom_labels(metric.labels, le_label)} {cumulative}"
                )
            lines.append(f"{name}_sum{_prom_labels(metric.labels)} {repr(metric.total)}")
            lines.append(f"{name}_count{_prom_labels(metric.labels)} {metric.count}")
        else:
            lines.append(f"{name}{_prom_labels(metric.labels)} {_fmt_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_text(path: Union[str, Path], registry: MetricsRegistry) -> Path:
    """Write the Prometheus snapshot to a file."""
    path = Path(path)
    path.write_text(prometheus_text(registry))
    return path


# ----------------------------------------------------------------------
# Chrome / Perfetto trace timeline
# ----------------------------------------------------------------------


def chrome_trace(ledger: QueryCostLedger, pid: int = 1) -> dict:
    """The ledger's retained ticks as a Chrome ``trace_event`` document.

    Every entry becomes a complete duration event (``ph: "X"``,
    timestamps in microseconds of the simulator's clock, ``args``
    carrying the tick and, for query entries, the query), loadable in
    ``chrome://tracing`` or https://ui.perfetto.dev.  Each tick with an
    evaluation also adds counter events (``ph: "C"``) — per-query wall
    time and cells visited — rendered as stacked counter tracks under
    the timeline.
    """
    events: List[dict] = []
    for record in ledger.records():
        for entry in record.entries:
            args: Dict[str, object] = {"tick": entry.tick}
            if entry.query is not None:
                args["query"] = entry.query
            events.append(
                {
                    "name": entry.name,
                    "cat": "ledger",
                    "ph": "X",
                    "ts": entry.start * 1e6,
                    "dur": entry.duration * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": args,
                }
            )
        evaluated = record.evaluated()
        if not evaluated:
            continue
        # A query name filed by several simulators sums into one track.
        walls: Dict[str, float] = {}
        cells: Dict[str, int] = {}
        for c in evaluated:
            walls[c.query] = walls.get(c.query, 0.0) + c.wall_time
            cells[c.query] = cells.get(c.query, 0) + c.cells_visited
        ts = record.started * 1e6
        events.append(
            {
                "name": "ledger.query_wall_us",
                "cat": "ledger",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "args": {q: round(wall * 1e6, 3) for q, wall in walls.items()},
            }
        )
        events.append(
            {
                "name": "ledger.cells_visited",
                "cat": "ledger",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "args": cells,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path], ledger: QueryCostLedger) -> Path:
    """Write :func:`chrome_trace` of the ledger as a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(ledger)) + "\n")
    return path


# ----------------------------------------------------------------------
# Human summary
# ----------------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f}ms"
    return f"{seconds * 1e6:8.1f}us"


def _span_rows(
    records: Iterable[TickRecord], prefix: Optional[str]
) -> Dict[str, List[float]]:
    """Per-entry-name ``[count, total, self, max]`` seconds.

    An entry's self time is its duration minus that of the entries
    directly inside it, nesting read from the intervals of each record
    (phases inside their query, queries inside their tick).  Children
    are subtracted over every entry, so a prefix-filtered table still
    ranks by genuine self time.
    """
    rows: Dict[str, List[float]] = {}
    for record in records:
        stack: List[Entry] = []
        for entry in sorted(record.entries, key=lambda e: (e.start, -e.end)):
            while stack and stack[-1].end < entry.end:
                stack.pop()
            duration = entry.duration
            row = rows.setdefault(entry.name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration
            row[3] = max(row[3], duration)
            if stack:
                rows[stack[-1].name][2] -= duration
            stack.append(entry)
    return {
        name: row
        for name, row in rows.items()
        if prefix is None or name.startswith(prefix)
    }


def _span_section(
    ledger: QueryCostLedger, prefix: Optional[str], top: Optional[int]
) -> str:
    rows = _span_rows(ledger.records(), prefix)
    ranked = sorted(rows, key=lambda name: (-rows[name][2], name))
    shown = ranked if top is None else ranked[: max(top, 0)]
    lines = ["spans (per-phase breakdown, hottest self time first)"]
    if shown:
        lines.append(
            f"  {'span':<34} {'count':>7} {'total':>10} {'self':>10}"
            f" {'mean':>10} {'max':>10}"
        )
        for name in shown:
            count, total, self_time, longest = rows[name]
            lines.append(
                f"  {name:<34} {count:>7}"
                f" {_fmt_seconds(total):>10}"
                f" {_fmt_seconds(max(0.0, self_time)):>10}"
                f" {_fmt_seconds(total / count):>10}"
                f" {_fmt_seconds(longest):>10}"
            )
        if len(ranked) > len(shown):
            lines.append(f"  ... {len(ranked) - len(shown)} more span name(s)")
    elif ranked:
        lines.append(f"  (all {len(ranked)} rows hidden by --top)")
    else:
        lines.append("  (no spans recorded — was the ledger enabled?)")
    return "\n".join(lines)


#: The registry's search counters, in the column order of the search table.
_SEARCH_COUNTERS = (
    "search_calls_total",
    "search_cells_visited_total",
    "search_objects_examined_total",
)


def _search_section(registry: MetricsRegistry) -> Optional[str]:
    """Calls, cells visited and objects examined per search flavor (the
    Section 6 cost model), summed over every other label."""
    work: Dict[str, List[float]] = {}
    for metric in registry.collect():
        if metric.name in _SEARCH_COUNTERS:
            flavor = dict(metric.labels).get("kind", "(unlabeled)")
            row = work.setdefault(flavor, [0, 0, 0])
            row[_SEARCH_COUNTERS.index(metric.name)] += metric.value
    if not work:
        return None
    lines = [
        "search work per flavor",
        f"  {'search':<34} {'calls':>10} {'cells':>10} {'objects':>10}",
    ]
    for flavor in sorted(work):
        name = "grid.search." + flavor.lower()
        lines.append(
            f"  {name:<34}"
            + "".join(f" {_fmt_value(value):>10}" for value in work[flavor])
        )
    return "\n".join(lines)


def _skip_section(registry: MetricsRegistry) -> Optional[str]:
    """``ticks_skipped_total`` rolled up by its ``reason`` label."""
    reasons: Dict[str, float] = {}
    for metric in registry.collect():
        if metric.name == "ticks_skipped_total" and isinstance(metric, Counter):
            reason = dict(metric.labels).get("reason", "(unlabeled)")
            reasons[reason] = reasons.get(reason, 0) + metric.value
    if not reasons:
        return None
    return "\n".join(
        ["scheduler skips by reason"]
        + [f"  {reason}: {_fmt_value(reasons[reason])}" for reason in sorted(reasons)]
    )


def _metrics_section(registry: MetricsRegistry) -> str:
    lines = ["metrics"]
    for metric in registry.collect():
        labels = (
            "{" + ", ".join(f"{k}={v}" for k, v in metric.labels) + "}"
            if metric.labels
            else ""
        )
        if isinstance(metric, Histogram):
            lines.append(
                f"  {metric.name}{labels}: count={metric.count}"
                f" mean={_fmt_seconds(metric.mean).strip()}"
                f" p50={_fmt_seconds(metric.percentile(50)).strip()}"
                f" p95={_fmt_seconds(metric.percentile(95)).strip()}"
            )
        elif isinstance(metric, (Counter, Gauge)):
            lines.append(f"  {metric.name}{labels}: {_fmt_value(metric.value)}")
    if len(lines) == 1:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)


def summary_table(
    ledger: Optional[QueryCostLedger] = None,
    registry: Optional[MetricsRegistry] = None,
    prefix: Optional[str] = None,
    top: Optional[int] = None,
) -> str:
    """Per-phase span breakdown, search work and metrics, for terminals.

    Span rows group the ledger's retained entries by name (count, total,
    self, mean, max) and sort by **self time** descending (ties broken by
    name, so the order is deterministic) — the "where does the tick go"
    table without parents double-counting their children.  ``prefix``
    restricts the span section (e.g. ``"mono."``); ``top`` truncates it
    to the N hottest rows so large runs stay readable.
    """
    sections: List[Optional[str]] = []
    if ledger is not None:
        sections.append(_span_section(ledger, prefix, top))
    if registry is not None:
        sections.append(_search_section(registry))
        sections.append(_skip_section(registry))
        sections.append(_metrics_section(registry))
    return "\n\n".join(section for section in sections if section is not None)
