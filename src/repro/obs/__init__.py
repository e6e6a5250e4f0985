"""Observability: the cost ledger, metrics, exporters, flight recorder.

The paper's evaluation is a story about *where time and work go* — per-tick
CPU (Figures 6a/7a/8a/9a), monitored-object counts (6b/8b), cells visited
per search kind (the Section 6 cost model).  This package makes those
quantities first-class and visible *inside* a tick:

- :mod:`repro.obs.ledger` — the per-query cost ledger and the engine's
  one timing source: every tick's timed entries (movement, matching,
  dispatch, each evaluated query and its algorithm phases, all on the
  simulator's clock) plus per-query search work, shared-context hits and
  exact-predicate fallbacks, with skip/evaluate decisions recorded under
  machine-readable reasons.  ``igern obs explain <query>`` renders one
  record.  The ledger is **off by default**; the disabled path is one
  attribute check per tick and a shared no-op per phase.
- :mod:`repro.obs.metrics` — a dependency-free registry of counters,
  gauges, and fixed-bucket histograms.  It absorbs and generalizes the
  per-search-kind :class:`repro.grid.search.SearchStats` counters.
- :mod:`repro.obs.export` — JSON-lines ledger entries, a
  Prometheus-style text snapshot, Chrome/Perfetto trace timelines, and
  a human ``summary()`` table.
- :mod:`repro.obs.flight` — the always-on tick flight recorder: a bounded
  digest ring that, on anomaly, freezes the recent window into a
  replayable fuzz-format incident bundle.

Quickstart::

    from repro import obs

    obs.enable()
    ... run queries ...
    print(obs.summary())          # per-phase breakdown + metrics
    obs.disable()

The CLI exposes the same flow as ``igern obs`` and via ``--trace FILE`` /
``--metrics FILE`` on ``demo`` and ``experiment``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.export import (
    JsonLinesSink,
    chrome_trace,
    prometheus_text,
    summary_table,
    write_chrome_trace,
    write_metrics_text,
)
from repro.obs.flight import FlightRecorder, TickDigest
from repro.obs.ledger import (
    Entry,
    QueryCostLedger,
    QueryTickCost,
    TickRecord,
    get_ledger,
    phase,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    absorb_search_stats,
    active_registry,
    get_registry,
    install_registry,
    uninstall_registry,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "install_registry",
    "uninstall_registry",
    "active_registry",
    "absorb_search_stats",
    "JsonLinesSink",
    "prometheus_text",
    "chrome_trace",
    "write_chrome_trace",
    "summary_table",
    "write_metrics_text",
    "Entry",
    "QueryCostLedger",
    "QueryTickCost",
    "TickRecord",
    "get_ledger",
    "phase",
    "FlightRecorder",
    "TickDigest",
    "enable",
    "disable",
    "enabled",
    "summary",
]


def enable(
    ledger: bool = True, metrics: bool = True
) -> Tuple[QueryCostLedger, Optional[MetricsRegistry]]:
    """Turn observability on: the global cost ledger and registry.

    Returns ``(ledger, registry)`` so callers can attach sinks or inspect
    collected data.  ``ledger=True`` enables the global ledger, the one
    timing source (simulators pick it up by default; recording only
    happens while it is enabled).  ``metrics=True`` installs the global
    registry as the *active* one, which engine components pick up at
    construction time.
    """
    cost_ledger = get_ledger()
    if ledger:
        cost_ledger.enable()
    registry = None
    if metrics:
        registry = get_registry()
        install_registry(registry)
    return cost_ledger, registry


def disable(clear: bool = False) -> None:
    """Turn the cost ledger and metric collection off (optionally
    dropping collected data)."""
    uninstall_registry()
    get_ledger().disable()
    if clear:
        get_registry().clear()
        get_ledger().clear()


def enabled() -> bool:
    """Whether the global cost ledger is currently recording."""
    return get_ledger().enabled


def summary() -> str:
    """Human-readable table over the global ledger and registry."""
    return summary_table(get_ledger(), get_registry())
