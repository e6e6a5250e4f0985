"""Dependency-free metrics registry: counters, gauges, histograms.

Generalizes the per-search-kind counters of
:class:`repro.grid.search.SearchStats` into a uniform, labeled metric
namespace that any component can publish into and any exporter can walk:

- :class:`Counter` — monotonically increasing totals (search calls, cells
  visited, answer changes published);
- :class:`Gauge` — last-value measurements (monitored objects, alive
  cells);
- :class:`Histogram` — fixed-bucket distributions with percentile
  estimates (per-tick wall times), no external deps.

Metrics are keyed by ``(name, labels)``; labels are plain keyword pairs
(``registry.counter("search_calls_total", kind="BOUNDED")``).  Naming
follows the Prometheus conventions (lowercase, underscores, ``_total``
suffix on counters); the metric catalog lives in ``docs/OBSERVABILITY.md``.

The *active* registry is how the engine finds where to publish without
explicit plumbing: :func:`install_registry` marks a registry active;
components constructed afterwards (e.g.
:class:`repro.engine.simulation.Simulator`) pick it up and record into it.
With no active registry, recording is skipped entirely — the disabled
path costs one ``is None`` check.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for durations in seconds (50us .. 10s).
DEFAULT_TIME_BUCKETS = (
    5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
    2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """A last-value measurement (may go up or down)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket distribution with percentile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches the rest.  ``percentile`` answers from the
    bucket edges (the classic Prometheus-style estimate): exact enough for
    reports, constant memory, no dependency.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        # bisect_left finds the first inclusive upper edge >= value; values
        # beyond the last edge land in the overflow bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper-edge estimate of the ``p``-th percentile (0 < p <= 100)."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        running = 0
        for i, n in enumerate(self.bucket_counts):
            running += n
            if running >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
        return self.bounds[-1]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` pairs, Prometheus-style
        (``float('inf')`` closes the list)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create store of labeled metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelPairs], Metric] = {}
        self._lock = threading.Lock()
        #: Bumped by :meth:`clear`: a caller caching metric handles
        #: re-fetches them when it changes, so it never counts into
        #: metrics the registry no longer holds.
        self.generation = 0

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs) -> Metric:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name, key[1], **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)  # type: ignore[return-value]

    def collect(self) -> Iterator[Metric]:
        """All metrics, sorted by (name, labels) for stable export."""
        with self._lock:
            items = sorted(self._metrics.items())
        for _, metric in items:
            yield metric

    def get(self, name: str, **labels: Any) -> Optional[Metric]:
        """Look up a metric without creating it."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._metrics.get(key)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
            self.generation += 1

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Process-boundary seam
    # ------------------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """Every metric as one plain-data record (picklable, JSON-able).

        The serving workers ship these across the process boundary; the
        gateway folds them back with :meth:`merge` so obs totals stay
        correct under multiprocessing.
        """
        out: List[dict] = []
        for metric in self.collect():
            entry: dict = {
                "name": metric.name,
                "labels": [list(pair) for pair in metric.labels],
                "kind": metric.kind,
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
                entry["bucket_counts"] = list(metric.bucket_counts)
                entry["count"] = metric.count
                entry["total"] = metric.total
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out

    def merge(self, entries: List[dict], **extra_labels: Any) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, histograms add bucket-wise (bucket bounds must
        match), gauges take the snapshot's value.  ``extra_labels`` are
        appended to every merged metric's label set — the gateway tags
        worker metrics with their shard id so same-named series from
        different workers stay distinguishable where that matters.
        Merging the *same* snapshot twice double-counts counters; callers
        ship deltas or merge into a fresh registry.
        """
        for entry in entries:
            labels = {key: value for key, value in entry["labels"]}
            labels.update(extra_labels)
            kind = entry["kind"]
            name = entry["name"]
            if kind == "counter":
                if entry["value"]:
                    self.counter(name, **labels).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(name, **labels).set(entry["value"])
            elif kind == "histogram":
                hist = self.histogram(
                    name, buckets=tuple(entry["bounds"]), **labels
                )
                if hist.bounds != tuple(entry["bounds"]):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ from the"
                        " snapshot's; cannot merge"
                    )
                for i, n in enumerate(entry["bucket_counts"]):
                    hist.bucket_counts[i] += n
                hist.count += entry["count"]
                hist.total += entry["total"]
            else:
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")


# ----------------------------------------------------------------------
# SearchStats bridge
# ----------------------------------------------------------------------

#: SearchStats snapshot kind label ("NN", "NN_c", "NN_b") -> exported flavor label.
SEARCH_KIND_LABELS = {
    "NN": "UNCONSTRAINED",
    "NN_c": "CONSTRAINED",
    "NN_b": "BOUNDED",
}

#: SearchStats snapshot key prefix -> metric name.
_OPS_METRICS = {
    "calls": "search_calls_total",
    "cells": "search_cells_visited_total",
    "objects": "search_objects_examined_total",
}


def record_ops_delta(
    registry: MetricsRegistry, ops: Dict[str, int], **extra_labels: Any
) -> None:
    """Increment search counters from a ``diff_ops``-style delta dict.

    Keys look like ``calls_NN_c`` (see ``SearchStats.snapshot``); they are
    split into the metric name and the search-flavor label, so the three
    flavors (UNCONSTRAINED / CONSTRAINED / BOUNDED) stay distinguishable.
    ``certified`` (candidates verified without a probe) has no flavor
    and feeds ``search_certified_total``.
    """
    for key, amount in ops.items():
        if amount <= 0:
            continue
        if key == "certified":
            registry.counter("search_certified_total", **extra_labels).inc(amount)
            continue
        prefix, _, kind_value = key.partition("_")
        name = _OPS_METRICS.get(prefix)
        if name is None:
            continue
        flavor = SEARCH_KIND_LABELS.get(kind_value, kind_value)
        registry.counter(name, kind=flavor, **extra_labels).inc(amount)


def absorb_search_stats(
    registry: MetricsRegistry, stats, **extra_labels: Any
) -> None:
    """Publish a full :class:`SearchStats` into counters (all flavors).

    Every flavor is touched even at zero, so exports always show the
    complete UNCONSTRAINED / CONSTRAINED / BOUNDED breakdown.
    """
    snap = stats.snapshot()
    for label, flavor in SEARCH_KIND_LABELS.items():
        for prefix, name in _OPS_METRICS.items():
            registry.counter(name, kind=flavor, **extra_labels).inc(
                snap[f"{prefix}_{label}"]
            )


# ----------------------------------------------------------------------
# Global / active registry
# ----------------------------------------------------------------------

_GLOBAL = MetricsRegistry()
_ACTIVE: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (exists regardless of state)."""
    return _GLOBAL


def install_registry(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Mark a registry as *active*: engine components built afterwards
    publish into it.  Defaults to the global registry."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else _GLOBAL
    return _ACTIVE


def uninstall_registry() -> None:
    """Deactivate metric collection for newly built components."""
    global _ACTIVE
    _ACTIVE = None


def active_registry() -> Optional[MetricsRegistry]:
    """The currently active registry, or ``None`` when collection is off."""
    return _ACTIVE
