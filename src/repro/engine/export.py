"""Exporting simulation measurements for external analysis.

Writes a :class:`~repro.engine.metrics.SimulationResult` as JSON lines —
one record per (query, tick) — plus a trailing summary record, so
external tooling (pandas, jq, spreadsheets) can consume experiment data
without importing this library.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.engine.metrics import SimulationResult, TickMetrics


def tick_record(query: str, metrics: TickMetrics) -> Dict:
    """One (query, tick) measurement as a JSON-safe dict."""
    return {
        "type": "tick",
        "query": query,
        "tick": metrics.tick,
        "wall_time": metrics.wall_time,
        "answer": sorted(metrics.answer, key=repr),
        "answer_size": metrics.answer_size,
        "monitored": metrics.monitored,
        "region_cells": metrics.region_cells,
        "ops": dict(metrics.ops),
    }


def summary_record(result: SimulationResult) -> Dict:
    """Whole-run aggregates as a JSON-safe dict."""
    return {
        "type": "summary",
        "n_ticks": result.n_ticks,
        "cell_changes": result.cell_changes,
        "updates": result.updates,
        "queries": {
            name: {
                "total_time": log.total_time,
                "avg_time": log.avg_time,
                "avg_incremental_time": log.avg_incremental_time,
                "avg_monitored": log.avg_monitored,
                "executions": len(log.ticks),
            }
            for name, log in result.logs.items()
        },
    }


def export_jsonl(result: SimulationResult, path: Union[str, Path]) -> Path:
    """Write the result as JSON lines; returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        for name, log in result.logs.items():
            for metrics in log.ticks:
                fh.write(json.dumps(tick_record(name, metrics)) + "\n")
        fh.write(json.dumps(summary_record(result)) + "\n")
    return path


def load_jsonl(path: Union[str, Path]) -> Dict[str, List[Dict]]:
    """Read an exported file back into ``{"ticks": [...], "summary": [...]}``.

    Returned records are plain dicts (ids may have been stringified by
    JSON); meant for verification and external analysis, not for
    reconstructing live objects.
    """
    path = Path(path)
    out: Dict[str, List[Dict]] = {"ticks": [], "summary": []}
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "tick":
                out["ticks"].append(record)
            elif kind == "summary":
                out["summary"].append(record)
            else:
                raise ValueError(f"unknown record type {kind!r} in {path}")
    return out
