"""The perf-regression harness behind ``igern bench run|check``.

The ``benchmarks/`` suite measures the engine and writes ``BENCH_*.json``
result documents at the repo root; those files are *committed* and act as
the performance baselines of the repository.  This module turns them into
a gate:

- ``igern bench run`` executes the registered benchmark workloads (via
  pytest, in a subprocess, exactly as CI runs them) and refreshes the
  baseline files — the thing to do when a PR legitimately changes the
  performance envelope;
- ``igern bench check`` executes the same workloads into a scratch
  directory (or ``--results-dir``), compares each metric against the
  committed baseline under per-metric tolerances, and exits non-zero on
  regression — the CI ``bench-regress`` job.  A benchmark that fails its
  own assertions is one regression row; the others are still measured
  and compared.

Tolerances are deliberately metric-specific.  Wall-clock ratios
(``speedup``) are compared *relatively* with generous headroom because CI
machines are noisy; structural metrics (``sharing_ratio``, ``skip_rate``,
``fallback_rate``) are deterministic properties of the workload and get
tight absolute bands; invariants (``answers_identical``) must match
exactly.  ``--quick`` runs the CI-sized workloads, whose raw counts
differ from the committed full-size baselines — only *scale-free* metrics
(marked ``quick_ok``) are compared then, the rest are reported as
skipped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Comparison outcomes.
OK = "ok"
REGRESSION = "regression"
SKIPPED = "skipped"


@dataclass(frozen=True)
class MetricCheck:
    """One gated metric of one benchmark.

    ``direction`` states what a regression looks like: ``"lower"`` — the
    current value dropped below the tolerated band under the baseline
    (throughput-style metrics); ``"upper"`` — it rose above the band over
    the baseline (error-rate-style metrics); ``"exact"`` — any difference
    is a regression (invariants).  ``kind`` selects the band arithmetic:
    ``"rel"`` scales the baseline by ``1 ± tolerance``, ``"abs"`` shifts
    it by ``± tolerance``.
    """

    metric: str
    direction: str  # "lower" | "upper" | "exact"
    kind: str = "rel"  # "rel" | "abs"
    tolerance: float = 0.0
    #: Whether the metric is scale-free — comparable between a ``--quick``
    #: run and a committed full-size baseline.
    quick_ok: bool = False

    def bound(self, baseline: float) -> float:
        if self.direction == "exact":
            return baseline
        sign = -1.0 if self.direction == "lower" else 1.0
        if self.kind == "rel":
            return baseline * (1.0 + sign * self.tolerance)
        return baseline + sign * self.tolerance

    def passes(self, baseline: float, current: float) -> bool:
        if self.direction == "exact":
            return current == baseline
        if self.direction == "lower":
            return current >= self.bound(baseline)
        return current <= self.bound(baseline)


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark workload and its gated metrics."""

    name: str
    test_path: str  # repo-relative pytest target
    result_file: str  # BENCH_*.json filename
    quick_env: str
    out_env: str
    #: Flatten the result JSON into the gated metric dict.
    metrics: Callable[[dict], Dict[str, float]] = field(repr=False)
    checks: Tuple[MetricCheck, ...] = ()


def _tick_metrics(result: dict) -> Dict[str, float]:
    on = result["scheduler_on"]
    decisions = on["queries_evaluated"] + on["ticks_skipped"]
    return {
        "speedup": float(result["speedup"]),
        "answers_identical": 1.0 if result["answers_identical"] else 0.0,
        "fallback_rate": float(result["predicates"]["fallback_rate"]),
        "skip_rate": on["ticks_skipped"] / decisions if decisions else 0.0,
        "queries_evaluated": float(on["queries_evaluated"]),
        "ticks_per_sec": float(on["ticks_per_sec"]),
    }


def _batch_metrics(result: dict) -> Dict[str, float]:
    batched = result["batched"]
    return {
        "speedup": float(result["speedup"]),
        "answers_identical": 1.0 if result["answers_identical"] else 0.0,
        "sharing_ratio": float(batched["sharing_ratio"]),
        "probe_hits": float(batched["probe_hits"]),
        "ticks_per_sec": float(batched["ticks_per_sec"]),
    }


def _lease_metrics(result: dict) -> Dict[str, float]:
    leases = result["leases"]
    publications = result["publications"]
    return {
        "answers_identical": 1.0 if result["answers_identical"] else 0.0,
        "hold_ratio": float(leases["hold_ratio"]),
        "publication_skip_rate": float(publications["skip_rate"]),
        "leases_issued": float(leases["issued"]),
        "publications_skipped": float(publications["skipped"]),
    }


def _large_n_metrics(result: dict) -> Dict[str, float]:
    col = result["columnar"]
    return {
        "speedup": float(result["speedup"]),
        "answers_identical": 1.0 if result["answers_identical"] else 0.0,
        "vectorized_fraction": float(col["vectorized_fraction"]),
        "rows_scanned": float(col["rows_scanned"]),
        "ticks_per_sec": float(col["ticks_per_sec"]),
    }


def _serving_metrics(result: dict) -> Dict[str, float]:
    serving = result["serving"]
    return {
        "answers_identical": 1.0 if result["answers_identical"] else 0.0,
        "p99_tick_seconds": float(serving["p99_tick_seconds"]),
        "p50_tick_seconds": float(serving["p50_tick_seconds"]),
        "ticks_per_sec": float(serving["ticks_per_sec"]),
    }


BENCHMARKS: Dict[str, Benchmark] = {
    "tick_throughput": Benchmark(
        name="tick_throughput",
        test_path="benchmarks/test_tick_throughput.py",
        result_file="BENCH_tick_throughput.json",
        quick_env="TICK_BENCH_QUICK",
        out_env="TICK_BENCH_OUT",
        metrics=_tick_metrics,
        checks=(
            # Wall-clock ratio: noisy across machines, wide relative band.
            MetricCheck("speedup", "lower", "rel", 0.40, quick_ok=True),
            # Invariants and structural rates: scale-free, tight bands.
            MetricCheck("answers_identical", "exact", quick_ok=True),
            MetricCheck("fallback_rate", "upper", "abs", 0.01, quick_ok=True),
            MetricCheck("skip_rate", "lower", "abs", 0.08, quick_ok=True),
            # Deterministic counts: full workload only (quick differs).
            MetricCheck("queries_evaluated", "upper", "rel", 0.05),
        ),
    ),
    "batch_throughput": Benchmark(
        name="batch_throughput",
        test_path="benchmarks/test_batch_throughput.py",
        result_file="BENCH_batch_throughput.json",
        quick_env="BATCH_BENCH_QUICK",
        out_env="BATCH_BENCH_OUT",
        metrics=_batch_metrics,
        checks=(
            MetricCheck("speedup", "lower", "rel", 0.40, quick_ok=True),
            MetricCheck("answers_identical", "exact", quick_ok=True),
            MetricCheck("sharing_ratio", "lower", "abs", 0.10, quick_ok=True),
            MetricCheck("probe_hits", "lower", "rel", 0.10),
        ),
    ),
    "lease_hold": Benchmark(
        name="lease_hold",
        test_path="benchmarks/test_lease_hold.py",
        result_file="BENCH_lease_hold.json",
        quick_env="LEASE_BENCH_QUICK",
        out_env="LEASE_BENCH_OUT",
        metrics=_lease_metrics,
        checks=(
            # Held leases must serve the exact answer — any divergence
            # is a soundness bug, not a perf regression.
            MetricCheck("answers_identical", "exact", quick_ok=True),
            # Structural rates of a deterministic low-churn workload:
            # scale-free, tight absolute bands.
            MetricCheck("hold_ratio", "lower", "abs", 0.10, quick_ok=True),
            MetricCheck(
                "publication_skip_rate", "lower", "abs", 0.10, quick_ok=True
            ),
            # Deterministic counts: full workload only (quick differs).
            MetricCheck("publications_skipped", "lower", "rel", 0.05),
        ),
    ),
    "large_n": Benchmark(
        name="large_n",
        test_path="benchmarks/test_large_n_throughput.py",
        result_file="BENCH_large_n.json",
        quick_env="LARGE_N_BENCH_QUICK",
        out_env="LARGE_N_BENCH_OUT",
        metrics=_large_n_metrics,
        checks=(
            # The quick config keeps the rows-per-cell density of the
            # full run, so the backend ratio stays comparable.
            MetricCheck("speedup", "lower", "rel", 0.40, quick_ok=True),
            MetricCheck("answers_identical", "exact", quick_ok=True),
            MetricCheck(
                "vectorized_fraction", "lower", "abs", 0.05, quick_ok=True
            ),
            # Deterministic row count of the probe workload: scanning
            # more rows means the kernels lost pruning, full size only.
            MetricCheck("rows_scanned", "upper", "rel", 0.05),
        ),
    ),
    "serving": Benchmark(
        name="serving",
        test_path="benchmarks/test_serving_throughput.py",
        result_file="BENCH_serving.json",
        quick_env="SERVING_BENCH_QUICK",
        out_env="SERVING_BENCH_OUT",
        metrics=_serving_metrics,
        checks=(
            # Sharded answers must match the single-process engine —
            # any divergence is a correctness bug, not a perf delta.
            MetricCheck("answers_identical", "exact", quick_ok=True),
            # p99 tick latency band: the quick config is strictly
            # smaller than the committed full baseline, so exceeding
            # the full-size band under --quick is a hard regression.
            MetricCheck(
                "p99_tick_seconds", "upper", "rel", 1.50, quick_ok=True
            ),
            MetricCheck(
                "p50_tick_seconds", "upper", "rel", 1.50, quick_ok=True
            ),
            # Throughput: wall-clock, full workload only.
            MetricCheck("ticks_per_sec", "lower", "rel", 0.40),
        ),
    ),
}


def resolve(names: Sequence[str]) -> List[Benchmark]:
    """The requested benchmarks (all of them for an empty selection)."""
    if not names:
        return list(BENCHMARKS.values())
    out = []
    for name in names:
        if name not in BENCHMARKS:
            known = ", ".join(sorted(BENCHMARKS))
            raise KeyError(f"unknown benchmark {name!r} (known: {known})")
        out.append(BENCHMARKS[name])
    return out


def run_benchmark(
    bench: Benchmark, out_dir: Path, quick: bool = False
) -> Path:
    """Execute one benchmark via pytest, writing its result into ``out_dir``.

    Returns the result path.  Raises :class:`RuntimeError` when the
    benchmark's own assertions fail (a failed benchmark *is* a
    regression — its internal floors are the first gate).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / bench.result_file
    env = dict(os.environ)
    env[bench.out_env] = str(result_path)
    env[bench.quick_env] = "1" if quick else "0"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / bench.test_path),
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark {bench.name!r} failed its own assertions:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    if not result_path.exists():
        raise RuntimeError(
            f"benchmark {bench.name!r} wrote no result at {result_path}"
        )
    return result_path


def compare(
    bench: Benchmark, baseline: dict, current: dict, quick: bool = False
) -> List[dict]:
    """Gate one benchmark's current result against its baseline.

    Returns one row per registered check:
    ``{benchmark, metric, status, baseline, current, bound, detail}``.
    Pure data in, pure data out — unit-testable without running anything.
    """
    base_metrics = bench.metrics(baseline)
    cur_metrics = bench.metrics(current)
    rows: List[dict] = []
    for check in bench.checks:
        row = {
            "benchmark": bench.name,
            "metric": check.metric,
            "baseline": base_metrics.get(check.metric),
            "current": cur_metrics.get(check.metric),
            "bound": None,
            "status": OK,
            "detail": "",
        }
        if quick and not check.quick_ok:
            row["status"] = SKIPPED
            row["detail"] = "count metric; not comparable under --quick"
            rows.append(row)
            continue
        base_value = row["baseline"]
        cur_value = row["current"]
        if base_value is None or cur_value is None:
            row["status"] = REGRESSION
            row["detail"] = "metric missing from result document"
            rows.append(row)
            continue
        row["bound"] = check.bound(base_value)
        if not check.passes(base_value, cur_value):
            row["status"] = REGRESSION
            op = {"lower": ">=", "upper": "<=", "exact": "=="}[
                check.direction
            ]
            row["detail"] = (
                f"{cur_value:g} violates {op} {row['bound']:g}"
                f" (baseline {base_value:g},"
                f" {check.kind} tolerance {check.tolerance:g})"
            )
        rows.append(row)
    return rows


def load_result(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def check_benchmarks(
    benches: Sequence[Benchmark],
    baseline_dir: Path,
    results_dir: Path,
    quick: bool = False,
    failures: Optional[Dict[str, str]] = None,
) -> List[dict]:
    """Compare every benchmark's result in ``results_dir`` against the
    baselines in ``baseline_dir``; missing files report as regressions,
    and so does each benchmark named in ``failures`` (name -> what
    stopped its run), which is not compared."""
    rows: List[dict] = []
    for bench in benches:
        baseline_path = Path(baseline_dir) / bench.result_file
        result_path = Path(results_dir) / bench.result_file
        if failures and bench.name in failures:
            problems = [failures[bench.name]]
        else:
            problems = [
                f"missing {label} file {p}"
                for label, p in (("baseline", baseline_path), ("result", result_path))
                if not p.exists()
            ]
        if problems:
            rows.extend(
                {
                    "benchmark": bench.name,
                    "metric": "-",
                    "baseline": None,
                    "current": None,
                    "bound": None,
                    "status": REGRESSION,
                    "detail": detail,
                }
                for detail in problems
            )
            continue
        rows.extend(
            compare(
                bench,
                load_result(baseline_path),
                load_result(result_path),
                quick=quick,
            )
        )
    return rows


def has_regression(rows: Sequence[dict]) -> bool:
    return any(row["status"] == REGRESSION for row in rows)


def format_rows(rows: Sequence[dict]) -> str:
    """The human comparison table printed by ``igern bench check``."""
    lines = [
        f"  {'benchmark':<18} {'metric':<20} {'baseline':>12}"
        f" {'current':>12} {'status':<10}"
    ]
    for row in rows:

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.4g}"

        lines.append(
            f"  {row['benchmark']:<18} {row['metric']:<20}"
            f" {fmt(row['baseline']):>12} {fmt(row['current']):>12}"
            f" {row['status']:<10}"
        )
        if row["detail"] and row["status"] == REGRESSION:
            lines.append(f"      {row['detail']}")
    return "\n".join(lines)
