"""Tick benchmark of the IGERN engine: absolute latency, layer split.

Replays a seeded closed-loop workload (one client, one tick in flight)
through the public entry points — ``ContinuousQueryManager`` in one
process, or ``AsyncGateway`` over a process-sharded ``ShardCluster`` —
checks a seeded sample of answers against the brute-force oracles, and
prints one JSON result as the last line of standard output::

    python3 tickbench/run.py --workload mono-steady --seed 1 --seconds 16 --trace 0

A run plays a fixed number of ticks, ``--seconds`` times the workload's
nominal rate, on a script generated in full before the first set-up.
``--trace 0`` measures the end-to-end metrics untraced, their times
scaled to the reference speed of ``reference.py`` (the times as measured
are printed and recorded beside them).  ``--trace 1``
runs the same ticks twice, untraced and then traced (spans around the
public calls into each layer, recorded from this directory's code), and
reports the per-layer metrics.  ``--all`` runs every workload in both
modes plus the planted-wrong-answer self-check and prints every metric
with its unit; ``--smoke`` shrinks every workload to seconds.

Each run also writes its host and workload record, next to its metrics,
to ``tickbench/out/<workload>-seed<n>-trace<t>.json`` (and the traced
run's spans to ``tickbench/out/<workload>.spans.jsonl``).  Only
differences between records of the same host are meaningful.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per untraced run, ``setup_s`` being their median: at least
#: ``SETUP_REPEATS``, and more until ``SETUP_MIN_S`` of set-up time (at most
#: ``SETUP_MAX_REPEATS``), so sub-second set-ups average over the host's
#: short-term speed noise.  The last one starts the measured pass.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 15
#: p90 needs ten samples beyond it.
MIN_TICKS = 100
#: Steady ticks of a ``--smoke`` run.
SMOKE_TICKS = 20
#: Wall-clock cap on one pass's ticking, so a run of a much slower build
#: still ends within three minutes (it then plays fewer ticks).
TICK_BUDGET_S = 60.0
#: Per-layer metrics read off spans around engine calls.  On a served
#: workload those calls run inside the shard workers, where no span
#: reaches, so these read 0 there as *not measured* (the layers do run).
WORKER_SIDE = (
    "grid.ingest_ms", "grid.prefilter_ms", "engine.scheduler.dispatch_ms",
    "engine.scheduler.reindex_ms", "engine.batch.order_ms", "queries.eval_ms",
    "queries.eval_us", "queries.evaluations", "queries.footprint_ms",
    "queries.skip_ms", "queries.initial_ms", "engine.manager.publish_ms",
    "engine.simulation.glue_ms", "obs.flight.hooks_ms", "obs.flight.captures",
)


def declared_units(kind: str) -> dict:
    """Metric name -> unit of ``kind`` ("end_to_end" or "per_layer"), as
    ``BENCHMARK.json`` declares them; every run emits exactly these."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _bootstrap() -> None:
    """Put this checkout's ``src`` and the benchmark package on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"tickbench: no repro sources under {SRC}\n")
        sys.exit(2)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


_bootstrap()

from tickbench.oracle import verify  # noqa: E402
from tickbench.reference import NOMINAL_S, Reference, scale_each  # noqa: E402
from tickbench.spans import GcPauses, Spans, TickTotals  # noqa: E402
from tickbench.systems import make_system  # noqa: E402
from tickbench.workloads import WORKLOADS, make_script, resolve  # noqa: E402


class Pass:
    """One set-up plus a sequence of steady ticks on one system."""

    def __init__(self, wl, script, reference, spans=None):
        self.wl = wl
        self.script = script
        self.reference = reference
        self.spans = spans
        self.latencies = []
        #: Reference kernel sample taken right after the set-up and after
        #: each steady tick (``reference.py``).
        self.setup_ref = 0.0
        self.tick_refs = []
        self.ticks = []
        self.observed = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.moves = 0
        self.updates = 0
        self.worker_hwm_mb = 0.0

    def run(self, n_ticks: int) -> "Pass":
        """Set up, then play the script's first ``n_ticks`` steady ticks."""
        system = make_system(self.wl, self.script, self.spans)
        spans = self.spans
        with contextlib.ExitStack() as stack:
            stack.callback(system.close)
            if spans is not None:
                spans.tick = 0
                spans.wrap(system, "setup", "setup")
                spans.wrap(system, "tick", "tick")
                self.gc = stack.enter_context(GcPauses(spans))
            self._drive(system, n_ticks)
        return self

    def _drive(self, system, n_ticks) -> None:
        spans = self.spans
        n_specs = len(self.script.specs)
        self.setup_s = system.setup()
        self.setup_ref = self.reference.sample()
        self.attempted += n_specs
        self._observe(system, 0)
        system.decisions.reset()
        self.before = system.counters() if spans is not None else {}
        changes0 = system.changes
        started = time.perf_counter()
        t = self.n_ticks = 0
        while t < n_ticks and time.perf_counter() - started < TICK_BUDGET_S:
            t = self.n_ticks = t + 1
            inp = self.script.tick(t)
            events = inp.events()
            if spans is not None:
                spans.tick = t
            self.attempted += n_specs
            try:
                elapsed = system.tick(inp, events)
            except Exception as exc:  # noqa: BLE001 - counted as failed operations
                self.failed += n_specs
                self.errors.append(f"tick {t}: {type(exc).__name__}: {exc}")
            else:
                self.tick_refs.append(self.reference.sample())
                self.latencies.append(elapsed)
                self.ticks.append(t)
                self.moves += len(events.moves)
                self.updates += (
                    len(events.moves) + len(events.inserts) + len(events.removes)
                )
            if t in self.script.checks:
                self._observe(system, t)
        if spans is not None:
            spans.tick = -1
        self.changes = system.changes - changes0
        self.after = system.counters() if spans is not None else {}
        self.decisions = system.decisions
        self.worker_hwm_mb = system.worker_hwm_mb()

    def _observe(self, system, tick: int) -> None:
        check = self.script.checks[tick]
        self.observed[tick] = {
            spec.name: system.answers.get(spec.name, frozenset())
            for spec in check.specs
        }


def _extra_setup(wl, script, reference) -> "tuple[float, float, float]":
    """One more set-up: its time, the kernel sample right after it, and
    the shard workers' peak memory."""
    system = make_system(wl, script)
    try:
        elapsed = system.setup()
        return elapsed, reference.sample(), system.worker_hwm_mb()
    finally:
        system.close()


def _plant_wrong(observed) -> None:
    """Corrupt the first sampled answer (self-test of the answer check)."""
    tick = min(observed)
    name = sorted(observed[tick])[0]
    answer = observed[tick][name]
    observed[tick][name] = answer - {min(answer)} if answer else frozenset({-1})


def end_to_end(p: Pass, setups, setup_refs, hwm_mb: float) -> dict:
    """The end-to-end metrics, times at the reference kernel's nominal
    speed (``reference.py``)."""
    out = times(scale_each(p.latencies, p.tick_refs), scale_each(setups, setup_refs))
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + hwm_mb
    )
    return out


def times(latencies, setups) -> dict:
    """The end-to-end time metrics of steady-tick latencies and set-up
    times (in seconds)."""
    return {
        "setup_s": statistics.median(setups),
        "tick_p50_ms": 1e3 * statistics.median(latencies),
        "tick_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "ticks_per_s": len(latencies) / sum(latencies),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(p: Pass, untraced: Pass) -> dict:
    totals = TickTotals(p.spans)
    ticks = p.ticks
    n = len(ticks)

    def ms(table, *names):
        return 1e3 * totals.mean(table, ticks, *names)

    d = {key: p.after[key] - p.before.get(key, 0) for key in p.after}
    dec = p.decisions
    decisions = dec.evaluated + dec.skipped
    rows = d["store.rows_scanned"]
    probes = d["probe_hits"] + d["probe_misses"]
    pred_calls = d["predicates.filter_hits"] + d["predicates.exact_fallbacks"]
    net_requests = d["metric.cache_hits"] + d["metric.cache_misses"]
    evals = totals.total(totals.calls, ticks, "queries.tick")
    eval_time = totals.total(totals.dur, ticks, "queries.tick")
    stragglers = []
    for t in ticks:
        ends = totals.ends.get((t, "serving.recv"))
        if ends:
            stragglers.append(max(ends) - min(ends))
    tick_wall = totals.total(totals.dur, ticks, "tick")
    unattributed = totals.total(
        totals.self_time, ticks, "tick", "engine.simulation.step"
    )
    # The two passes ran minutes apart on a host whose speed drifts, so
    # their means are compared at the reference speed.
    traced_mean = statistics.fmean(scale_each(
        [totals.dur.get((t, "tick"), 0.0) for t in ticks], p.tick_refs
    ))
    untraced_mean = statistics.fmean(scale_each(untraced.latencies, untraced.tick_refs))
    return {
        "grid.ingest_ms": ms(totals.self_time, "grid.apply_updates"),
        "grid.updates": p.updates / n,
        "grid.moves": p.moves / n,
        "grid.rows_scanned": rows / n,
        "grid.vectorized_fraction": _ratio(d["store.filter_rows"], rows),
        "grid.prefilter_ms": ms(totals.self_time, "grid.objects_within"),
        "engine.scheduler.dispatch_ms": ms(totals.dur, "engine.scheduler.affected"),
        "engine.scheduler.reindex_ms": ms(
            totals.dur, "engine.scheduler.update_footprint"
        ),
        "engine.scheduler.evaluated": d["evaluated"] / n,
        "engine.scheduler.decisions": decisions / n,
        "engine.scheduler.skip_ratio": _ratio(dec.skipped, decisions),
        "engine.scheduler.evals_per_move": _ratio(dec.evaluated, p.moves),
        "engine.scheduler.waste_ratio": _ratio(dec.unchanged, dec.evaluated),
        "engine.batch.order_ms": ms(totals.dur, "engine.batch.order"),
        "engine.batch.probes": probes / n,
        "engine.batch.sharing_ratio": _ratio(d["probe_hits"], probes),
        "queries.eval_ms": ms(totals.dur, "queries.tick"),
        "queries.eval_us": 1e6 * _ratio(eval_time, evals),
        "queries.evaluations": evals / n,
        "queries.footprint_ms": ms(totals.dur, "queries.footprint"),
        "queries.skip_ms": ms(totals.dur, "queries.skip_tick"),
        "queries.search_ops": _ratio(d["search_calls"], dec.evaluated),
        "queries.initial_ms": 1e3 * _ratio(
            totals.name_dur["queries.initial"], totals.name_calls["queries.initial"]
        ),
        "geometry.predicates.calls": pred_calls / n,
        "geometry.predicates.fallback_ratio": _ratio(
            d["predicates.exact_fallbacks"], pred_calls
        ),
        "engine.manager.publish_ms": ms(totals.self_time, "engine.manager.step"),
        "engine.manager.changes": p.changes / n,
        "engine.simulation.glue_ms": ms(totals.self_time, "engine.simulation.step"),
        "obs.flight.hooks_ms": ms(
            totals.dur, "obs.flight.before_tick", "obs.flight.observe",
            "obs.flight.capture",
        ),
        "obs.flight.captures": totals.total(totals.calls, ticks, "obs.flight.capture"),
        "metric.dijkstra_runs": d["metric.dijkstra_runs"] / n,
        "metric.dijkstra_expansions": d["metric.dijkstra_expansions"] / n,
        "metric.cache_requests": net_requests / n,
        "metric.cache_hit_ratio": _ratio(d["metric.cache_hits"], net_requests),
        "serving.send_ms": ms(totals.dur, "serving.send"),
        "serving.wait_ms": ms(totals.dur, "serving.recv"),
        "serving.straggler_ms": 1e3 * statistics.fmean(stragglers) if stragglers else 0.0,
        "serving.merge_ms": ms(totals.self_time, "serving.cluster.tick"),
        "serving.publish_ms": ms(totals.self_time, "serving.gateway.tick"),
        "serving.request_bytes": totals.mean(totals.value, ticks, "serving.send"),
        "serving.reply_bytes": totals.mean(totals.value, ticks, "serving.recv"),
        "serving.evaluated": d["evaluated"] / n if p.wl.served else 0.0,
        "runtime.gc_ms": 1e3 * sum(p.gc.by_tick.get(t, 0.0) for t in ticks) / n,
        "trace.overhead_ratio": traced_mean / untraced_mean,
        "trace.attributed_fraction": 1.0 - unattributed / tick_wall,
        "trace.untraced_tick_ms": 1e3 * untraced_mean,
        "trace.traced_tick_ms": 1e3 * traced_mean,
    }


def host_record() -> dict:
    import networkx
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
    }


def tick_count(wl, seconds: float, smoke: bool) -> int:
    """Steady ticks one run plays: ``seconds`` at the workload's nominal
    rate, so every run of a workload does the same work whatever the
    host's speed (at least ``MIN_TICKS``; ``SMOKE_TICKS`` when smoke)."""
    if smoke:
        return SMOKE_TICKS
    return max(MIN_TICKS, math.ceil(seconds * wl.params["nominal_ticks_per_s"]))


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the shard workers it forks on
    one CPU: one tick is in flight at a time, so nothing runs in parallel,
    and every hand-off between client and worker stays a context switch
    on a running CPU instead of waking another (virtual) CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        plant_wrong: bool = False) -> dict:
    """One benchmark run; returns the full record (result under
    ``"result"``)."""
    # First, so the kernel's objects sit together in fresh memory rather
    # than in whatever slots the script's generation freed.
    reference = Reference()
    wl = resolve(name, smoke)
    n_ticks = tick_count(wl, seconds, smoke)
    if trace:
        n_ticks = max(n_ticks // 2, 1)
    script = make_script(wl, seed)
    # The whole update script exists before any system does, and its
    # long-lived objects (ticks, generator agents, road graph) leave the
    # collector's view, so collection pauses scale with the program's
    # heap alone and no input is generated while the program runs.
    script.tick(n_ticks)
    pin_to_one_cpu()
    gc.collect()
    gc.freeze()
    series = {}
    if trace:
        # Warmed like an untraced run's measured pass, so the overhead
        # ratio compares two warm passes.
        _extra_setup(wl, script, reference)
        untraced = Pass(wl, script, reference).run(n_ticks)
        spans = Spans()
        traced = Pass(wl, script, reference, spans).run(n_ticks)
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced)
        units = declared_units("per_layer")
    else:
        # The extra set-ups come first and warm the process (allocator
        # arenas, lazily imported modules) for the measured ticks.
        setups, setup_refs, hwm = [], [], 0.0
        while len(setups) < SETUP_REPEATS - 1 or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS - 1
        ):
            elapsed, ref, worker_mb = _extra_setup(wl, script, reference)
            setups.append(elapsed)
            setup_refs.append(ref)
            hwm = max(hwm, worker_mb)
        main = Pass(wl, script, reference).run(n_ticks)
        setups.append(main.setup_s)
        setup_refs.append(main.setup_ref)
        hwm = max(hwm, main.worker_hwm_mb)
        passes = [main]
        metrics = end_to_end(main, setups, setup_refs, hwm)
        units = declared_units("end_to_end")
        series = {
            "raw": times(main.latencies, setups),
            "setups_s": setups,
            "setup_refs_s": setup_refs,
            "ticks_s": main.latencies,
            "tick_refs_s": main.tick_refs,
        }
    if plant_wrong:
        _plant_wrong(passes[0].observed)
    wrong = []
    for p in passes:
        wrong += verify(script, p.observed)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(wrong)
    checked = sum(len(obs) for p in passes for obs in p.observed.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
    }
    record = {
        "host": host_record(),
        "workload": {"name": wl.name, "why": wl.why, "seed": seed,
                     "smoke": smoke, "served": wl.served, "params": wl.params},
        "run": {
            "seconds": seconds,
            "trace": trace,
            "steady_ticks": [len(p.ticks) for p in passes],
            "setup_repeats": 1 if trace else len(setups),
            "checked_answers": checked,
            "not_measured": list(WORKER_SIDE) if trace and wl.served else [],
            "errors": [e for p in passes for e in p.errors] + wrong,
            "reference_nominal_s": NOMINAL_S,
            "reference_median_s": statistics.median(reference.samples),
        },
        "series": series,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}{'-smoke' if smoke else ''}"
    (OUT / f"{tag}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    if trace:
        spans.dump(OUT / f"{tag}.spans.jsonl")
    return record


def _print_metrics(name: str, result: dict, not_measured=()) -> None:
    for key, metric in result["metrics"].items():
        note = "  (not measured: runs in the shard workers)" if key in not_measured else ""
        print(f"  {name:12s} {key:36s} {metric['value']:14.4f} {metric['unit']}{note}")


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload untraced and traced, plus the planted-wrong-answer
    self-check; non-zero exit when anything is wrong."""
    ok = True
    base = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
            "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    jobs = [(name, trace, False) for name in WORKLOADS for trace in (0, 1)]
    jobs.append(("mono-steady", 0, True))
    for name, trace, plant in jobs:
        cmd = base + ["--workload", name, "--trace", str(trace)]
        if plant:
            cmd.append("--plant-wrong")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if plant:
            # The planted wrong answer must be caught: exit 1, one failure.
            good = proc.returncode != 0 and result["failed"] >= 1
        else:
            good = proc.returncode == 0 and result["correct"]
        ok &= good
        print(f"[{'ok' if good else 'FAIL'}] {name} trace={trace}"
              f"{' planted-wrong' if plant else ''}: attempted"
              f" {result['attempted']} failed {result['failed']}")
        _print_metrics(name, result,
                       WORKER_SIDE if trace and WORKLOADS[name].served else ())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration of the workload")
    parser.add_argument("--all", action="store_true",
                        help="every workload, both modes, plus the self-check")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt one checked answer (self-test)")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        parser.error("--workload is required without --all")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke, args.plant_wrong)
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=10)
    print("# host " + json.dumps(record["host"], sort_keys=True))
    print("# workload " + json.dumps(record["workload"], sort_keys=True))
    print("# run " + json.dumps(record["run"], sort_keys=True))
    if record["series"]:
        print("# as measured, before scaling to the reference speed: "
              + json.dumps(record["series"]["raw"], sort_keys=True))
    _print_metrics(record["workload"]["name"], record["result"],
                   record["run"]["not_measured"])
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
