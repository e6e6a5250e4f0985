"""``igern`` command-line interface.

Subcommands:

- ``igern demo`` — run a small continuous query live and print per-tick
  answers (monochromatic by default, ``--bi`` for bichromatic);
- ``igern experiment <id|all>`` — regenerate one (or every) figure of the
  paper and print its table; ``--csv DIR`` also writes CSV files;
- ``igern obs`` — replay a workload with the per-query cost ledger and
  metrics enabled and print the per-phase span breakdown (``--top N``
  truncates it) plus a Prometheus-style snapshot;
- ``igern obs explain <query>`` — replay a workload and print the cost
  ledger's account of one query at one tick (``--tick N``);
- ``igern bench run|check`` — execute the committed benchmark workloads;
  ``run`` refreshes the ``BENCH_*.json`` baselines, ``check`` re-measures
  into a scratch directory and exits non-zero when any gated metric
  regresses beyond its tolerance (the CI perf gate);
- ``igern trace`` — record a reproducible moving-object trace to CSV;
- ``igern fuzz run|replay|corpus`` — differential fuzzing: run a seeded
  scenario sweep (shrinking and saving any failures as replayable JSON
  artifacts), replay an artifact, or check the committed corpus;
- ``igern list`` — list the available experiments.

``demo`` and ``experiment`` additionally accept ``--trace FILE`` (JSON
lines, one object per ledger entry), ``--metrics FILE`` (Prometheus text), and
``--chrome-trace FILE`` (Chrome/Perfetto ``trace_event`` timeline) to
capture observability data from any run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.engine.workload import (
    WorkloadSpec,
    build_generator,
    build_network,
    build_simulator,
    central_object,
    set_default_batch,
)
from repro.experiments.figures import ALL_EXPERIMENTS
from repro.experiments.harness import ExperimentResult
from repro.experiments.report import experiment_table, write_csv
from repro.metric import NetworkMetric
from repro.motion.trace import Trace
from repro.queries import (
    BruteForceBiQuery,
    BruteForceMonoQuery,
    IGERNBiQuery,
    IGERNMonoQuery,
    NetworkBruteBiQuery,
    NetworkBruteMonoQuery,
    QueryPosition,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igern",
        description=(
            "Continuous reverse nearest neighbor monitoring (IGERN, ICDE"
            " 2007 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a small live demo query")
    demo.add_argument("--bi", action="store_true", help="bichromatic query")
    demo.add_argument("-n", "--objects", type=int, default=2000)
    demo.add_argument("--ticks", type=int, default=10)
    demo.add_argument("--grid", type=int, default=64)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument(
        "--check", action="store_true", help="verify each tick against brute force"
    )
    demo.add_argument(
        "--metric",
        choices=("euclidean", "network"),
        default="euclidean",
        help="distance metric: 'euclidean' (the paper's setting) or"
        " 'network' (shortest-path over the workload's road network,"
        " filter-and-refine core, networkx brute oracle under --check)",
    )
    demo.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share verification probes across co-evaluated queries (--no-batch for"
        " the pre-batching execution path; answers are identical)",
    )
    _add_obs_flags(demo)

    exp = sub.add_parser("experiment", help="regenerate a paper figure")
    exp.add_argument("exp_id", help="experiment id (see 'igern list') or 'all'")
    exp.add_argument("--scale", type=float, default=None, help="workload scale")
    exp.add_argument("--seed", type=int, default=7)
    exp.add_argument("--csv", type=Path, default=None, help="directory for CSV output")
    exp.add_argument(
        "--markdown", type=Path, default=None, help="write a markdown report here"
    )
    exp.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share verification probes across co-evaluated queries (--no-batch for"
        " the pre-batching execution path; answers are identical)",
    )
    _add_obs_flags(exp)

    obs_cmd = sub.add_parser(
        "obs",
        help="replay a workload with the cost ledger on; print the phase breakdown",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=False)
    _add_obs_workload_flags(obs_cmd)
    obs_cmd.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N hottest span rows (by self time)",
    )
    _add_obs_flags(obs_cmd)

    obs_explain = obs_sub.add_parser(
        "explain",
        help="replay a workload and print the cost ledger's account of"
        " one query at one tick",
    )
    obs_explain.add_argument("query", help="query name (e.g. 'igern', 'q3')")
    obs_explain.add_argument(
        "--tick",
        type=int,
        default=None,
        help="tick to explain (default: the query's most recent tick)",
    )
    _add_obs_workload_flags(obs_explain)

    bench = sub.add_parser(
        "bench", help="run or gate the committed performance baselines"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run",
        help="execute benchmark workloads and refresh the BENCH_*.json"
        " baselines at the repo root",
    )
    bench_run.add_argument(
        "names", nargs="*", metavar="NAME", help="benchmarks (default: all)"
    )
    bench_run.add_argument(
        "--quick", action="store_true", help="CI-sized workloads"
    )
    bench_run.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write results here instead of the repo root",
    )

    bench_check = bench_sub.add_parser(
        "check",
        help="re-measure into a scratch directory and compare against the"
        " committed baselines; exit 1 on regression",
    )
    bench_check.add_argument(
        "names", nargs="*", metavar="NAME", help="benchmarks (default: all)"
    )
    bench_check.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workloads; only scale-free metrics are compared",
    )
    bench_check.add_argument(
        "--no-run",
        action="store_true",
        help="skip measuring; compare existing results in --results-dir",
    )
    bench_check.add_argument(
        "--results-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="measure into DIR, or with --no-run compare the results in it"
        " (default: a temp directory)",
    )
    bench_check.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="where the baseline BENCH_*.json files live (default: repo root)",
    )
    bench_check.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the comparison rows as JSON",
    )

    trace = sub.add_parser("trace", help="record a moving-object trace to CSV")
    trace.add_argument("output", type=Path)
    trace.add_argument("-n", "--objects", type=int, default=1000)
    trace.add_argument("--ticks", type=int, default=50)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--bi", action="store_true", help="two object categories")
    trace.add_argument(
        "--network",
        choices=["grid_city", "delaunay", "walk", "jump"],
        default="grid_city",
    )

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing against the brute-force oracle"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a seeded differential scenario sweep"
    )
    fuzz_run.add_argument(
        "--seed",
        default="0",
        help="base seed: an integer, or 'from-week-number' for a seed that"
        " rotates weekly (CI)",
    )
    fuzz_run.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this much wall time",
    )
    fuzz_run.add_argument(
        "--scenarios",
        type=int,
        default=None,
        metavar="N",
        help="stop after N scenarios",
    )
    fuzz_run.add_argument(
        "--start", type=int, default=0, help="first scenario index (resume)"
    )
    fuzz_run.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the per-tick structural invariant checks",
    )
    fuzz_run.add_argument(
        "--artifacts",
        type=Path,
        default=Path("fuzz-failures"),
        metavar="DIR",
        help="directory for shrunk failure artifacts (default: fuzz-failures)",
    )
    fuzz_run.add_argument(
        "--no-shrink",
        action="store_true",
        help="save failing scenarios without minimizing them first",
    )
    fuzz_run.add_argument(
        "--exact-oracle",
        action="store_true",
        help="run the brute-force oracle in pure rational arithmetic"
        " (no float filters), the gold standard for the adaptive"
        " predicates",
    )
    fuzz_run.add_argument(
        "--serving",
        action="store_true",
        help="also run every scenario through a 3-shard serving cluster"
        " and require bit-identical answers and lease decisions",
    )
    _add_obs_flags(fuzz_run)

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run saved failure artifacts"
    )
    fuzz_replay.add_argument("artifacts", type=Path, nargs="+", metavar="FILE")

    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="replay the committed regression corpus"
    )
    fuzz_corpus.add_argument(
        "--dir",
        type=Path,
        default=None,
        help="corpus directory (default: tests/fuzz_corpus)",
    )

    serve = sub.add_parser(
        "serve", help="run the sharded serving layer over a synthetic workload"
    )
    serve.add_argument("-n", "--objects", type=int, default=2000)
    serve.add_argument("--queries", type=int, default=32)
    serve.add_argument("--ticks", type=int, default=20)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument(
        "--transport",
        choices=["inline", "process"],
        default="process",
        help="inline runs shards in the gateway process (debugging);"
        " process gives each shard its own worker (default)",
    )
    serve.add_argument("--grid", type=int, default=64)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--move-fraction",
        type=float,
        default=0.2,
        help="fraction of objects jittered each tick (default: 0.2)",
    )
    serve.add_argument("--k", type=int, default=1)
    serve.add_argument("--bi", action="store_true", help="bichromatic queries")
    serve.add_argument(
        "--quiet", action="store_true", help="suppress the per-tick delta log"
    )

    watch = sub.add_parser(
        "watch", help="render the monitored region live in the terminal"
    )
    watch.add_argument("-n", "--objects", type=int, default=400)
    watch.add_argument("--ticks", type=int, default=6)
    watch.add_argument("--grid", type=int, default=24)
    watch.add_argument("--seed", type=int, default=13)

    sub.add_parser("list", help="list available experiments")
    return parser


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="stream every cost-ledger entry of the run to FILE as JSON lines",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a Prometheus-style metrics snapshot to FILE",
    )
    parser.add_argument(
        "--chrome-trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the ledger timeline as Chrome/Perfetto trace_event JSON"
        " (open in chrome://tracing or ui.perfetto.dev)",
    )


def _add_obs_workload_flags(parser: argparse.ArgumentParser) -> None:
    """The workload-selection flags shared by ``obs`` and ``obs explain``."""
    parser.add_argument(
        "--workload",
        default="demo",
        help="'demo' (default: mono + bi IGERN side by side) or an"
        " experiment id (see 'igern list')",
    )
    parser.add_argument("-n", "--objects", type=int, default=2000)
    parser.add_argument("--ticks", type=int, default=10)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=None, help="experiment scale")


class _ObsSession:
    """Observability state for one CLI run: enable, sinks, final export.

    For ``demo``/``experiment`` it activates only when ``--trace``,
    ``--metrics`` or ``--chrome-trace`` was given; ``igern obs`` forces
    it on.
    """

    def __init__(self, args: argparse.Namespace, force: bool = False):
        self.trace_path = getattr(args, "trace", None)
        self.metrics_path = getattr(args, "metrics", None)
        self.chrome_path = getattr(args, "chrome_trace", None)
        self.active = (
            force
            or self.trace_path is not None
            or self.metrics_path is not None
            or self.chrome_path is not None
        )
        self._sink = None
        self.ledger = None
        self.registry = None
        if self.active:
            self.ledger, self.registry = obs.enable()
            self.ledger.clear()
            self.registry.clear()
            if self.trace_path is not None:
                try:
                    self._sink = obs.JsonLinesSink(self.trace_path)
                except OSError as exc:
                    obs.disable()
                    raise SystemExit(f"cannot open trace file: {exc}")
                self.ledger.add_sink(self._sink)

    def finish(self) -> None:
        """Write requested outputs and return observability to idle."""
        if not self.active:
            return
        if self._sink is not None:
            self.ledger.remove_sink(self._sink)
            self._sink.close()
            print(f"wrote ledger trace to {self.trace_path}")
        if self.metrics_path is not None:
            try:
                obs.write_metrics_text(self.metrics_path, self.registry)
            except OSError as exc:
                obs.disable()
                raise SystemExit(f"cannot write metrics file: {exc}")
            print(f"wrote metrics snapshot to {self.metrics_path}")
        if self.chrome_path is not None:
            try:
                obs.write_chrome_trace(self.chrome_path, self.ledger)
            except OSError as exc:
                obs.disable()
                raise SystemExit(f"cannot write chrome trace file: {exc}")
            print(f"wrote chrome trace to {self.chrome_path}")
        obs.disable()


def _run_demo(args: argparse.Namespace) -> int:
    session = _ObsSession(args)
    spec = WorkloadSpec(
        n_objects=args.objects,
        grid_size=args.grid,
        seed=args.seed,
        bichromatic=args.bi,
    )
    sim = build_simulator(spec, batch=args.batch)
    network = build_network(spec) if args.metric == "network" else None
    metric = NetworkMetric(network) if network is not None else None
    if args.bi:
        qid = central_object(sim, "A")
        pos = QueryPosition(sim.grid, query_id=qid)
        sim.add_query("igern", IGERNBiQuery(sim.grid, pos, metric=metric))
        if args.check and network is not None:
            sim.add_query("brute", NetworkBruteBiQuery(sim.grid, pos, network))
        elif args.check:
            sim.add_query("brute", BruteForceBiQuery(sim.grid, pos))
    else:
        qid = central_object(sim)
        pos = QueryPosition(sim.grid, query_id=qid)
        sim.add_query("igern", IGERNMonoQuery(sim.grid, pos, metric=metric))
        if args.check and network is not None:
            sim.add_query("brute", NetworkBruteMonoQuery(sim.grid, pos, network))
        elif args.check:
            sim.add_query("brute", BruteForceMonoQuery(sim.grid, pos))

    kind = "bichromatic" if args.bi else "monochromatic"
    print(
        f"{kind} IGERN demo ({args.metric} metric): {args.objects} objects,"
        f" grid {args.grid}x{args.grid}, query object {qid}"
    )
    result = sim.run(args.ticks)
    log = result["igern"]
    ok = True
    for metrics in log.ticks:
        line = (
            f"t={metrics.tick:3d}  answer={sorted(metrics.answer)!s:<28}"
            f" monitored={metrics.monitored:2d}"
            f" time={metrics.wall_time * 1e6:7.0f}us"
        )
        if args.check:
            expected = result["brute"].ticks[metrics.tick].answer
            match = metrics.answer == expected
            ok = ok and match
            line += f"  brute-check={'ok' if match else 'MISMATCH'}"
        print(line)
    if args.metric == "network":
        from repro.metric import STATS

        print(
            f"network distance: {STATS.dijkstra_runs} dijkstra runs,"
            f" {STATS.dijkstra_expansions} expansions,"
            f" sharing ratio {STATS.sharing_ratio:.2f}"
        )
    session.finish()
    if args.check:
        print("verification:", "all ticks match brute force" if ok else "FAILED")
        return 0 if ok else 1
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    if args.exp_id == "all":
        names = list(ALL_EXPERIMENTS)
    elif args.exp_id in ALL_EXPERIMENTS:
        names = [args.exp_id]
    else:
        print(
            f"unknown experiment {args.exp_id!r}; available: "
            f"{', '.join(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    # Experiments build their simulators internally; the flag threads
    # through the workload module's process-wide default.
    set_default_batch(args.batch)
    session = _ObsSession(args)
    if args.markdown is not None:
        from repro.experiments.summary import write_report

        path = write_report(
            args.markdown, scale=args.scale, seed=args.seed, experiments=names
        )
        session.finish()
        print(f"wrote markdown report to {path}")
        return 0
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
    for name in names:
        outcome = ALL_EXPERIMENTS[name](scale=args.scale, seed=args.seed)
        results: List[ExperimentResult]
        if isinstance(outcome, dict):
            results = list(outcome.values())
        else:
            results = [outcome]
        for result in results:
            print(experiment_table(result))
            print()
            if args.csv is not None:
                write_csv(result, args.csv / f"{result.exp_id}.csv")
    session.finish()
    return 0


def _replay_obs_workload(args: argparse.Namespace) -> Optional[str]:
    """Run the selected workload under observability; None if unknown."""
    if args.workload == "demo":
        _obs_demo_workload(args)
        return f"demo workload ({args.objects} objects, {args.ticks} ticks)"
    if args.workload in ALL_EXPERIMENTS:
        ALL_EXPERIMENTS[args.workload](scale=args.scale, seed=args.seed)
        return f"experiment {args.workload}"
    print(
        f"unknown workload {args.workload!r}; use 'demo' or one of: "
        f"{', '.join(ALL_EXPERIMENTS)}",
        file=sys.stderr,
    )
    return None


def _run_obs(args: argparse.Namespace) -> int:
    if getattr(args, "obs_command", None) == "explain":
        return _run_obs_explain(args)
    session = _ObsSession(args, force=True)
    title = _replay_obs_workload(args)
    if title is None:
        obs.disable()
        return 2
    print(f"observability replay: {title}")
    print()
    print(obs.summary_table(session.ledger, session.registry, top=args.top))
    if args.metrics is None:
        print()
        print("prometheus snapshot")
        print(obs.prometheus_text(session.registry), end="")
    session.finish()
    return 0


def _run_obs_explain(args: argparse.Namespace) -> int:
    session = _ObsSession(args, force=True)
    title = _replay_obs_workload(args)
    if title is None:
        obs.disable()
        return 2
    report = obs.get_ledger().explain(args.query, tick=args.tick)
    session.finish()
    print(f"observability replay: {title}")
    print()
    print(report)
    return 0


def _obs_demo_workload(args: argparse.Namespace) -> None:
    """Mono and bi IGERN side by side over the same spec."""
    spec = WorkloadSpec(n_objects=args.objects, grid_size=args.grid, seed=args.seed)
    sim = build_simulator(spec)
    qid = central_object(sim)
    sim.add_query("igern", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid)))
    sim.run(args.ticks)

    bi_spec = WorkloadSpec(
        n_objects=args.objects, grid_size=args.grid, seed=args.seed, bichromatic=True
    )
    bi_sim = build_simulator(bi_spec)
    bi_qid = central_object(bi_sim, "A")
    bi_sim.add_query(
        "igern-bi", IGERNBiQuery(bi_sim.grid, QueryPosition(bi_sim.grid, query_id=bi_qid))
    )
    bi_sim.run(args.ticks)


def _run_trace(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        n_objects=args.objects,
        seed=args.seed,
        network=args.network,
        bichromatic=args.bi,
    )
    generator = build_generator(spec)
    trace = Trace.record(generator, args.ticks)
    trace.save(args.output)
    print(
        f"recorded {trace.n_objects} objects x {len(trace)} ticks"
        f" ({args.network}) -> {args.output}"
    )
    return 0


def _parse_fuzz_seed(raw: str) -> int:
    """An explicit integer, or a seed derived from the current ISO week.

    ``from-week-number`` lets a scheduled CI job sweep a fresh slice of
    the scenario space every week while staying reproducible within the
    week (a failure seen Monday replays identically on Friday).
    """
    if raw == "from-week-number":
        import datetime

        year, week, _ = datetime.date.today().isocalendar()
        return year * 100 + week
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(
            f"invalid --seed {raw!r}: expected an integer or 'from-week-number'"
        )


def _run_fuzz_cmd(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        corpus_entries,
        artifact_name,
        replay_artifact,
        run_fuzz,
        save_artifact,
        shrink,
    )

    if args.fuzz_command == "run":
        if args.budget is None and args.scenarios is None:
            raise SystemExit("fuzz run needs --budget and/or --scenarios")
        session = _ObsSession(args)
        seed = _parse_fuzz_seed(args.seed)
        report = run_fuzz(
            seed=seed,
            budget_seconds=args.budget,
            max_scenarios=args.scenarios,
            start=args.start,
            check_invariants=not args.no_invariants,
            exact_oracle=args.exact_oracle,
            serving=args.serving,
        )
        print(report.summary())
        for result in report.failures:
            sc = result.scenario
            print(f"\nFAIL {sc.label}")
            for d in result.divergences[:8]:
                print(f"  {d.describe()}")
            saved = result
            if not args.no_shrink:
                outcome = shrink(result.scenario, result)
                saved = outcome.result
                print(
                    f"  shrunk {outcome.original_objects}->{outcome.objects}"
                    f" objects, {outcome.original_ticks}->{outcome.ticks}"
                    f" ticks in {outcome.runs} runs"
                )
            path = save_artifact(
                args.artifacts / artifact_name(saved),
                saved,
                note=f"igern fuzz run --seed {args.seed} (index {sc.index})",
            )
            print(f"  artifact: {path}")
        session.finish()
        return 1 if report.failures else 0

    if args.fuzz_command == "replay":
        bad = 0
        for path in args.artifacts:
            result = replay_artifact(path)
            if result.ok:
                print(f"{path}: ok ({result.ticks} ticks, no divergence)")
            else:
                bad += 1
                print(f"{path}: {len(result.divergences)} divergence(s)")
                for d in result.divergences[:8]:
                    print(f"  {d.describe()}")
        return 1 if bad else 0

    if args.fuzz_command == "corpus":
        entries = corpus_entries(args.dir)
        if not entries:
            print("corpus is empty")
            return 0
        bad = 0
        for path in entries:
            result = replay_artifact(path)
            status = "ok" if result.ok else f"{len(result.divergences)} divergence(s)"
            bad += 0 if result.ok else 1
            print(f"{path.name}: {status}")
            for d in result.divergences[:4]:
                print(f"  {d.describe()}")
        print(f"{len(entries)} corpus entries, {bad} failing")
        return 1 if bad else 0
    return 2


def _run_bench(args: argparse.Namespace) -> int:
    from repro import bench as bench_mod

    try:
        benches = bench_mod.resolve(args.names)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))

    if args.bench_command == "run":
        out_dir = args.out_dir or bench_mod.REPO_ROOT
        for bench in benches:
            print(f"running benchmark {bench.name} ...", flush=True)
            try:
                path = bench_mod.run_benchmark(bench, out_dir, quick=args.quick)
            except RuntimeError as exc:
                print(f"FAIL {bench.name}: {exc}", file=sys.stderr)
                return 1
            print(f"  wrote {path}")
        return 0

    if args.bench_command == "check":
        baseline_dir = args.baseline_dir or bench_mod.REPO_ROOT
        results_dir = args.results_dir
        failures = {}
        if args.no_run:
            if results_dir is None:
                raise SystemExit("bench check --no-run needs --results-dir")
        else:
            if results_dir is None:
                import tempfile

                scratch = tempfile.TemporaryDirectory(prefix="igern-bench-")
                results_dir = Path(scratch.name)
            for bench in benches:
                print(f"measuring benchmark {bench.name} ...", flush=True)
                try:
                    bench_mod.run_benchmark(bench, results_dir, quick=args.quick)
                except RuntimeError as exc:
                    # Keep measuring the rest; the failure is a regression row.
                    print(f"FAIL {bench.name}: {exc}", file=sys.stderr)
                    failures[bench.name] = str(exc).partition("\n")[0]
        rows = bench_mod.check_benchmarks(
            benches, baseline_dir, results_dir, quick=args.quick, failures=failures
        )
        print(bench_mod.format_rows(rows))
        if args.report is not None:
            args.report.write_text(json.dumps(rows, indent=2) + "\n")
            print(f"wrote report to {args.report}")
        if bench_mod.has_regression(rows):
            print("bench check: REGRESSION")
            return 1
        print("bench check: ok")
        return 0
    return 2


def _run_watch(args: argparse.Namespace) -> int:
    from repro.viz import render_query_state

    spec = WorkloadSpec(n_objects=args.objects, grid_size=args.grid, seed=args.seed)
    sim = build_simulator(spec)
    qid = central_object(sim)
    query = IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
    sim.add_query("rnn", query)

    def show(tick, simulator):
        print(
            f"--- t={tick}  answer={sorted(query.answer)} "
            f"monitored={query.monitored_count} "
            f"alive cells={query.monitored_region_cells}"
        )
        print(render_query_state(query._state, simulator.grid))
        print()

    sim.run(0)
    show(0, sim)
    sim.run(args.ticks, on_tick=show)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import random

    from repro.obs.metrics import MetricsRegistry
    from repro.serving import AsyncGateway, QuerySpec, ShardCluster

    registry = MetricsRegistry()
    rng = random.Random(args.seed)
    cats = ("A", "B") if args.bi else (0,)
    initial = [
        (i, rng.random(), rng.random(), cats[i % len(cats)])
        for i in range(args.objects)
    ]
    moved_per_tick = max(1, int(args.objects * args.move_fraction))

    async def run() -> int:
        cluster = ShardCluster(
            args.shards,
            grid_size=args.grid,
            transport=args.transport,
            registry=registry,
            mp_context="fork" if args.transport == "process" else None,
        )
        with cluster:
            gateway = AsyncGateway(cluster)
            await gateway.load(initial)
            queues = {}
            for i in range(args.queries):
                spec = QuerySpec(
                    name=f"q{i}",
                    mode="bi" if args.bi else "mono",
                    point=(rng.random(), rng.random()),
                    k=args.k,
                )
                queues[spec.name] = await gateway.subscribe(spec)
            await gateway.initial_eval()
            for name, queue in queues.items():
                while not queue.empty():
                    delta = queue.get_nowait()
                    if not args.quiet:
                        print(f"t={delta.tick} {name} answer={list(delta.answer)}")
            for _ in range(args.ticks):
                for oid in rng.sample(range(args.objects), moved_per_tick):
                    await gateway.submit_move(oid, rng.random(), rng.random())
                result = await gateway.tick()
                published = 0
                for name, queue in queues.items():
                    while not queue.empty():
                        delta = queue.get_nowait()
                        published += 1
                        if not args.quiet:
                            print(
                                f"t={delta.tick} {name} "
                                f"+{list(delta.added)} -{list(delta.removed)}"
                                f" answer={list(delta.answer)}"
                            )
                print(
                    f"tick {result.tick}: {moved_per_tick} updates,"
                    f" {published} answer deltas"
                )
            cluster.collect_counters()
            p50 = cluster.tick_latency_percentile(50)
            p99 = cluster.tick_latency_percentile(99)
            print(
                f"\n{args.ticks} ticks on {args.shards}"
                f" {args.transport} shard(s):"
                f" p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms"
            )
            for metric in cluster.merged_registry().collect():
                if metric.name.startswith("gateway_") and metric.kind == "counter":
                    print(f"  {metric.name} = {metric.value}")
            await gateway.close()
        return 0

    return asyncio.run(run())


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "fuzz":
        return _run_fuzz_cmd(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "watch":
        return _run_watch(args)
    if args.command == "list":
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
