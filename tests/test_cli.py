"""Tests for the ``igern`` command-line interface."""

from repro.cli import main


class TestDemo:
    def test_mono_demo_with_check(self, capsys):
        rc = main(["demo", "-n", "200", "--ticks", "3", "--grid", "16", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "monochromatic" in out
        assert "all ticks match brute force" in out

    def test_bi_demo_with_check(self, capsys):
        rc = main(
            ["demo", "--bi", "-n", "200", "--ticks", "3", "--grid", "16", "--check"]
        )
        assert rc == 0
        assert "bichromatic" in capsys.readouterr().out


class TestExperiment:
    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_single_experiment_with_csv(self, tmp_path, capsys):
        rc = main(
            ["experiment", "fig5", "--scale", "0.05", "--csv", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "fig5b" in out
        assert (tmp_path / "fig5a.csv").exists()
        assert (tmp_path / "fig5b.csv").exists()

    def test_scalar_experiment(self, capsys):
        rc = main(["experiment", "ablation-pies", "--scale", "0.05"])
        assert rc == 0
        assert "ablation-pies" in capsys.readouterr().out


class TestTrace:
    def test_record_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        rc = main(["trace", str(path), "-n", "30", "--ticks", "5"])
        assert rc == 0
        assert path.exists()
        assert "recorded 30 objects x 5 ticks" in capsys.readouterr().out

        from repro.motion.trace import Trace

        loaded = Trace.load(path)
        assert loaded.n_objects == 30
        assert len(loaded) == 5


class TestObs:
    def test_demo_workload_shows_phases_and_flavors(self, capsys):
        rc = main(["obs", "-n", "300", "--ticks", "3", "--grid", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        # Mono IGERN initial, incremental, and verification phases are
        # separately visible (the acceptance criterion), plus bi phases.
        assert "mono.initial" in out
        assert "mono.incremental" in out
        assert "mono.incremental.verify" in out
        assert "bi.initial" in out
        # All three search flavors appear in the Prometheus snapshot.
        for flavor in ("UNCONSTRAINED", "CONSTRAINED", "BOUNDED"):
            assert f'repro_search_calls_total{{kind="{flavor}"' in out

    def test_obs_on_experiment_workload(self, capsys):
        rc = main(["obs", "--workload", "fig5", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans (per-phase breakdown" in out
        assert "grid.search." in out

    def test_unknown_workload(self, capsys):
        rc = main(["obs", "--workload", "nope"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_obs_writes_trace_and_metrics_files(self, tmp_path, capsys):
        trace = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.prom"
        rc = main(
            [
                "obs", "-n", "200", "--ticks", "2", "--grid", "16",
                "--trace", str(trace), "--metrics", str(metrics),
            ]
        )
        assert rc == 0
        import json

        lines = trace.read_text().splitlines()
        assert lines
        names = {json.loads(line)["name"] for line in lines}
        assert "engine.tick" in names
        assert "repro_search_calls_total" in metrics.read_text()

    def test_demo_accepts_obs_flags(self, tmp_path, capsys):
        trace = tmp_path / "demo-trace.jsonl"
        rc = main(
            ["demo", "-n", "150", "--ticks", "2", "--grid", "16", "--trace", str(trace)]
        )
        assert rc == 0
        assert trace.exists() and trace.read_text().strip()
        assert str(trace) in capsys.readouterr().out

    def test_experiment_accepts_metrics_flag(self, tmp_path, capsys):
        metrics = tmp_path / "exp.prom"
        rc = main(
            ["experiment", "fig5", "--scale", "0.05", "--metrics", str(metrics)]
        )
        assert rc == 0
        assert "search_calls_total" in metrics.read_text()

    def test_obs_leaves_global_state_disabled(self):
        from repro import obs

        main(["obs", "-n", "150", "--ticks", "1", "--grid", "16"])
        assert obs.enabled() is False
        from repro.obs.metrics import active_registry

        assert active_registry() is None


class TestObsExplain:
    def test_explain_reports_a_query_tick(self, capsys):
        rc = main(
            ["obs", "explain", "igern", "-n", "200", "--ticks", "3",
             "--grid", "16", "--tick", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "query 'igern' tick 2" in out
        assert "tick totals" in out
        assert "attributed" in out

    def test_explain_defaults_to_latest_mention(self, capsys):
        rc = main(
            ["obs", "explain", "igern-bi", "-n", "200", "--ticks", "2",
             "--grid", "16"]
        )
        assert rc == 0
        assert "query 'igern-bi'" in capsys.readouterr().out

    def test_explain_unknown_query_is_helpful_not_fatal(self, capsys):
        rc = main(
            ["obs", "explain", "nope", "-n", "150", "--ticks", "1",
             "--grid", "16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no retained tick mentions" in out
        assert "igern" in out  # lists the known query names

    def test_summary_top_truncates_span_table(self, capsys):
        rc = main(
            ["obs", "-n", "200", "--ticks", "2", "--grid", "16", "--top", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "more span name(s)" in out

    def test_chrome_trace_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "timeline.json"
        rc = main(
            ["obs", "-n", "200", "--ticks", "2", "--grid", "16",
             "--chrome-trace", str(path)]
        )
        assert rc == 0
        assert str(path) in capsys.readouterr().out
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        # Span duration events plus the ledger's counter tracks.
        assert "X" in phases and "C" in phases
        names = {e["name"] for e in doc["traceEvents"]}
        assert "engine.tick" in names
        assert "ledger.query_wall_us" in names


class TestBench:
    def _degrade(self, directory):
        """Copies of the committed baselines with a degraded headline
        metric (speedup where one is gated, tick latency for serving,
        lease hold rates otherwise)."""
        import json
        import shutil

        from repro.bench import BENCHMARKS, REPO_ROOT

        directory.mkdir(parents=True, exist_ok=True)
        for bench in BENCHMARKS.values():
            target = directory / bench.result_file
            shutil.copy(REPO_ROOT / bench.result_file, target)
            doc = json.loads(target.read_text())
            if "speedup" in doc:
                doc["speedup"] = doc["speedup"] / 2.0
            elif "serving" in doc:
                doc["serving"]["p99_tick_seconds"] *= 4.0
                doc["serving"]["p50_tick_seconds"] *= 4.0
            else:
                doc["leases"]["hold_ratio"] /= 2.0
                doc["publications"]["skip_rate"] /= 2.0
            target.write_text(json.dumps(doc))
        return directory

    def _committed(self, directory):
        import shutil

        from repro.bench import BENCHMARKS, REPO_ROOT

        directory.mkdir(parents=True, exist_ok=True)
        for bench in BENCHMARKS.values():
            shutil.copy(
                REPO_ROOT / bench.result_file, directory / bench.result_file
            )
        return directory

    def test_check_passes_on_committed_baselines(self, tmp_path, capsys):
        results = self._committed(tmp_path / "results")
        rc = main(["bench", "check", "--no-run", "--results-dir", str(results)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench check: ok" in out
        assert "regression" not in out

    def test_check_fails_on_degraded_results(self, tmp_path, capsys):
        results = self._degrade(tmp_path / "degraded")
        rc = main(["bench", "check", "--no-run", "--results-dir", str(results)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "bench check: REGRESSION" in out
        assert "violates" in out

    def test_check_report_file(self, tmp_path, capsys):
        import json

        results = self._degrade(tmp_path / "degraded")
        report = tmp_path / "report.json"
        rc = main(
            ["bench", "check", "--no-run", "--results-dir", str(results),
             "--report", str(report)]
        )
        assert rc == 1
        rows = json.loads(report.read_text())
        assert any(r["status"] == "regression" for r in rows)
        assert {"benchmark", "metric", "status"} <= set(rows[0])

    def test_check_selects_single_benchmark(self, tmp_path, capsys):
        results = self._committed(tmp_path / "results")
        rc = main(
            ["bench", "check", "tick_throughput", "--no-run",
             "--results-dir", str(results)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tick_throughput" in out
        assert "batch_throughput" not in out

    def _fake_run(self, monkeypatch, failing=(), seen=None):
        """Replace the benchmark runner: benchmarks named in ``failing``
        fail their own assertions, the others copy their committed
        baseline into the results directory (recorded in ``seen``)."""
        import shutil

        from repro import bench as bench_mod

        def run(bench, out_dir, quick=False):
            if seen is not None:
                seen.append(out_dir)
            if bench.name in failing:
                raise RuntimeError(
                    f"benchmark {bench.name!r} failed its own assertions:\n"
                    "E   assert 1.2 >= 3.0"
                )
            out_dir.mkdir(parents=True, exist_ok=True)
            target = out_dir / bench.result_file
            shutil.copy(bench_mod.REPO_ROOT / bench.result_file, target)
            return target

        monkeypatch.setattr(bench_mod, "run_benchmark", run)

    def test_check_keeps_measuring_after_a_failed_benchmark(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        self._fake_run(monkeypatch, failing={"tick_throughput"})
        report = tmp_path / "report.json"
        rc = main(
            ["bench", "check", "tick_throughput", "lease_hold",
             "--report", str(report)]
        )
        assert rc == 1
        assert "bench check: REGRESSION" in capsys.readouterr().out
        rows = json.loads(report.read_text())
        failed = [r for r in rows if r["benchmark"] == "tick_throughput"]
        measured = [r for r in rows if r["benchmark"] == "lease_hold"]
        assert [r["status"] for r in failed] == ["regression"]
        assert failed[0]["detail"] == (
            "benchmark 'tick_throughput' failed its own assertions:"
        )
        assert measured and all(r["status"] == "ok" for r in measured)

    def test_check_measures_into_results_dir(self, tmp_path, monkeypatch, capsys):
        seen = []
        self._fake_run(monkeypatch, seen=seen)
        results = tmp_path / "measured" / "here"
        rc = main(["bench", "check", "lease_hold", "--results-dir", str(results)])
        assert rc == 0
        assert seen == [results]
        assert (results / "BENCH_lease_hold.json").exists()

    def test_no_run_requires_results_dir(self):
        import pytest

        with pytest.raises(SystemExit, match="--results-dir"):
            main(["bench", "check", "--no-run"])

    def test_unknown_benchmark_name(self):
        import pytest

        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["bench", "check", "nope", "--no-run", "--results-dir", "/tmp"])


class TestList:
    def test_lists_experiments(self, capsys):
        rc = main(["list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "cost-model" in out


class TestWatch:
    def test_renders_region_frames(self, capsys):
        rc = main(["watch", "-n", "100", "--ticks", "2", "--grid", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("--- t=") == 3  # initial + 2 ticks
        assert "Q" in out


class TestFuzz:
    def test_run_clean_batch(self, capsys):
        rc = main(["fuzz", "run", "--scenarios", "4", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        assert "0 divergences" in out

    def test_run_needs_a_budget(self):
        import pytest

        with pytest.raises(SystemExit, match="--budget"):
            main(["fuzz", "run"])

    def test_week_number_seed(self):
        from repro.cli import _parse_fuzz_seed

        assert _parse_fuzz_seed("7") == 7
        derived = _parse_fuzz_seed("from-week-number")
        assert isinstance(derived, int)
        assert derived > 2000_00  # year * 100 + ISO week

    def test_corpus_replays_committed_entries(self, capsys):
        rc = main(["fuzz", "corpus"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regression.json: ok" in out

    def test_replay_of_corpus_entry(self, capsys):
        from repro.fuzz import corpus_entries

        entry = corpus_entries()[0]
        rc = main(["fuzz", "replay", str(entry)])
        assert rc == 0
        assert "no divergence" in capsys.readouterr().out

    def test_run_reports_shrinks_and_saves_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.grid.search import GridSearch

        from tests.fuzz.conftest import leq_count_closer_than

        monkeypatch.setattr(
            GridSearch, "count_closer_than", leq_count_closer_than
        )
        rc = main(
            [
                "fuzz",
                "run",
                "--scenarios",
                "12",
                "--seed",
                "0",
                "--artifacts",
                str(tmp_path),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "shrunk" in out and "artifact:" in out
        assert list(tmp_path.glob("*.json"))
