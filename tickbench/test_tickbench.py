"""Self-tests of the tick benchmark.

Every workload at its smoke size emits every named metric with its unit
and passes the answer check; a planted wrong answer is counted as a
failed operation; the narrowed oracle agrees with the full brute-force
oracles; and the benchmark refuses to run without the program's sources.

    python3 -m pytest tickbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tickbench.run import declared_units
from tickbench.workloads import WORKLOADS, Check, make_script, resolve

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def _run(*args, cwd=None, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def _smoke(workload, trace, *extra):
    code, lines = _run("--workload", workload, "--seed", "3", "--seconds",
                       "1", "--trace", str(trace), "--smoke", *extra)
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_and_checks_answers(workload, trace):
    code, result = _smoke(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_units("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_are_the_benchmarks_workloads():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_planted_wrong_answer_is_a_failed_operation():
    code, result = _smoke("mono-steady", 0, "--plant-wrong")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1


def test_same_seed_gives_same_inputs():
    wl = resolve("bi-churn", smoke=True)
    a, b = make_script(wl, 5), make_script(wl, 5)
    assert a.initial == b.initial and a.specs == b.specs
    # The order ticks are requested in must not change them.
    b.tick(4)
    for t in range(1, 5):
        assert a.tick(t).events() == b.tick(t).events()
    assert sorted(a.checks) == sorted(b.checks)
    assert make_script(wl, 6).initial != a.initial


def _check(positions, cats):
    ids = list(positions)
    xy = np.array([positions[o] for o in ids], dtype=float)
    return Check(np.array(ids), xy, np.array(cats), [])


@pytest.mark.parametrize("k", [1, 2])
def test_narrowed_oracle_matches_full_brute_force(k):
    from repro.queries import brute_bi_rnn, brute_mono_rnn
    from repro.serving import QuerySpec
    from tickbench.oracle import Oracle

    rng = random.Random(k)
    # A coarse lattice makes exact ties and duplicate positions common.
    positions = {
        i: (rng.randrange(12) / 11, rng.randrange(12) / 11) for i in range(150)
    }
    cats = ["A" if i % 4 == 0 else "B" for i in range(150)]
    check = _check(positions, cats)
    oracle = Oracle()
    for trial in range(20):
        q = (rng.randrange(23) / 22, rng.randrange(23) / 22)
        mono = QuerySpec(name="m", point=q, k=k)
        assert oracle.answer(mono, check) == brute_mono_rnn(positions, q, k=k)
        rider = 4 * rng.randrange(37)
        bi = QuerySpec(name="b", mode="bi", query_id=rider, k=k,
                       cat_a="A", cat_b="B")
        pos_a = {o: p for o, p in positions.items() if cats[o] == "A"}
        pos_b = {o: p for o, p in positions.items() if cats[o] == "B"}
        expected = brute_bi_rnn(pos_a, pos_b, positions[rider],
                                query_id=rider, k=k)
        assert oracle.answer(bi, check) == expected


def test_self_time_excludes_children():
    from tickbench.spans import Spans, TickTotals

    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return sum(range(2000))

    spans, layer = Spans(), Layer()
    spans.wrap(layer, "outer", "outer")
    spans.wrap(layer, "inner", "inner")
    spans.tick = 7
    layer.outer()
    totals = TickTotals(spans)
    outer, inner = (7, "outer"), (7, "inner")
    assert totals.calls[inner] == 2
    assert totals.self_time[outer] == pytest.approx(
        totals.dur[outer] - totals.dur[inner]
    )
    assert totals.self_time[inner] == pytest.approx(totals.dur[inner])


def test_sizes_land_on_the_innermost_open_span():
    from tickbench.spans import Spans, TickTotals

    class Pipe:
        def write(self, data):
            return len(data)

    class Shard:
        def __init__(self):
            self.pipe = Pipe()

        def send(self, data):
            self.pipe.write(data)

    spans, shard = Spans(), Shard()
    spans.wrap(shard, "send", "send")
    spans.wrap_size(shard.pipe, "write", lambda args, out: out)
    spans.tick = 2
    shard.send(b"x" * 40)
    shard.send(b"y" * 2)
    shard.pipe.write(b"outside any span")
    assert TickTotals(spans).value[(2, "send")] == 42


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "tickbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    code, lines = _run("--workload", "mono-steady", "--seed", "1", "--seconds",
                       "1", "--trace", "0", cwd=tmp_path,
                       script=tmp_path / "tickbench" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_reference_scaling_follows_the_kernel_samples():
    from tickbench.reference import NOMINAL_S, scale_each

    times = [0.01, 0.02, 0.03, 0.04, 0.05]
    assert scale_each(times, [NOMINAL_S] * 5) == pytest.approx(times)
    # A host at half speed doubles both the ticks and the kernel samples.
    slow = [2 * t for t in times]
    assert scale_each(slow, [2 * NOMINAL_S] * 5) == pytest.approx(times)
    # Each time is scaled by the samples near it, not by the run's.
    mixed = scale_each([0.01] * 9 + [0.02] * 9, [NOMINAL_S] * 9 + [2 * NOMINAL_S] * 9)
    assert mixed[0] == pytest.approx(0.01) and mixed[-1] == pytest.approx(0.01)


def test_reference_kernel_allocates_nothing_the_collector_tracks():
    import gc

    from tickbench.reference import Reference

    ref = Reference()
    ref.sample()
    before = gc.get_count()[0]
    for _ in range(5):
        ref.sample()
    assert gc.get_count()[0] - before <= 5  # the samples array only grows
    assert len(ref.samples) == 6 and min(ref.samples) > 0
