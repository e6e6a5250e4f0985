"""Observability overhead: the cost ledger and the flight recorder.

The ledger is the engine's one timing source; its phase blocks and
per-tick entries run only while it is enabled.  Protocol: the fig6a
monochromatic workload (8000 objects, 64x64 grid, IGERN), identical
seeds so every variant sees byte-identical movement; full
``Simulator.step`` times in a pairwise lockstep against the bare engine,
element-wise min over alternating rounds (tick *t* does identical work
in every round and variant, so the per-tick min discards scheduler
noise).  Bounds: the ledger attached but disabled (the default) within
1%, enabled within 5%, the flight recorder within 5%.

Results land in ``benchmarks/results/ledger-overhead.txt``.
"""

from __future__ import annotations

import time

import test_tick_throughput as tick_bench
from conftest import RESULTS_DIR

from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.obs.ledger import QueryCostLedger
from repro.queries import IGERNMonoQuery, QueryPosition

#: Cost-ledger bounds (ISSUE 6): the fully attributing ledger within 5%
#: of the bare engine; attached-but-disabled (the default) within 1%.
LEDGER_ENABLED_BOUND = 0.05
LEDGER_DISABLED_BOUND = 0.01
#: The flight recorder retains references to every tick's raw event
#: lists for window replay; fig6a (all 8000 objects moving every tick)
#: is its retention worst case, so it gets its own generous bound rather
#: than sharing the ledger's.
FLIGHT_BOUND = 0.05
LEDGER_TICKS = 40
LEDGER_ROUNDS = 5


def _tick_floor(rounds: list) -> float:
    """Sum of element-wise minima: the noise-free cost of the tick series."""
    return sum(map(min, zip(*rounds)))


def _make_ledger_sim(ledger, flight: bool):
    """A fig6a simulator in one of the ledger-overhead configurations.

    ``ledger`` is ``False`` (detached), ``None`` (the default: global
    ledger, disabled), or an enabled :class:`QueryCostLedger` instance;
    ``flight`` toggles the tick flight recorder.
    """
    sim = build_simulator(WorkloadSpec(n_objects=8000, grid_size=64, seed=7))
    if ledger is False:
        sim.ledger = None
    elif ledger is not None:
        sim.ledger = ledger
    if not flight:
        sim.flight = None
    qid = central_object(sim)
    sim.add_query("q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid)))
    sim.execute_queries()  # initial pass, untimed
    return sim


def _run_sim_lockstep(factories, ticks: int = LEDGER_TICKS):
    """Per-tick full ``Simulator.step`` times for each configuration.

    Each configuration runs through the engine's own tick loop — the
    ledger's cost lives in the ``step``/``execute_queries`` glue and the
    phase timers.  Each simulator owns an identically seeded generator,
    so all variants replay byte-identical movement; the order alternates
    by tick parity so noise hits both variants almost equally.
    """
    sims = [factory() for factory in factories]
    buckets = [[] for _ in sims]
    clock = time.perf_counter
    for t in range(ticks):
        order = list(range(len(sims)))
        if t % 2:
            order.reverse()
        for i in order:
            t0 = clock()
            sims[i].step()
            buckets[i].append(clock() - t0)
    return buckets


def _ledger_overhead(variant_factory):
    """Overhead of one configuration vs. the bare engine, measured as a
    *pairwise* lockstep (two simulators alternating per tick);
    interleaving more than two variants makes the interior positions
    systematically mismeasure.  Returns ``(overhead, bare_seconds, variant_seconds)``.
    """
    rounds_bare, rounds_variant = [], []
    for _ in range(LEDGER_ROUNDS):
        bare, variant = _run_sim_lockstep(
            [lambda: _make_ledger_sim(False, flight=False), variant_factory]
        )
        rounds_bare.append(bare)
        rounds_variant.append(variant)
    bare = _tick_floor(rounds_bare)
    variant = _tick_floor(rounds_variant)
    return variant / bare - 1.0, bare, variant


def test_cost_ledger_overhead_on_fig6a():
    """The per-query cost ledger honors the ISSUE 6 overhead budget.

    Enabled (every phase timed, every search op attributed) within
    ``LEDGER_ENABLED_BOUND`` of the bare engine; attached but disabled
    (the default engine configuration) within ``LEDGER_DISABLED_BOUND``.
    The flight recorder is off in the ledger variants so each bound
    isolates the ledger; the flight recorder's own cost — dominated by
    retaining every tick's raw event lists for window replay, and fig6a
    moves the whole population every tick — is bounded separately.
    """
    def enabled_factory():
        ledger = QueryCostLedger()
        ledger.enable()
        return _make_ledger_sim(ledger, flight=False)

    disabled_overhead, bare_d, disabled = _ledger_overhead(
        lambda: _make_ledger_sim(None, flight=False)
    )
    enabled_overhead, bare_e, enabled = _ledger_overhead(enabled_factory)
    flight_overhead, bare_f, flight = _ledger_overhead(
        lambda: _make_ledger_sim(False, flight=True)
    )

    report = "\n".join(
        [
            "cost-ledger overhead, fig6a workload (8000 objects, 64x64"
            f" grid, IGERN mono, {LEDGER_TICKS} full engine ticks,"
            " pairwise lockstep vs the bare engine, per-tick min over"
            f" {LEDGER_ROUNDS} rounds)",
            "",
            f"  ledger attached, disabled (default):   {disabled * 1e3:8.2f} ms"
            f" vs {bare_d * 1e3:8.2f} ms bare  ({disabled_overhead:+.1%})",
            f"  ledger enabled (full attribution):     {enabled * 1e3:8.2f} ms"
            f" vs {bare_e * 1e3:8.2f} ms bare  ({enabled_overhead:+.1%})",
            f"  flight recorder on (no ledger):        {flight * 1e3:8.2f} ms"
            f" vs {bare_f * 1e3:8.2f} ms bare  ({flight_overhead:+.1%})",
            "",
            f"  bounds: ledger disabled <= {LEDGER_DISABLED_BOUND:.0%},"
            f" ledger enabled <= {LEDGER_ENABLED_BOUND:.0%},"
            f" flight <= {FLIGHT_BOUND:.0%}",
        ]
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ledger-overhead.txt").write_text(report + "\n")
    print("\n" + report)

    assert disabled_overhead <= LEDGER_DISABLED_BOUND, (
        f"disabled-ledger overhead {disabled_overhead:.2%} exceeds"
        f" {LEDGER_DISABLED_BOUND:.0%}"
    )
    assert enabled_overhead <= LEDGER_ENABLED_BOUND, (
        f"enabled-ledger overhead {enabled_overhead:.2%} exceeds"
        f" {LEDGER_ENABLED_BOUND:.0%}"
    )
    assert flight_overhead <= FLIGHT_BOUND, (
        f"flight-recorder overhead {flight_overhead:.2%} exceeds"
        f" {FLIGHT_BOUND:.0%}"
    )


def test_ledger_attribution_on_tick_throughput_workload():
    """Attributed wall time explains >=90% of the measured tick wall.

    The BENCH_tick_throughput workload (16 bi queries, scheduler on):
    per tick, movement plus the per-query walls recorded by the ledger
    must account for at least 90% of the tick's measured total — the
    ledger is only trustworthy if the time it attributes is nearly all
    the time there is.
    """
    workload = tick_bench._make_workload()
    sim = tick_bench._build(workload, scheduler=True)
    ledger = QueryCostLedger()
    ledger.enable()
    sim.ledger = ledger
    sim.execute_queries()  # initial pass opens tick 0 without totals
    for _ in range(tick_bench.N_TICKS):
        sim.step()

    fractions = [
        record.attributed_fraction()
        for record in ledger.records()
        if record.attributed_fraction() is not None
    ]
    assert len(fractions) == tick_bench.N_TICKS
    mean = sum(fractions) / len(fractions)
    print(
        f"\nledger attribution over {len(fractions)} ticks:"
        f" mean {mean:.1%}, min {min(fractions):.1%},"
        f" max {max(fractions):.1%}"
    )
    assert mean >= 0.90, f"mean attributed fraction {mean:.1%} below 90%"
    # Attribution must never materially exceed the measurement itself.
    assert max(fractions) <= 1.05
