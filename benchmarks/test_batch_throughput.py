"""Shared-execution batch throughput: batched vs. per-query evaluation.

The ISSUE-4 acceptance benchmark.  A dispatch-center workload — many
operators watching the *same* hot zone — registers 32 continuous R-NN
queries on a tight lattice over a clustered B population, so the query
footprints overlap almost completely.  Every tick moves a fixed number
of B users inside the cluster, touching every footprint: the PR 2
scheduler can skip nothing, and the whole tick cost is query evaluation.
The same deterministic update stream is replayed through two simulators,
both scheduled:

- **unbatched**: ``batch=False`` — the PR 2 execution path, every
  affected query probing the grid independently;
- **batched**: ``batch=True`` — the shared tick context memoizing
  witness probes and nearest searches across the co-evaluated queries
  (each query still scans and classifies its own region).

The test asserts bit-identical per-tick answers for every query, that
the shared context actually served probes (hits > 0), a ≥1.5x tick
throughput gain, and writes ``BENCH_batch_throughput.json`` at the repo
root with ticks/sec, probe accounting, and the mean sharing ratio.

``BATCH_BENCH_QUICK=1`` selects a smaller configuration for CI; the
correctness (identity) assertion is identical in both.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.engine.simulation import Simulator
from repro.geometry.point import Point
from repro.queries.base import QueryPosition
from repro.queries.igern_bi import IGERNBiQuery

REPO_ROOT = Path(__file__).resolve().parent.parent
#: ``BATCH_BENCH_OUT`` redirects the result JSON (the perf-regression
#: harness measures into a scratch directory instead of overwriting the
#: committed baseline at the repo root).
RESULT_PATH = Path(
    os.environ.get("BATCH_BENCH_OUT")
    or str(REPO_ROOT / "BENCH_batch_throughput.json")
)

QUICK = os.environ.get("BATCH_BENCH_QUICK", "") not in ("", "0")
#: Facilities are deliberately *sparse*: each query's nearest facility is
#: far away, so the alive regions are large and genuinely overlap across
#: the lattice — the regime where verification probes are expensive and
#: shared.  (A dense A population shrinks every region to near-disjoint
#: slivers, and batching has nothing to share — measured 0.83x at
#: N_A=1500; see docs/PERFORMANCE.md.)
N_A = 120
N_B = 160
N_MOVERS = 60
N_TICKS = 40 if QUICK else 100
N_QUERIES = 32
GRID_SIZE = 64
SPEEDUP_FLOOR = 1.5
#: Timed repeats per configuration; the best run is scored, which
#: filters batching-independent machine noise out of the ratio.
BEST_OF = 3

#: The hot zone: every query, and the whole B population, lives here.
ZONE_CENTER = (0.5, 0.5)
ZONE_SIGMA = 0.05
LATTICE_LO, LATTICE_HI = 0.42, 0.58


class ReplayGenerator:
    """Replays a precomputed update script, one move list per tick.

    Synthesized once, outside the timed region, so the measurement
    compares *engine* cost only; both simulators replay the exact same
    stream — the property the identity comparison needs.
    """

    def __init__(self, initial, script):
        self._initial = initial
        self._script = script
        self._next = 0

    def initial(self):
        return iter(self._initial)

    def step(self, dt):
        moves = self._script[self._next]
        self._next += 1
        return moves


def _clustered(rng) -> Point:
    cx, cy = ZONE_CENTER
    return Point(
        min(1.0, max(0.0, rng.gauss(cx, ZONE_SIGMA))),
        min(1.0, max(0.0, rng.gauss(cy, ZONE_SIGMA))),
    )


def _make_workload(seed: int = 23):
    """Sparse uniform static A facilities; B users clustered in the hot zone,
    ``N_MOVERS`` of them re-drawn inside the zone every tick — every
    query footprint is touched every tick, so nothing can be skipped."""
    rng = random.Random(seed)
    initial = [
        (f"a{i}", Point(rng.random(), rng.random()), "A") for i in range(N_A)
    ]
    users = {f"b{i}": _clustered(rng) for i in range(N_B)}
    initial.extend((oid, pos, "B") for oid, pos in users.items())
    user_ids = sorted(users)
    script = []
    for _ in range(N_TICKS):
        moves = []
        for oid in rng.sample(user_ids, N_MOVERS):
            p = _clustered(rng)
            users[oid] = p
            moves.append((oid, p))
        script.append(moves)
    return initial, script


def _query_positions(n: int):
    """A tight lattice inside the hot zone: overlapping footprints."""
    side = int(round(n ** 0.5))
    while side * side < n:
        side += 1
    span = [
        LATTICE_LO + (LATTICE_HI - LATTICE_LO) * i / (side - 1)
        for i in range(side)
    ]
    return [(x, y) for x in span for y in span][:n]


def _build(workload, batch: bool) -> Simulator:
    initial, script = workload
    sim = Simulator(
        ReplayGenerator(initial, script),
        grid_size=GRID_SIZE,
        scheduler=True,
        batch=batch,
    )
    for i, (x, y) in enumerate(_query_positions(N_QUERIES)):
        sim.add_query(
            f"q{i}",
            IGERNBiQuery(sim.grid, QueryPosition(sim.grid, fixed=(x, y))),
        )
    return sim


def _run(sim: Simulator):
    """Initial step untimed, then N_TICKS timed; returns per-tick answers."""
    answers = {name: [] for name in sim.query_names()}
    for name, m in sim.execute_queries().items():
        answers[name].append(m.answer)
    start = time.perf_counter()
    for _ in range(N_TICKS):
        for name, m in sim.step().items():
            answers[name].append(m.answer)
    elapsed = time.perf_counter() - start
    return elapsed, answers


def _best_of(workload, batch: bool):
    """Best timed run of BEST_OF identical replays (fresh simulator each)."""
    best_elapsed = None
    for _ in range(BEST_OF):
        sim = _build(workload, batch=batch)
        elapsed, answers = _run(sim)
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
    return best_elapsed, answers, sim


def test_batch_throughput_and_answer_identity():
    workload = _make_workload()

    elapsed_batch, answers_batch, sim_batch = _best_of(workload, batch=True)
    elapsed_plain, answers_plain, sim_plain = _best_of(workload, batch=False)

    # Bit-identical answers, every query, every tick — fail on divergence.
    for name in answers_plain:
        for tick, (a_batch, a_plain) in enumerate(
            zip(answers_batch[name], answers_plain[name])
        ):
            assert a_batch == a_plain, f"{name} diverged at tick {tick}"

    hits = sim_batch.batch_probe_hits
    misses = sim_batch.batch_probe_misses
    sharing = hits / (hits + misses) if hits + misses else 0.0
    speedup = elapsed_plain / elapsed_batch

    result = {
        "workload": {
            "n_a": N_A,
            "n_b": N_B,
            "n_movers": N_MOVERS,
            "n_queries": N_QUERIES,
            "n_ticks": N_TICKS,
            "grid_size": GRID_SIZE,
            "quick": QUICK,
        },
        "batched": {
            "seconds": elapsed_batch,
            "ticks_per_sec": N_TICKS / elapsed_batch,
            "probe_hits": hits,
            "probe_misses": misses,
            "sharing_ratio": sharing,
        },
        "unbatched": {
            "seconds": elapsed_plain,
            "ticks_per_sec": N_TICKS / elapsed_plain,
            "probe_hits": sim_plain.batch_probe_hits,
            "probe_misses": sim_plain.batch_probe_misses,
        },
        "speedup": speedup,
        "answers_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\nbatch throughput: {result['batched']['ticks_per_sec']:.1f}/s "
        f"batched vs {result['unbatched']['ticks_per_sec']:.1f}/s unbatched "
        f"({speedup:.2f}x, sharing {sharing:.1%}, "
        f"{hits} hits / {misses} misses)"
    )

    # Sharing must actually happen, and only on the batched side.
    assert hits > 0
    assert sim_plain.batch_probe_hits == 0
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected ≥{SPEEDUP_FLOOR}x, measured {speedup:.2f}x"
    )
