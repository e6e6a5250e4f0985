"""Large-N substrate throughput: columnar store vs. the mapping reference.

The ISSUE-7 acceptance benchmark.  A city-scale population — 100k
uniformly distributed moving objects, probed from a 64-point query
lattice — is driven through the grid substrate twice, differing in
exactly one knob: the storage backend.

Each timed tick is one simulation tick's worth of substrate work, the
layer the columnar rewrite targets:

- ``GridIndex.apply_updates`` absorbs a 2k-object movement batch (the
  columnar side takes the vectorized bulk-move path, the mapping side
  the per-object dict updates);
- per query point, three full-scan probes of the kernels every executor
  leans on: ``count_closer_than`` (no ``stop_at`` — the whole-slice
  count), ``count_closer_than`` again with a ``witnesses`` list
  (materializing the in-range witness rows) and ``nearest`` (best-first
  over whole-cell slices).

Early-exit probes (``count_closer_than(stop_at=...)``) are deliberately
absent: they walk rows one by one on both backends (see
``GridSearch.count_closer_than``), so they measure traversal, not
layout.  The grid is coarse for the population (~100 rows per cell) so
cell scans produce fat slices — the regime the columnar layout exists
for.

The test asserts bit-identical kernel results on both backends (counts,
distance-sorted witness rows, nearest ids), that the vectorized filter
actually classified rows, a backend speedup floor (≥3x full, ≥2x
quick), and writes ``BENCH_large_n.json`` at the repo root with
ticks/sec and the store's row accounting.

``LARGE_N_BENCH_QUICK=1`` selects a CI-sized configuration that keeps
the rows-per-cell density (and therefore the slice shape) of the full
run; ``LARGE_N_BENCH_OUT`` redirects the result JSON.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from pathlib import Path

from repro.grid.index import GridIndex
from repro.grid.search import GridSearch
from repro.grid.store import STATS as STORE_STATS

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = Path(
    os.environ.get("LARGE_N_BENCH_OUT")
    or str(REPO_ROOT / "BENCH_large_n.json")
)

QUICK = os.environ.get("LARGE_N_BENCH_QUICK", "") not in ("", "0")

#: Full: 100k objects on a 32x32 grid — ~98 rows per cell.  Quick keeps
#: the density (~98 rows per cell at 25k/16x16) so the kernels see the
#: same slice shape and the speedup stays comparable under the shared
#: ``bench check --quick`` band.
N_OBJECTS = 25_000 if QUICK else 100_000
GRID_SIZE = 16 if QUICK else 32
N_MOVERS = 500 if QUICK else 2_000
N_TICKS = 6 if QUICK else 10
N_QUERIES = 64
#: Probe radius sized so each scan examines a few thousand rows
#: (~pi * r^2 * N), the footprint of a verification pass over a
#: mid-sized monitored region.
RADIUS = 0.15
SPEEDUP_FLOOR = 2.0 if QUICK else 3.0
#: Timed rounds; each round replays both backends, and each backend is
#: scored by its best replay.
BEST_OF = 3
BACKENDS = ("columnar", "mapping")


def _make_workload(seed: int = 7):
    """Uniform objects; ``N_MOVERS`` uniformly re-drawn every tick."""
    rng = random.Random(seed)
    initial = [
        (f"o{i}", (rng.random(), rng.random())) for i in range(N_OBJECTS)
    ]
    ids = [oid for oid, _ in initial]
    script = []
    for _ in range(N_TICKS):
        script.append(
            [
                (oid, (rng.random(), rng.random()))
                for oid in rng.sample(ids, N_MOVERS)
            ]
        )
    return initial, script


def _query_positions(n: int):
    """An evenly spaced lattice across the unit square."""
    side = int(round(n ** 0.5))
    while side * side < n:
        side += 1
    span = [(i + 0.5) / side for i in range(side)]
    return [(x, y) for x in span for y in span][:n]


def _run(workload, store: str):
    """Replay the update script, probing every query point each tick.

    Returns ``(elapsed, results)`` where ``results`` is one row per
    (tick, query): the in-range count, the distance-sorted witness
    list and the nearest object — the identity contract between the
    two backends.
    """
    initial, script = workload
    grid = GridIndex(GRID_SIZE, store=store)
    for oid, pos in initial:
        grid.insert(oid, pos)
    search = GridSearch(grid)
    queries = _query_positions(N_QUERIES)
    r2 = RADIUS * RADIUS
    results = []
    start = time.perf_counter()
    for moves in script:
        grid.apply_updates(moves)
        for q in queries:
            count = search.count_closer_than(q, r2)
            witnesses = []
            search.count_closer_than(q, r2, witnesses=witnesses)
            nn = search.nearest(q)
            results.append((count, witnesses, nn))
    elapsed = time.perf_counter() - start
    # Witness rows surface in backend-specific scan order; canonicalize
    # outside the timed region (ordering is not substrate work).
    for _, witnesses, _ in results:
        witnesses.sort()
    return elapsed, results


def _replay(workload, store: str):
    """One timed replay, plus the columnar store counter deltas it
    caused (deterministic per replay)."""
    before = (
        STORE_STATS.rows_scanned,
        STORE_STATS.filter_rows,
        STORE_STATS.exact_rows,
    )
    elapsed, results = _run(workload, store=store)
    stats = (
        STORE_STATS.rows_scanned - before[0],
        STORE_STATS.filter_rows - before[1],
        STORE_STATS.exact_rows - before[2],
    )
    return elapsed, results, stats


def _alternating_best(workload):
    """``BEST_OF`` rounds, each replaying both backends back to back and
    alternating which goes first, so a slow host phase falls on both
    sides of the ratio instead of on one backend's whole pass.  Returns
    ``{store: (best_elapsed, results, stats)}``."""
    out = {}
    for i in range(BEST_OF):
        for store in BACKENDS if i % 2 == 0 else BACKENDS[::-1]:
            elapsed, results, stats = _replay(workload, store)
            if store in out:
                elapsed = min(elapsed, out[store][0])
            out[store] = (elapsed, results, stats)
    return out


def test_large_n_throughput_and_result_identity():
    workload = _make_workload()

    best = _alternating_best(workload)
    elapsed_col, results_col, stats_col = best["columnar"]
    elapsed_map, results_map, stats_map = best["mapping"]

    # Bit-identical kernel results, every query, every tick.
    assert len(results_col) == len(results_map)
    for i, (row_col, row_map) in enumerate(zip(results_col, results_map)):
        assert row_col == row_map, f"probe row {i} diverged"

    rows_scanned, filter_rows, exact_rows = stats_col
    speedup = elapsed_map / elapsed_col
    vectorized_fraction = (
        filter_rows / rows_scanned if rows_scanned else 0.0
    )

    result = {
        "workload": {
            "n_objects": N_OBJECTS,
            "n_movers": N_MOVERS,
            "n_queries": N_QUERIES,
            "n_ticks": N_TICKS,
            "grid_size": GRID_SIZE,
            "radius": RADIUS,
            "quick": QUICK,
        },
        "columnar": {
            "seconds": elapsed_col,
            "ticks_per_sec": N_TICKS / elapsed_col,
            "rows_scanned": rows_scanned,
            "filter_rows": filter_rows,
            "exact_rows": exact_rows,
            "vectorized_fraction": vectorized_fraction,
        },
        "mapping": {
            "seconds": elapsed_map,
            "ticks_per_sec": N_TICKS / elapsed_map,
        },
        "speedup": speedup,
        "answers_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\nlarge-N throughput: {result['columnar']['ticks_per_sec']:.2f}/s "
        f"columnar vs {result['mapping']['ticks_per_sec']:.2f}/s mapping "
        f"({speedup:.2f}x, {rows_scanned} rows scanned, "
        f"{vectorized_fraction:.1%} filter-decided, "
        f"{exact_rows} exact fallbacks)"
    )

    # The mapping reference never touches the columnar counters.
    assert stats_map == (0, 0, 0)
    # The vectorized filter must actually be doing the classifying.
    assert rows_scanned > 0
    assert filter_rows > 0
    # Sanity: the probes genuinely scan fat slices.
    expected_rows_per_probe = math.pi * RADIUS * RADIUS * N_OBJECTS
    assert rows_scanned > 0.5 * expected_rows_per_probe * N_QUERIES * N_TICKS
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected ≥{SPEEDUP_FLOOR}x, measured {speedup:.2f}x"
    )
