"""Microbenchmarks of the substrate operations.

The grid index absorbs every position update of every object every tick
(the dominant cost of the whole simulation, per profiling), and the NN
search is the shared primitive of every algorithm — regressions here
dwarf any algorithmic difference.
"""

import random

import pytest

from repro.grid.index import GridIndex
from repro.grid.search import GridSearch

N_OBJECTS = 20_000


@pytest.fixture(scope="module")
def loaded_grid():
    rng = random.Random(5)
    grid = GridIndex(64)
    for i in range(N_OBJECTS):
        grid.insert(i, (rng.random(), rng.random()))
    return grid, rng


def test_grid_move_throughput(benchmark, loaded_grid):
    grid, rng = loaded_grid
    moves = [
        (
            rng.randrange(N_OBJECTS),
            (rng.random(), rng.random()),
        )
        for _ in range(1000)
    ]

    def apply_batch():
        for oid, pos in moves:
            grid.move(oid, pos)

    benchmark(apply_batch)


def test_nearest_neighbor_search(benchmark, loaded_grid):
    grid, rng = loaded_grid
    search = GridSearch(grid)
    queries = [(rng.random(), rng.random()) for _ in range(200)]

    def run_queries():
        for q in queries:
            search.nearest(q)

    benchmark(run_queries)


def test_verification_probe(benchmark, loaded_grid):
    grid, rng = loaded_grid
    search = GridSearch(grid)
    probes = [
        ((rng.random(), rng.random()), rng.random() * 0.001)
        for _ in range(200)
    ]

    def run_probes():
        for center, t2 in probes:
            search.count_closer_than(center, t2, stop_at=1)

    benchmark(run_probes)


def test_range_query(benchmark, loaded_grid):
    grid, rng = loaded_grid
    search = GridSearch(grid)
    queries = [(rng.random(), rng.random()) for _ in range(100)]

    def run_ranges():
        for q in queries:
            search.objects_within(q, 0.02)

    benchmark(run_ranges)
