"""Routing is a pure, total, deterministic function of its inputs."""

from repro.geometry.rectangle import Rect
from repro.serving.router import (
    cell_of_point,
    route_query,
    shard_of_cell,
    shard_of_name,
    shard_of_point,
)

EXTENT = Rect.unit()


def test_stripes_partition_every_column():
    grid_size, n_shards = 16, 3
    owners = [shard_of_cell((cx, 0), grid_size, n_shards) for cx in range(grid_size)]
    # Total, monotone, onto: every column owned, stripes are contiguous,
    # every shard owns at least one column.
    assert owners == sorted(owners)
    assert set(owners) == set(range(n_shards))
    # Row coordinate is irrelevant (vertical stripes).
    assert all(
        shard_of_cell((cx, cy), grid_size, n_shards) == owners[cx]
        for cx in range(grid_size)
        for cy in (0, 7, 15)
    )


def test_more_shards_than_columns_stays_total():
    owners = {shard_of_cell((cx, 0), 4, 7) for cx in range(4)}
    assert owners <= set(range(7))


def test_out_of_range_cells_clamp_to_edge_stripes():
    assert shard_of_cell((-5, 0), 16, 4) == 0
    assert shard_of_cell((99, 0), 16, 4) == 3


def test_cell_of_point_clamps_into_extent():
    assert cell_of_point((-1.0, 0.5), 8, EXTENT) == (0, 4)
    assert cell_of_point((2.0, 1.5), 8, EXTENT) == (7, 7)
    assert cell_of_point((0.0, 0.0), 8, EXTENT) == (0, 0)


def test_point_routing_matches_cell_routing():
    for x in (0.01, 0.3, 0.5, 0.74, 0.99):
        cell = cell_of_point((x, 0.5), 16, EXTENT)
        assert shard_of_point((x, 0.5), 16, EXTENT, 3) == shard_of_cell(cell, 16, 3)


def test_route_prefers_footprint_majority_then_point():
    # The query point decides.
    assert (
        route_query(grid_size=16, extent=EXTENT, n_shards=4, name="q", point=(0.01, 0.5))
        == 0
    )
    # Neither: the stable name fold decides, and is process-independent.
    fallback = route_query(grid_size=16, extent=EXTENT, n_shards=4, name="q")
    assert fallback == shard_of_name("q", 4)
    assert 0 <= fallback < 4


def test_shard_of_name_is_stable_and_bounded():
    first = shard_of_name(("query", 7), 5)
    assert first == shard_of_name(("query", 7), 5)
    assert 0 <= first < 5
    # Different names spread (not all in one stripe).
    owners = {shard_of_name(f"q{i}", 5) for i in range(64)}
    assert len(owners) > 1
