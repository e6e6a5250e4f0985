"""Unit tests for the Brinkhoff-style network generator."""

import pytest

from repro.geometry.point import dist
from repro.motion.generator import NetworkMovingObjectGenerator
from repro.motion.roadnet import RoadNetwork


@pytest.fixture(scope="module")
def network():
    return RoadNetwork.grid_city(rows=8, cols=8, seed=0)


class TestConstruction:
    def test_invalid_params(self, network):
        with pytest.raises(ValueError):
            NetworkMovingObjectGenerator(network, 0)
        with pytest.raises(ValueError):
            NetworkMovingObjectGenerator(network, 10, policy="teleport")
        with pytest.raises(ValueError):
            NetworkMovingObjectGenerator(network, 10, speed_range=(0.0, 0.1))
        with pytest.raises(ValueError):
            NetworkMovingObjectGenerator(network, 10, move_fraction=0.0)

    def test_initial_positions_on_network(self, network):
        gen = NetworkMovingObjectGenerator(network, 50, seed=1)
        initial = gen.initial()
        assert len(initial) == 50
        for oid, pos, category in initial:
            assert category == 0
            assert 0.0 <= pos.x <= 1.0 and 0.0 <= pos.y <= 1.0

    def test_categories_assigned(self, network):
        gen = NetworkMovingObjectGenerator(
            network, 200, seed=2, categories={"A": 0.5, "B": 0.5}
        )
        cats = {category for _, _, category in gen.initial()}
        assert cats == {"A", "B"}

    def test_deterministic_with_seed(self, network):
        a = NetworkMovingObjectGenerator(network, 20, seed=5)
        b = NetworkMovingObjectGenerator(network, 20, seed=5)
        assert a.initial() == b.initial()
        assert a.step() == b.step()


class TestStepping:
    def test_every_object_moves_by_default(self, network):
        gen = NetworkMovingObjectGenerator(network, 30, seed=3)
        updates = gen.step()
        assert len(updates) == 30

    def test_move_fraction_reduces_updates(self, network):
        gen = NetworkMovingObjectGenerator(network, 200, seed=3, move_fraction=0.3)
        n = len(gen.step())
        assert 20 < n < 120

    def test_displacement_bounded_by_speed(self, network):
        speed_hi = 0.01
        gen = NetworkMovingObjectGenerator(
            network, 40, seed=4, speed_range=(0.005, speed_hi)
        )
        before = {oid: pos for oid, pos, _ in gen.initial()}
        for oid, pos in gen.step(dt=1.0):
            # Straight-line displacement can't exceed path distance.
            assert dist(before[oid], pos) <= speed_hi + 1e-9

    def test_positions_stay_on_map(self, network):
        gen = NetworkMovingObjectGenerator(network, 30, seed=6)
        for _ in range(50):
            for _, pos in gen.step():
                assert 0.0 <= pos.x <= 1.0 and 0.0 <= pos.y <= 1.0

    def test_objects_actually_travel(self, network):
        gen = NetworkMovingObjectGenerator(network, 20, seed=7, speed_range=(0.01, 0.02))
        start = {oid: pos for oid, pos, _ in gen.initial()}
        for _ in range(40):
            updates = gen.step()
        moved = sum(1 for oid, pos in updates if dist(start[oid], pos) > 0.02)
        assert moved > 10  # most objects have gone somewhere

    def test_shortest_path_policy(self, network):
        gen = NetworkMovingObjectGenerator(
            network, 15, seed=8, policy="shortest_path"
        )
        for _ in range(30):
            updates = gen.step()
        assert len(updates) == 15

    def test_dt_scales_displacement(self, network):
        gen1 = NetworkMovingObjectGenerator(network, 10, seed=9)
        gen2 = NetworkMovingObjectGenerator(network, 10, seed=9)
        before = {oid: pos for oid, pos, _ in gen1.initial()}
        small = {oid: pos for oid, pos in gen1.step(dt=0.1)}
        large = {oid: pos for oid, pos in gen2.step(dt=1.0)}
        small_total = sum(dist(before[o], small[o]) for o in small)
        large_total = sum(dist(before[o], large[o]) for o in large)
        assert small_total < large_total

    def test_accessors(self, network):
        gen = NetworkMovingObjectGenerator(network, 5, seed=10)
        ids = gen.object_ids()
        assert len(ids) == 5
        for oid in ids:
            pos = gen.position(oid)
            assert 0.0 <= pos.x <= 1.0
            assert gen.category(oid) == 0
