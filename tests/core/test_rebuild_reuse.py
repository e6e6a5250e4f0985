"""``RegionCore._rebuild_region`` redraws only the bisectors that moved.

A bisector is a deterministic function of its generating pair
``(q, pos)``, so a rebuild keeps the half-plane of every monitored object
whose pair is unchanged and draws new ones only for moved objects (all of
them when ``q`` moved).  The result must equal fresh
``bisector_halfplane`` calls field for field, in monitored order, and the
region polygon must equal the one a fresh tracker builds.
"""

import random

import pytest

from repro.core.bi import BiIGERN
from repro.core.mono import MonoIGERN
from repro.geometry.bisector import bisector_halfplane
from repro.grid.alive import AliveCellGrid
from repro.grid.index import GridIndex

from tests.conftest import populate


def _fields(hp):
    return (hp.a, hp.b, hp.c, hp.c_err, hp._src)


def _fresh(state):
    q = state.qpos
    return [bisector_halfplane(q, pos) for pos in state.monitored.values() if pos != q]


def _setup(flavour, seed):
    rng = random.Random(seed)
    grid = GridIndex(16)
    points = [(rng.random(), rng.random()) for _ in range(160)]
    if flavour == "mono":
        populate(grid, points)
        algo = MonoIGERN(grid)
    else:
        populate(grid, points[:80], category="A")
        populate(grid, points[80:], category="B", start_id=80)
        algo = BiIGERN(grid)
    qpos = (0.5, 0.5)
    state, _ = algo.initial(qpos)
    assert len(state.monitored) >= 3
    return grid, algo, state, qpos


def _assert_matches_fresh(state):
    fresh = _fresh(state)
    drawn = state.alive.halfplanes
    assert [_fields(hp) for hp in drawn] == [_fields(hp) for hp in fresh]
    reference = AliveCellGrid(state.alive.size, state.alive.extent, state.alive.k)
    reference.rebuild(fresh)
    assert state.alive.region_polygon().vertices == (
        reference.region_polygon().vertices
    )


@pytest.mark.parametrize("flavour", ["mono", "bi"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_moved_object_gets_the_only_new_bisector(flavour, seed):
    grid, algo, state, qpos = _setup(flavour, seed)
    before = {hp._src: hp for hp in state.alive.halfplanes}
    mover = sorted(state.monitored)[len(state.monitored) // 2]
    old = grid.position(mover)
    grid.move(mover, (old.x + 0.003, old.y - 0.002))
    assert algo._refresh_moved(state, qpos)
    algo._rebuild_region(state)
    _assert_matches_fresh(state)
    for oid, hp in zip(
        [o for o, p in state.monitored.items() if p != state.qpos],
        state.alive.halfplanes,
    ):
        if oid == mover:
            assert all(hp is not old_hp for old_hp in before.values())
        else:
            assert hp is before[hp._src]


@pytest.mark.parametrize("flavour", ["mono", "bi"])
def test_a_moved_query_reuses_nothing(flavour):
    _, algo, state, qpos = _setup(flavour, 4)
    before = state.alive.halfplanes
    moved = (qpos[0] + 0.004, qpos[1] + 0.001)
    assert algo._refresh_moved(state, moved)
    algo._rebuild_region(state)
    _assert_matches_fresh(state)
    after = state.alive.halfplanes
    assert not any(hp is old for hp in after for old in before)


def test_unmoved_rebuild_keeps_every_object():
    _, algo, state, qpos = _setup("mono", 5)
    before = state.alive.halfplanes
    algo._rebuild_region(state)
    _assert_matches_fresh(state)
    assert all(a is b for a, b in zip(state.alive.halfplanes, before))
    assert len(state.alive.halfplanes) == len(before)
