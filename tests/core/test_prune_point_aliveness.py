"""What the guarded prune does to point-level aliveness.

The bichromatic footprint covers the witness balls of the B objects the
verification probed, which include every B object point-alive in the
final region as long as the region only shrank after the verification's
scan (``docs/ALGORITHM.md``, "Bichromatic footprints").  The prune after
the verification loop removes half-planes, so the lemma rests on what
that removal can do:

- at ``k = 1`` the guarded rule removes only a half-plane that no vertex
  of the exact region polygon lies on; the polygon, hence the set of
  point-alive points, is unchanged, and no point-dead point revives;
- at ``k >= 2`` the rule decides redundancy per cell, so a point-dead
  point in a cell that stays alive can revive.  The pinned example below
  shows one, which is why the verification re-tests its pending B
  objects after a prune that removed something.
"""

import random

from repro.core.candidates import prune_monitored
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import Point
from repro.grid.alive import AliveCellGrid


def _region(q, candidates, n, k):
    alive = AliveCellGrid(n, k=k)
    for pos in candidates.values():
        alive.add_halfplane(bisector_halfplane(q, pos))
    return alive


def _random_region(rng, k):
    """A query with 3-10 candidates clustered around it (domination, and
    so pruning, is likely), plus 60 uniform probe points."""
    q = Point(round(rng.random(), 3), round(rng.random(), 3))
    candidates = {}
    for i in range(rng.randint(3, 10)):
        x = min(max(q.x + rng.gauss(0.0, 0.15), 0.0), 1.0)
        y = min(max(q.y + rng.gauss(0.0, 0.15), 0.0), 1.0)
        pos = Point(round(x, 3), round(y, 3))
        if pos != q:
            candidates[i] = pos
    probes = [Point(round(rng.random(), 3), round(rng.random(), 3)) for _ in range(60)]
    return q, candidates, probes


def test_guarded_prune_never_revives_a_point_dead_point_at_k1():
    rng = random.Random(1)
    prunes = 0
    for _ in range(800):
        q, candidates, probes = _random_region(rng, 1)
        alive = _region(q, candidates, 16, 1)
        dead = [p for p in probes if not alive.point_alive(p)]
        if prune_monitored(candidates, q, alive, 1):
            prunes += 1
        for p in dead:
            assert not alive.point_alive(p), (q, candidates, p)
    assert prunes >= 300  # the sweep exercised the removal path


def test_guarded_prune_can_revive_a_point_dead_point_at_k2():
    q = Point(0.213, 0.806)
    candidates = {
        0: Point(0.002, 0.911),
        1: Point(0.125, 0.825),
        2: Point(0.651, 0.969),
        3: Point(0.182, 0.852),
    }
    b = Point(0.007, 0.673)
    alive = _region(q, candidates, 16, 2)
    assert not alive.point_alive(b)
    assert prune_monitored(candidates, q, alive, 2) == 1
    assert 0 not in candidates
    # Two bisectors excluded b; one of them is gone, so b survives.
    assert alive.point_alive(b)
