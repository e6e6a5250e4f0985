"""Candidate-set pruning rules.

Both incremental steps clean their monitored set with the same rule
(Algorithm 2 line 8, Algorithm 3 line 15, Algorithm 4 line 8): a monitored
object ``o_i`` is dropped when another monitored object ``o_j`` is strictly
closer to it than the query is — ``o_i`` is then provably not an RNN and
its bisector is not needed to keep the region sound, because ``o_i`` itself
lies in the dead region of ``o_j``'s bisector.

For the RkNN extension the rule generalizes naturally: drop ``o_i`` once at
least ``k`` other monitored objects are strictly closer to it than the
query.  With ``k = 1`` this is exactly the paper's rule.

The decision is evaluated against the *full* set before any removal (the
paper's "for any two objects ... remove only if ..." reads as a predicate
over the incoming set, and removing a dominated object must not rescue
another one: domination is witnessed by real object positions either way).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

from repro.geometry.point import Point, dist_sq

ObjectId = Hashable

#: Valid candidate-cleaning policies (see :func:`normalize_prune_mode`).
PRUNE_MODES = ("guarded", "literal", "off")


def normalize_prune_mode(mode) -> str:
    """Validate a prune-policy argument: one of :data:`PRUNE_MODES`."""
    if mode in PRUNE_MODES:
        return mode
    raise ValueError(f"unknown prune mode {mode!r}; expected one of {PRUNE_MODES}")


def dominated_candidates(
    candidates: Dict[ObjectId, Point], qpos: Iterable[float], k: int = 1
) -> Set[ObjectId]:
    """Candidates with at least ``k`` other candidates closer than the query.

    Pure function over a position snapshot; the caller removes the returned
    ids and rebuilds the monitored region from the survivors.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    qx, qy = qpos
    items: List[Tuple[ObjectId, Point]] = list(candidates.items())
    doomed: Set[ObjectId] = set()
    for oid, pos in items:
        dq = dist_sq(pos, (qx, qy))
        closer = 0
        for other_id, other_pos in items:
            if other_id == oid:
                continue
            if dist_sq(pos, other_pos) < dq:
                closer += 1
                if closer >= k:
                    doomed.add(oid)
                    break
    return doomed


def prune_candidates(
    candidates: Dict[ObjectId, Point], qpos: Iterable[float], k: int = 1
) -> int:
    """Remove dominated candidates in place; returns how many were dropped.

    This is the paper's literal rule, kept for tests and ablations.  The
    production path is :func:`prune_monitored` below, which adds the
    region-preservation guard.
    """
    doomed = dominated_candidates(candidates, qpos, k)
    for oid in doomed:
        del candidates[oid]
    return len(doomed)


def prune_monitored(
    candidates: Dict[ObjectId, Point],
    qpos: Point,
    alive,
    k: int = 1,
) -> int:
    """Clean the monitored set in place, keeping the region bounded.

    Applies the paper's domination rule with two guards the paper leaves
    implicit; both are needed to make the rule effective in practice:

    1. *Region preservation* — a dominated candidate is only dropped when
       its bisector is redundant for the monitored region (kills no cell
       uniquely, :meth:`repro.grid.alive.AliveCellGrid.kills_uniquely`).
       Taken literally, the domination rule alone can shrink the set down
       to a single half-plane, unbounding the "single bounded region" the
       paper monitors and exploding the bichromatic verification cost.
    2. *Hysteresis* — a candidate still sitting in an alive (straddling)
       cell is kept: the tightening search would just re-absorb it on the
       next tick, so dropping it only buys a churn loop of one bounded
       search plus one region update per tick.

    Removal updates ``alive`` incrementally (no rebuild needed).  Returns
    how many candidates were dropped.
    """
    from repro.geometry.bisector import bisector_halfplane
    from repro.grid.cell import cell_key_of

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    removed = 0
    # Farthest-first: outer candidates are the most likely to be both
    # dominated and redundant, and removing them first never blocks the
    # removal of inner ones.
    order = sorted(
        candidates, key=lambda oid: dist_sq(candidates[oid], qpos), reverse=True
    )
    for oid in order:
        pos = candidates[oid]
        if pos == qpos:
            # A coincident candidate has no bisector and can never be
            # dominated (nothing is strictly closer to it than distance 0).
            continue
        dq = dist_sq(pos, qpos)
        witnesses = 0
        for other_id, other_pos in candidates.items():
            if other_id == oid:
                continue
            if dist_sq(pos, other_pos) < dq:
                witnesses += 1
                if witnesses >= k:
                    break
        if witnesses < k:
            continue
        if alive.is_alive(cell_key_of(alive.extent, alive.size, pos)):
            continue
        hp = bisector_halfplane(qpos, pos)
        if alive.kills_uniquely(hp):
            continue
        # kills_uniquely established the plane is inactive, so the exact
        # region — and its cached polygon — survive the removal.
        alive.remove_halfplane(hp, region_unchanged=True)
        del candidates[oid]
        removed += 1
    return removed
