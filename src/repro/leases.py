"""Safe-region answer leases: certificates of answer invariance.

Li et al. (*INSQ*) publish an influential-neighbor set plus a safe
region so a moving client can validate its own kNN answer locally and
contact the server only on region exit; Rahmati et al. frame kinetic
RkNN maintenance the same way — an answer stays valid while a small set
of geometric facts holds.  This module ports that idea to continuous
RNN monitoring: from the monitored state an IGERN evaluation already
holds, :func:`derive_mono_lease` / :func:`derive_bi_lease` produce a
:class:`Lease` — a region for the query point plus a per-object
displacement budget for the data points — within which the *answer set*
is provably unchanged.  While a lease verifiably holds, the engine can
skip not just the evaluation but the whole subscriber publication.

Soundness argument
------------------

Membership in the paper's semantics is a strict comparison: an object
``o`` is an RNN of ``q`` iff fewer than ``k`` other objects are
*strictly* closer to ``o`` than ``q`` is (ties never disqualify).
Write ``d_k(o)`` for the k-th smallest witness distance to ``o`` and

    ``g(o) = dist(o, q) - d_k(o)``

so ``o`` is a member iff ``g(o) <= 0``.  Under per-object displacement
at most ``m`` and query displacement at most ``eps``, the triangle
inequality bounds the change of every distance: ``dist(o', w')`` moves
by at most ``2m`` and ``dist(o', q')`` by at most ``m + eps``, hence
``g`` moves by at most ``T = 3m + eps``.  Therefore

- a member with ``-g(o) >= T`` stays a member (the comparison is
  closed-safe: landing exactly on a tie still keeps membership under
  strict-``<`` witness semantics), and
- a non-member with ``g(o) > T`` stays a non-member (strictly — an
  exact tie *would* flip a non-member, so the bound must be strict).

The lease therefore computes the minimum guarded slack ``S`` over all
objects (candidates get their exact k-th witness distance; point-dead
non-candidates are certified through lower bounds derived from the
candidate distances, with a full scan as fallback) and issues budgets
with ``3m + eps = T = S * BUDGET_FRACTION < S``.  Every slack is shaved
by an absolute guard of :data:`SLACK_GUARD_REL` times the extent
diagonal before use, which (a) absorbs the float rounding of the
distance computations — the guard is ~6 orders of magnitude above it —
and (b) refuses a lease on bit-equal ties (slack zero), where *any*
nonzero motion can flip the answer.

The safe region is the conservative inner offset of the issue-time
alive region — every contributing bisector half-plane pushed inward by
``eps + m`` (padded against rounding) — intersected with the
witness-margin slabs ``|x - qx| <= s`` and ``|y - qy| <= s`` with
``s = eps / sqrt(2)``: the inscribed square of the ``eps``-ball, so
region containment *implies* the query displacement bound the slack
argument needs.  Containment tests run through the exact predicate
kernel (the planes are float-exact by construction), so holding a lease
is a bit-exact decision, never an epsilon one.

Leases are Euclidean-only (network queries report no lease, exactly
like footprints), and population churn — any insert or remove — always
breaks every lease: the slack minimum quantified over the issue-time
population says nothing about a new object.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.geometry import predicates
from repro.geometry.halfplane import HalfPlane
from repro.geometry.polygon import ConvexPolygon, clip_rect_by_halfplanes
from repro.geometry.rectangle import Rect

ObjectId = Hashable

#: Relative (to the extent diagonal) guard shaved off every slack before
#: it may certify a lease.  Far above the float rounding of the distance
#: computations (~1e-15 of the diagonal) and far below any slack worth
#: leasing; a bit-equal tie has raw slack zero and is guarded into "no
#: lease", which is the only sound answer there.
SLACK_GUARD_REL = 1e-9

#: The issued total budget ``T = 3m + eps`` is this fraction of the
#: minimum guarded slack — headroom that keeps every membership
#: comparison strictly inside its slack even at full budget spend.
BUDGET_FRACTION = 0.5

#: With no finite slack at all (e.g. a lone object), the budget is
#: capped at this fraction of the extent diagonal.
BUDGET_CAP_REL = 0.125

#: Inward rounding pad on the bisector offsets: the offset distance is
#: inflated by this relative amount so float rounding of ``c - off``
#: can never move a region boundary *outward*.
OFFSET_PAD = 1.0 + 1e-12

#: The slab half-width ``eps / sqrt(2)`` is shaved by this factor so the
#: inscribed-square containment argument survives the rounding of the
#: slab plane constants.
SLAB_SHAVE = 1.0 - 1e-12


@dataclass
class Lease:
    """A safe-region certificate for one query's current answer.

    While the query point stays inside the region (all ``planes``
    non-negative, tested exactly), the cumulative per-object
    displacement stays within ``object_budget``, and no object is
    inserted or removed, the answer set at issue time remains the exact
    answer — the engine may carry it forward without evaluating and
    without publishing.
    """

    #: Query position at issue time.
    qpos: Tuple[float, float]
    #: Maximum query-point displacement the region admits (``eps``).
    query_budget: float
    #: Per-object displacement budget for the data points (``m``).
    object_budget: float
    #: Answer set the lease certifies.
    answer: FrozenSet[ObjectId]
    #: Grid object id of the query point (``None`` for a fixed query);
    #: its motion is governed by the region, not the object budget.
    query_oid: Optional[ObjectId] = None
    #: Tick the lease was issued at (stamped by the engine).
    epoch: int = 0
    #: Safe-region half-planes: the inward-offset alive bisectors plus
    #: the four witness-margin slabs.  All float-exact by construction.
    planes: Tuple[HalfPlane, ...] = ()
    #: ``memo_key()`` tokens of the contributing alive-region bisectors.
    sources: Tuple = ()
    #: Extent the region lives in (for :meth:`region_polygon`).
    extent: Optional[Rect] = None
    _polygon: Optional[ConvexPolygon] = field(
        default=None, repr=False, compare=False
    )

    def contains(self, p) -> bool:
        """Whether the query point ``p`` is inside the safe region (exact)."""
        x, y = p
        sign = predicates.halfplane_sign
        for hp in self.planes:
            if sign(hp, x, y) < 0:
                return False
        return True

    def region_polygon(self) -> ConvexPolygon:
        """The safe region as a polygon (for introspection/plotting)."""
        if self._polygon is None:
            extent = self.extent if self.extent is not None else Rect.unit()
            self._polygon = clip_rect_by_halfplanes(extent, self.planes)
        return self._polygon


def _push_k(lst: List[float], d: float, k: int) -> None:
    """Maintain the ``k`` smallest values in a sorted list."""
    if len(lst) < k:
        insort(lst, d)
    elif d < lst[-1]:
        insort(lst, d)
        lst.pop()


def _kth_largest(values: List[float], k: int) -> Optional[float]:
    """The k-th largest value, or ``None`` with fewer than ``k``."""
    if len(values) < k:
        return None
    values.sort(reverse=True)
    return values[k - 1]


def _full_witness_dk(
    positions: Dict[ObjectId, Tuple[float, float]],
    oid: ObjectId,
    pos: Tuple[float, float],
    k: int,
    query_id,
) -> float:
    """Exact k-th smallest witness distance to ``oid`` over everyone."""
    px, py = pos
    hypot = math.hypot
    smallest: List[float] = []
    for other, (ox, oy) in positions.items():
        if other == oid or other == query_id:
            continue
        _push_k(smallest, hypot(ox - px, oy - py), k)
    if len(smallest) < k:
        return math.inf
    return smallest[k - 1]


def _region_planes(
    halfplanes,
    qpos: Tuple[float, float],
    eps: float,
    m: float,
) -> Tuple[Optional[List[HalfPlane]], Tuple]:
    """Offset the alive bisectors inward and add the witness slabs.

    Returns ``(planes, sources)``; planes is ``None`` when the query
    point itself falls outside the offset region (no lease).
    """
    qx, qy = qpos
    delta = (eps + m) * OFFSET_PAD
    planes: List[HalfPlane] = []
    sources = []
    sign = predicates.halfplane_sign
    for hp in halfplanes:
        off = delta * math.hypot(hp.a, hp.b)
        shifted = HalfPlane(hp.a, hp.b, hp.c - off)
        if sign(shifted, qx, qy) < 0:
            return None, ()
        planes.append(shifted)
        sources.append(hp.memo_key())
    s = (eps / math.sqrt(2.0)) * SLAB_SHAVE
    if s <= 0.0:
        return None, ()
    planes.append(HalfPlane(-1.0, 0.0, qx + s))
    planes.append(HalfPlane(1.0, 0.0, s - qx))
    planes.append(HalfPlane(0.0, -1.0, qy + s))
    planes.append(HalfPlane(0.0, 1.0, s - qy))
    return planes, tuple(sources)


def _issue(
    min_slack: float,
    state,
    grid,
    answer,
    query_id,
) -> Optional[Lease]:
    """Turn a certified minimum slack into budgets and a region."""
    extent = grid.extent
    diam = math.hypot(extent.width, extent.height)
    if min_slack <= 0.0:
        return None
    total = min(min_slack * BUDGET_FRACTION, diam * BUDGET_CAP_REL)
    if total <= 0.0 or not math.isfinite(total):
        return None
    eps = total / 2.0
    m = total / 6.0  # 3m + eps == total
    q = state.qpos
    qpos = (q.x, q.y)
    planes, sources = _region_planes(state.alive.halfplanes, qpos, eps, m)
    if planes is None:
        return None
    return Lease(
        qpos=qpos,
        query_budget=eps,
        object_budget=m,
        answer=frozenset(answer),
        query_oid=query_id,
        planes=tuple(planes),
        sources=sources,
        extent=extent,
    )


def derive_mono_lease(state, grid, k: int, query_id) -> Optional[Lease]:
    """Derive a safe-region lease from a monochromatic IGERN state.

    ``None`` whenever no sound lease exists: a bit-equal tie somewhere
    (zero slack), a slack too small to clear the rounding guard, an
    answer/candidate inconsistency, or a region that degenerates.
    Cost is O(n * C) — one distance per (object, candidate) pair — plus
    a full O(n) pass per object whose cheap bound fails to certify.
    """
    positions = grid.positions_snapshot()
    q = state.qpos
    qx, qy = q.x, q.y
    candidates = state.monitored
    answer = state.answer
    extent = grid.extent
    guard = SLACK_GUARD_REL * math.hypot(extent.width, extent.height)
    hypot = math.hypot

    cand_list = [
        (cid, (pos.x, pos.y)) for cid, pos in candidates.items()
    ]
    witness_k: Dict[ObjectId, List[float]] = {cid: [] for cid, _ in cand_list}
    dist_q: Dict[ObjectId, float] = {}
    min_slack = math.inf

    for oid, (px, py) in positions.items():
        if oid == query_id:
            continue
        dq = hypot(px - qx, py - qy)
        is_cand = oid in witness_k
        if is_cand:
            dist_q[oid] = dq
        gaps: List[float] = [] if not is_cand else None  # type: ignore
        for cid, (cx, cy) in cand_list:
            if cid == oid:
                continue
            d = hypot(px - cx, py - cy)
            _push_k(witness_k[cid], d, k)
            if gaps is not None:
                gaps.append(dq - d)
        if is_cand:
            continue
        # A non-candidate must be a non-member; its k-th largest gap to
        # the candidates lower-bounds g(o) (k candidates strictly closer
        # than q put d_k at or below the corresponding distance).
        if oid in answer:
            return None
        kth_gap = _kth_largest([g for g in gaps if g > guard], k)
        if kth_gap is not None:
            slack = kth_gap - guard
        else:
            slack = -1.0
        if slack <= 0.0:
            dk = _full_witness_dk(positions, oid, (px, py), k, query_id)
            slack = dq - dk - guard
            if slack <= 0.0:
                return None
        if slack < min_slack:
            min_slack = slack

    for cid, _pos in cand_list:
        smallest = witness_k[cid]
        dk = smallest[k - 1] if len(smallest) >= k else math.inf
        dq = dist_q.get(cid)
        if dq is None:
            # Candidate no longer indexed (or is the query object):
            # stale state, refuse to certify.
            return None
        if cid in answer:
            slack = dk - dq - guard
        else:
            slack = dq - dk - guard
        if slack <= 0.0:
            return None
        if slack < min_slack:
            min_slack = slack

    return _issue(min_slack, state, grid, answer, query_id)


def derive_bi_lease(
    state, grid, cat_a, cat_b, k: int, query_id
) -> Optional[Lease]:
    """Derive a safe-region lease from a bichromatic IGERN state.

    The bichromatic mirror of :func:`derive_mono_lease`: membership of
    each B object is decided by its A witnesses (the query's A object
    excluded), so slacks quantify over every B object with distances to
    the A population.  Monitored ``NN_A`` entries play the candidates'
    role in the cheap lower bound for point-dead B objects.
    """
    positions_a = grid.positions_snapshot(cat_a)
    positions_b = grid.positions_snapshot(cat_b)
    q = state.qpos
    qx, qy = q.x, q.y
    answer = state.answer
    extent = grid.extent
    guard = SLACK_GUARD_REL * math.hypot(extent.width, extent.height)
    hypot = math.hypot

    nn_list = [
        (aid, (pos.x, pos.y))
        for aid, pos in state.monitored.items()
        if aid != query_id
    ]
    min_slack = math.inf

    def full_dk(pos: Tuple[float, float]) -> float:
        px, py = pos
        smallest: List[float] = []
        for aid, (ax, ay) in positions_a.items():
            if aid == query_id:
                continue
            _push_k(smallest, hypot(ax - px, ay - py), k)
        if len(smallest) < k:
            return math.inf
        return smallest[k - 1]

    for ob, (bx, by) in positions_b.items():
        dq = hypot(bx - qx, by - qy)
        if ob in answer:
            dk = full_dk((bx, by))
            slack = dk - dq - guard
        else:
            gaps = []
            for _aid, (ax, ay) in nn_list:
                g = dq - hypot(ax - bx, ay - by)
                if g > guard:
                    gaps.append(g)
            kth_gap = _kth_largest(gaps, k)
            slack = kth_gap - guard if kth_gap is not None else -1.0
            if slack <= 0.0:
                slack = dq - full_dk((bx, by)) - guard
        if slack <= 0.0:
            return None
        if slack < min_slack:
            min_slack = slack

    return _issue(min_slack, state, grid, answer, query_id)


class LeaseState:
    """Engine-side bookkeeping for one active lease.

    ``spent`` accumulates the per-tick maximum data-point displacement
    (padded against float rounding); by the triangle inequality the sum
    of per-tick maxima bounds every object's cumulative displacement
    from its issue-time position, so ``spent <= object_budget`` keeps
    the lease's contract satisfied.  ``tainted`` marks that a lease-held
    skip consumed a tick whose delta touched the query's footprint — the
    footprint-disjointness evidence chain is void from then on, and only
    the lease itself can justify further skips until re-evaluation.
    """

    __slots__ = ("lease", "spent", "tainted", "broken")

    def __init__(self, lease: Lease):
        self.lease = lease
        self.spent = 0.0
        self.tainted = False
        self.broken = False

    def absorb(self, max_displacement: float, churn: bool) -> None:
        """Charge one tick's worth of data-point motion to the budget."""
        if churn:
            self.broken = True
            return
        if max_displacement > 0.0:
            self.spent += max_displacement * (1.0 + 1e-12)
            if self.spent > self.lease.object_budget:
                self.broken = True

    def holds(self, qpos) -> bool:
        """Whether the lease still certifies the answer at ``qpos``."""
        return not self.broken and self.lease.contains(qpos)
