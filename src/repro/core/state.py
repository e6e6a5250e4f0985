"""Monitored state and per-step reports for the IGERN algorithms.

The whole point of IGERN is that an incremental execution needs only

- the monitored *bounded region* (an alive-cell mask shaped by bisector
  half-planes), and
- the monitored *object set* (``RNNcand`` in the monochromatic case,
  ``NN_A`` in the bichromatic case) with a position snapshot per object so
  movement can be detected,

rather than the whole space.  Both flavours keep them in one
:class:`RegionState`, threaded through consecutive incremental steps.
A monochromatic state also keeps one :class:`Certificate` per non-answer
candidate: the witnesses that disqualified it, so the next step re-probes
only the candidates whose certificate broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.geometry import predicates
from repro.geometry.point import Point, dist, dist_sq
from repro.grid.alive import AliveCellGrid
from repro.grid.index import Category, ObjectId

#: Above this many bounding-box cells, the incremental tightening step
#: switches from the one-pass region scan to the unbounded best-first
#: loop (see ``repro.core.region.RegionCore._tighten``).  The tick
#: scheduler's footprints are only valid while the executor stays on the
#: scan path, so the same constant gates both decisions.
SCAN_CELL_LIMIT = 48

#: A footprint larger than this is not worth monitoring: intersection
#: tests would cost more than the tick they might save, so the query
#: falls back to being evaluated every tick.
FOOTPRINT_CELL_CAP = 1024


def _add_ball_cells(grid, center: Point, radius: float, out: set, cap: int) -> bool:
    """Add every cell intersecting the closed ball's bounding box.

    Conservative cover of a verification witness ball: any object that
    can become (or stop being) strictly closer to ``center`` than
    ``radius`` lies inside the ball, hence inside these cells.  Returns
    ``False`` once ``out`` exceeds ``cap``.
    """
    lo = grid.cell_key((center.x - radius, center.y - radius))
    hi = grid.cell_key((center.x + radius, center.y + radius))
    if (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) > cap:
        return False
    for ix in range(lo[0], hi[0] + 1):
        for iy in range(lo[1], hi[1] + 1):
            out.add((ix, iy))
    return len(out) <= cap


class Certificate(NamedTuple):
    """Why a candidate is not an answer.

    ``witnesses`` are the ``k`` objects its last verification probe found
    strictly closer to it than the query, with ``candidate`` and ``query``
    the positions that probe saw.  While its re-check holds
    (:func:`certificate_holds` for monochromatic IGERN,
    :func:`repro.core.network.certificate_holds` under a network metric),
    the candidate has at least ``k`` strict witnesses and needs no probe.
    """

    candidate: Point
    query: Point
    witnesses: Tuple[ObjectId, ...]


def certificate_holds(positions, cert: Certificate, cpos: Point, q: Point) -> bool:
    """Whether ``cert`` still proves its candidate is no answer.

    It does while the candidate and the query sit where the certificate
    was issued and every witness is still indexed and still *strictly*
    closer to the candidate than the query (the exact predicate: a
    witness that moved onto the candidate's threshold circle no longer
    counts).  ``positions`` is the grid's id -> position mapping.
    """
    if cert.candidate != cpos or cert.query != q:
        return False
    for wid in cert.witnesses:
        wpos = positions.get(wid)
        if wpos is None or not predicates.closer_than(cpos, wpos, q):
            return False
    return True


@dataclass
class StepReport:
    """What one initial/incremental execution did and produced.

    ``answer`` is the query result of this step; the remaining fields feed
    the experiment metrics (monitored objects — Figures 6b and 8b — and
    the monitored-area comparison against CRNN in the paper's discussion).
    """

    answer: FrozenSet[ObjectId]
    monitored: FrozenSet[ObjectId]
    alive_cells: int
    alive_fraction: float
    is_initial: bool
    movement_rebuild: bool = False
    tightened: int = 0
    pruned: int = 0
    #: Safe-region answer lease derived from this evaluation's final
    #: state (``repro.leases``), or ``None`` when lease mode is off, the
    #: metric is non-Euclidean, or no sound lease exists.  Carried
    #: reports drop it: the engine owns active-lease bookkeeping, the
    #: report only transports a freshly derived lease out of the step.
    lease: Optional[object] = None

    @property
    def monitored_count(self) -> int:
        return len(self.monitored)

    def carried(self) -> "StepReport":
        """A zero-ops copy of this report for a tick the engine skipped.

        The answer, monitored set and region stay exactly as they were;
        the per-step activity fields (rebuild / tightened / pruned) are
        zeroed, since the skipped execution did nothing.  (Direct
        construction: this runs once per skipped query per tick, and
        ``dataclasses.replace`` is an order of magnitude slower.)
        """
        return StepReport(
            answer=self.answer,
            monitored=self.monitored,
            alive_cells=self.alive_cells,
            alive_fraction=self.alive_fraction,
            is_initial=False,
        )


@dataclass
class RegionState:
    """Monitored state of an IGERN query between executions.

    ``monitored`` is the paper's ``RNNcand`` for a monochromatic query
    and ``NN_A`` for a bichromatic one: the objects whose bisectors with
    the query carve ``alive``, each with the position snapshot that
    movement detection compares against.  ``cat_a`` / ``cat_b`` are
    ``None`` for a monochromatic query; for a bichromatic one the
    monitored objects are of ``cat_a`` and the answers of ``cat_b``.
    ``certificates`` (monochromatic only) maps each non-answer candidate
    to the :class:`Certificate` its last verification issued.
    ``probed`` (bichromatic only) lists the B objects the last
    verification probed, a superset of the B objects point-alive in the
    final region; ``None`` stands for every B object in the alive cells.
    """

    qpos: Point
    alive: AliveCellGrid
    cat_a: Optional[Category] = None
    cat_b: Optional[Category] = None
    monitored: Dict[ObjectId, Point] = field(default_factory=dict)
    answer: Set[ObjectId] = field(default_factory=set)
    certificates: Dict[ObjectId, Certificate] = field(default_factory=dict)
    probed: Optional[List[ObjectId]] = None

    def certificate_witnesses(self) -> Set[ObjectId]:
        """Every witness some candidate's certificate relies on."""
        return {
            wid for cert in self.certificates.values() for wid in cert.witnesses
        }

    def footprint_cells(self, grid, cap: int = FOOTPRINT_CELL_CAP) -> Optional[set]:
        """The cells the next incremental step's outcome can depend on.

        The monitored alive region (tightening, and the bichromatic B
        enumeration, read exactly these cells on the scan path) plus a
        cover of each verification witness ball: ``B(c, dist(c, q))`` per
        monochromatic candidate ``c`` without a certificate, i.e. per
        answer (its probe counts the objects strictly inside the ball),
        or per B object ``b`` the last verification probed
        (:attr:`probed`: where A objects decide ``b``'s membership *and*
        where ``b``'s nearest A, the one absorption into ``NN_A``
        depends on, must lie).  A certified candidate needs no ball: only
        its own, the query's or a witness's movement can break the
        certificate, and those are footprint objects
        (``IGERNQuery.footprint``).  Nor does a B object the point filter
        skipped: it stays point-dead, hence no answer, until the query or
        an ``NN_A`` object moves or one of the alive cells is touched
        (``docs/ALGORITHM.md``, "Bichromatic footprints").  Returns
        ``None`` when no valid bounded footprint exists:
        for a bichromatic query, and for a monochromatic one at
        ``k = 1``, whenever the region bound exceeds
        :data:`SCAN_CELL_LIMIT` (the executor would fall back to the
        unbounded best-first search, whose reach footprints cannot
        cover), or when the cover outgrows ``cap``.
        """
        alive = self.alive
        cat_b = self.cat_b
        if (alive.k == 1 or cat_b is not None) and (
            alive.alive_cell_bound() > SCAN_CELL_LIMIT
        ):
            return None
        region = list(alive.alive_cells())
        cells = set(region)
        if len(cells) > cap:
            return None
        if cat_b is None:
            certified = self.certificates
            centers = (
                pos for oid, pos in self.monitored.items() if oid not in certified
            )
        elif self.probed is not None:
            positions = grid._positions
            centers = (positions[ob] for ob in self.probed)
        else:
            centers = (
                grid.position(ob)
                for key in region
                for ob in grid.objects_in_cell(key, cat_b)
            )
        q = self.qpos
        for pos in centers:
            if not _add_ball_cells(grid, pos, dist(pos, q), cells, cap):
                return None
        return cells

    def check_invariants(self, grid, k: int = 1, query_id=None) -> List[str]:
        """Structural soundness of the monitored state, as violations.

        Checked after a completed initial/incremental step (the default
        guarded pruning policy; the literal policy deliberately leaves
        dominated ex-candidates inside alive cells):

        - *region exhausted* — every *point-alive* object (A object, for
          a bichromatic query) inside an alive cell is monitored (Phase I
          termination: the alive region never hides an unexamined object,
          which is what makes Theorem 2's completeness argument go
          through).  Cell-level aliveness over-approximates, so a
          straddling cell may hold point-dead objects the algorithm
          correctly ignores;
        - *answer monitored* (monochromatic) — the answer is a subset of
          the candidates; *answer typed* (bichromatic) — every reported
          RNN is an indexed B object;
        - *point-alive B probed* (bichromatic, unless :attr:`probed` is
          ``None``) — every B object inside an alive cell that is
          point-alive in the region was probed by the last verification,
          so the footprint covers its witness ball;
        - *answer verified* — every reported RNN has fewer than ``k``
          objects (A objects) other than itself and the query strictly
          closer than the query position, re-derived here by exhaustive
          comparison (Phase II soundness, independent of the search
          structure that computed it);
        - *snapshots fresh* — every monitored object's cached position
          matches the grid (stale snapshots silently disable movement
          detection);
        - *certificates sound* (monochromatic) — only non-answer
          candidates hold one, and each lists ``k`` distinct indexed
          objects, none of them the candidate or the query object, each
          strictly closer to the candidate than the query (the exact
          predicate), issued at the current candidate and query
          positions.

        Returns human-readable violation strings; empty means sound.
        """
        out: List[str] = []
        monitored = self.monitored
        cat_a, cat_b = self.cat_a, self.cat_b
        alive = self.alive
        probed = None if cat_b is None or self.probed is None else set(self.probed)
        for key in alive.alive_cells():
            for oid in grid.objects_in_cell(key, cat_a):
                if (
                    oid != query_id
                    and oid not in monitored
                    and alive.point_alive(grid.position(oid))
                ):
                    out.append(f"alive cell {key} holds unabsorbed object {oid!r}")
            if probed is not None:
                for oid in grid.objects_in_cell(key, cat_b):
                    if oid not in probed and alive.point_alive(grid.position(oid)):
                        out.append(f"point-alive B object {oid!r} was not probed")
        if cat_b is None:
            for oid in self.answer:
                if oid not in monitored:
                    out.append(f"answer object {oid!r} is not monitored")
        q = self.qpos
        for oid in self.answer:
            if oid not in grid:
                out.append(f"answer object {oid!r} is not in the index")
                continue
            if cat_b is not None and grid.category(oid) != cat_b:
                out.append(
                    f"answer object {oid!r} has category"
                    f" {grid.category(oid)!r}, expected {cat_b!r}"
                )
                continue
            pos = grid.position(oid)
            dq2 = dist_sq(pos, q)
            witnesses = 0
            for other in grid.objects(cat_a):
                if other == oid or other == query_id:
                    continue
                if dist_sq(grid.position(other), pos) < dq2:
                    witnesses += 1
                    if witnesses >= k:
                        break
            if witnesses >= k:
                out.append(
                    f"answer object {oid!r} fails verification"
                    f" ({witnesses} strictly closer witnesses, k={k})"
                )
        for oid, snapshot in monitored.items():
            if oid not in grid:
                out.append(f"monitored object {oid!r} is no longer indexed")
            elif grid.position(oid) != snapshot:
                out.append(f"monitored object {oid!r} has a stale position snapshot")
        for oid, cert in self.certificates.items():
            out.extend(self._certificate_violations(grid, k, query_id, oid, cert))
        return out

    def _certificate_violations(self, grid, k, query_id, oid, cert) -> List[str]:
        site = f"certificate of {oid!r}"
        if oid not in self.monitored:
            return [f"{site} outlived its candidate"]
        if oid in self.answer:
            return [f"{site} is held by an answer"]
        pos, q = self.monitored[oid], self.qpos
        if cert.candidate != pos or cert.query != q:
            return [f"{site} was issued at other candidate or query positions"]
        witnesses = cert.witnesses
        if len(witnesses) != k or len(set(witnesses)) != k:
            return [f"{site} lists {witnesses!r}, not {k} distinct witnesses"]
        out: List[str] = []
        for wid in witnesses:
            if wid == oid or (query_id is not None and wid == query_id):
                out.append(f"{site} lists the candidate or the query object")
            elif wid not in grid:
                out.append(f"{site} lists {wid!r}, which is no longer indexed")
            elif not predicates.closer_than(pos, grid.position(wid), q):
                out.append(f"{site} lists {wid!r}, which is not strictly closer")
        return out
