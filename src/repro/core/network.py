"""Filter-and-refine R(k)NN evaluation under the road-network metric.

IGERN's pruning machinery — perpendicular-bisector half-planes carving an
alive-cell region — is a Euclidean theorem and proves nothing under
shortest-path distance (``AliveCellGrid.require_euclidean``).  The
network mode therefore evaluates the paper's queries by filter and
refine:

- every object is a candidate; its network distance to the query is its
  verification threshold ``r``;
- witnesses are counted through the grid's padded Euclidean prefilter
  (straight-line distance lower-bounds network distance, so the
  Euclidean ball is a sound superset — see
  ``GridSearch.network_witness_count``), refined with the exact shared
  float comparison, strict ``<`` per the paper's tie semantics
  (Section 2: an *equidistant* witness does NOT disqualify); the probe
  hands back the ids it counted, a non-answer's witness certificate;
- a candidate answers iff fewer than ``k`` witnesses are strictly
  closer to it than the query is.

An incremental step re-evaluates from scratch only when the query moved.
Otherwise it diffs the grid against the state's position snapshots and
re-probes only what the diff can affect (``docs/ALGORITHM.md``,
"Network witness certificates"): new and moved candidates, answers whose
padded Euclidean ball a moved or inserted witness-category object
entered, and non-answers whose :class:`~repro.core.state.Certificate`
broke.  Every other candidate keeps its verdict without a probe.

Network queries report no footprint (``footprint() -> None``): every
object is a candidate, so a mover anywhere can change the answer and
the tick scheduler dispatches the query on every tick.  The
BRkNN-light sharing happens one layer down — single-source Dijkstra
maps are memoized on the road network itself (``repro.metric``), so
every query on one network shares shortest-path expansions, within a
tick and across ticks.

One :class:`NetworkCore` serves both flavours: ``cat_a`` / ``cat_b`` are
``None`` for a monochromatic query (every object is a candidate and a
witness) and name the witness and answer categories of a bichromatic
one.  Its :class:`NetworkState` has the interface the engine and the
fuzz lockstep read from :class:`~repro.core.state.RegionState`: a
``monitored`` dictionary (objects with position snapshots) and
``check_invariants(grid, k, query_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

from repro.core.state import Certificate, StepReport
from repro.geometry.point import Point
from repro.grid.index import Category, GridIndex, ObjectId
from repro.grid.search import GridSearch
from repro.metric import Located
from repro.obs.ledger import phase


class NetworkCandidate(NamedTuple):
    """A candidate's verification inputs, as its last probe computed
    them: its ``position``, its snap ``located``, and ``radius``, its
    network distance to the query (the threshold a witness must beat)."""

    position: Point
    located: Located
    radius: float


def may_have_entered(metric, entry: NetworkCandidate, entered: Sequence[Point]) -> bool:
    """Whether an object now at one of the ``entered`` positions may lie
    in the candidate's open network ball ``d_N(o, p) < r_o``.

    The padded straight-line test of ``GridSearch.network_witness_count``:
    ``d_E <= d_N``, so every point of the network ball lies in the closed
    Euclidean ball of radius ``metric.prefilter_radius(r_o)``.
    """
    radius = metric.prefilter_radius(entry.radius)
    r2 = radius * radius
    cx, cy = entry.position
    for p in entered:
        dx = p.x - cx
        dy = p.y - cy
        if dx * dx + dy * dy <= r2:
            return True
    return False


def certificate_holds(
    metric,
    cert: Certificate,
    entry: NetworkCandidate,
    q: Point,
    population: Dict[ObjectId, Point],
    snapshot: Dict[ObjectId, Point],
) -> bool:
    """Whether ``cert`` still proves its candidate is no answer.

    It does while the candidate and the query sit where it was issued
    and every witness is still an indexed witness-category object
    (``population``, id -> current position) that is still *strictly*
    closer to the candidate than the query.  A witness at its
    ``snapshot`` position is: the last step left it strictly closer
    there.  A moved one is re-measured.
    """
    if cert.candidate != entry.position or cert.query != q:
        return False
    located = entry.located
    radius = entry.radius
    for wid in cert.witnesses:
        wpos = population.get(wid)
        if wpos is None:
            return False
        if wpos != snapshot.get(wid) and not (
            metric.distance_located(located, metric.locate(wpos)) < radius
        ):
            return False
    return True


@dataclass
class NetworkState:
    """Snapshot state of a network-metric query.

    ``monitored`` holds every ``cat_a`` object other than the query (all
    of them when ``cat_a`` is ``None``): the candidates of a
    monochromatic query, the A witnesses of a bichromatic one.
    ``candidates`` holds every ``cat_b`` object other than the query
    with its :class:`NetworkCandidate` inputs, and ``certificates`` maps
    each non-answer candidate to the ``k`` witnesses its last probe
    counted.
    """

    qpos: Point
    metric: object
    cat_a: Optional[Category] = None
    cat_b: Optional[Category] = None
    monitored: Dict[ObjectId, Point] = field(default_factory=dict)
    answer: Set[ObjectId] = field(default_factory=set)
    candidates: Dict[ObjectId, NetworkCandidate] = field(default_factory=dict)
    certificates: Dict[ObjectId, Certificate] = field(default_factory=dict)

    def check_invariants(
        self, grid: GridIndex, k: int = 1, query_id: Optional[ObjectId] = None
    ) -> List[str]:
        """Independent re-derivation of the state's claims against the
        grid: complete monitoring (every live ``cat_a`` object except the
        query is monitored, every live ``cat_b`` one a candidate), fresh
        position snapshots, each candidate's cached position, snap and
        radius equal to a recomputation, and a verdict for every
        candidate.  An answer has strictly fewer than ``k``
        strictly-closer witnesses under the metric (exhaustive count); a
        non-answer holds a certificate issued at the current candidate
        and query positions that lists ``k`` distinct indexed ``cat_a``
        objects, neither the candidate nor the query object, each
        strictly closer than the query."""
        problems: List[str] = []
        witnesses = [oid for oid in grid.objects(self.cat_a) if oid != query_id]
        if set(self.monitored) != set(witnesses):
            problems.append(
                "network monitored set out of sync: "
                f"{len(self.monitored)} monitored vs {len(witnesses)} live"
            )
        for oid, snap in self.monitored.items():
            try:
                if grid.position(oid) != snap:
                    problems.append(f"stale monitored position for {oid!r}")
            except KeyError:
                problems.append(f"monitored object {oid!r} no longer in grid")
        answerable = set(grid.objects(self.cat_b))
        answerable.discard(query_id)
        if set(self.candidates) != answerable:
            problems.append(
                "network candidate set out of sync: "
                f"{len(self.candidates)} candidates vs {len(answerable)} live"
            )
        for oid in self.answer - answerable:
            problems.append(f"answer {oid!r} is not a live candidate")
        metric = self.metric
        loc_q = metric.locate(self.qpos)
        fresh: Dict[ObjectId, NetworkCandidate] = {}
        for oid in answerable:
            pos = grid.position(oid)
            located = metric.locate(pos)
            entry = fresh[oid] = NetworkCandidate(
                pos, located, metric.distance_located(located, loc_q)
            )
            cached = self.candidates.get(oid)
            if cached is not None and cached != entry:
                problems.append(f"stale position, snap or radius cached for {oid!r}")
            if oid in self.answer:
                closer = 0
                for other in witnesses:
                    if other != oid and metric.distance_located(
                        located, metric.locate(grid.position(other))
                    ) < entry.radius:
                        closer += 1
                        if closer >= k:
                            problems.append(
                                f"answer {oid!r} has {closer} strictly closer"
                                f" witnesses (k={k})"
                            )
                            break
            elif oid not in self.certificates:
                problems.append(f"non-answer {oid!r} holds no certificate")
        live_witnesses = set(witnesses)
        for oid, cert in self.certificates.items():
            site = f"network certificate of {oid!r}"
            entry = fresh.get(oid)
            if entry is None:
                problems.append(f"{site} outlived its candidate")
            elif oid in self.answer:
                problems.append(f"{site} is held by an answer")
            elif cert.candidate != entry.position or cert.query != self.qpos:
                problems.append(f"{site} was issued at other candidate or query positions")
            elif len(cert.witnesses) != k or len(set(cert.witnesses)) != k:
                problems.append(f"{site} lists {cert.witnesses!r}, not {k} distinct witnesses")
            else:
                for wid in cert.witnesses:
                    if wid == oid or (query_id is not None and wid == query_id):
                        problems.append(f"{site} lists the candidate or the query object")
                    elif wid not in live_witnesses:
                        problems.append(f"{site} lists {wid!r}, which is no indexed witness")
                    elif not metric.distance_located(
                        entry.located, metric.locate(grid.position(wid))
                    ) < entry.radius:
                        problems.append(f"{site} lists {wid!r}, which is not strictly closer")
        return problems


class NetworkCore:
    """R(k)NN under a network metric (filter and refine).

    Monochromatic when ``cat_a`` and ``cat_b`` are ``None``.  Otherwise
    the query is of type ``cat_a`` and the answer consists of ``cat_b``
    objects for which fewer than ``k`` A objects are strictly closer
    than the query point.
    """

    def __init__(
        self,
        grid: GridIndex,
        metric,
        cat_a: Optional[Category] = None,
        cat_b: Optional[Category] = None,
        query_id: Optional[ObjectId] = None,
        k: int = 1,
        search: Optional[GridSearch] = None,
    ):
        if (cat_a is None) != (cat_b is None):
            raise ValueError("a bichromatic query needs both categories")
        if cat_a is not None and cat_a == cat_b:
            raise ValueError("bichromatic query needs two distinct categories")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.grid = grid
        self.metric = metric
        self.cat_a = cat_a
        self.cat_b = cat_b
        self.query_id = query_id
        self.k = k
        self.search = search if search is not None else GridSearch(grid, metric=metric)
        # Bound by the executor adapters, as on the Euclidean cores:
        # ``cost`` times the verify phase into the ledger row;
        # ``shared_context`` is unused (no per-tick sharing here).
        self.shared_context = None
        self.cost = None

    def initial(self, qpos) -> "tuple[NetworkState, StepReport]":
        q = Point(qpos[0], qpos[1])
        state = NetworkState(
            qpos=q, metric=self.metric, cat_a=self.cat_a, cat_b=self.cat_b
        )
        with phase(self.cost, "network.initial.verify"):
            self._verify(state, q, rebuild=True)
        return state, self._report(state, is_initial=True, rebuild=False)

    def incremental(self, state: NetworkState, qpos) -> StepReport:
        q = Point(qpos[0], qpos[1])
        rebuild = q != state.qpos
        with phase(self.cost, "network.incremental.verify"):
            self._verify(state, q, rebuild)
        return self._report(state, is_initial=False, rebuild=rebuild)

    def _verify(self, state: NetworkState, q: Point, rebuild: bool) -> None:
        """Verify every candidate against the grid as it is now.

        With ``rebuild`` (the initial step, or the query moved) every
        candidate is probed.  Otherwise a candidate keeps its verdict
        without a probe unless (a) it is new or moved, (b) it is an
        answer and a moved or inserted witness-category object may have
        entered its ball (:func:`may_have_entered`), or (c) it is a
        non-answer whose certificate no longer holds
        (:func:`certificate_holds`).  The state is replaced only once
        every verdict is in.
        """
        metric = self.metric
        grid = self.grid
        positions = grid._positions
        qid = self.query_id
        k = self.k
        search = self.search
        loc_q = metric.locate(q)
        exclude_query = (qid,) if qid is not None else ()
        population = {
            oid: positions[oid] for oid in grid.objects(self.cat_a) if oid != qid
        }
        snapshot = state.monitored
        old_answer = state.answer
        old_certificates = state.certificates
        if rebuild:
            previous: Dict[ObjectId, NetworkCandidate] = {}
            entered: List[Point] = []
        else:
            previous = state.candidates
            # Moved and inserted witness-category objects, at their new
            # positions: the only ones that can have entered a ball.
            entered = [
                pos for oid, pos in population.items() if snapshot.get(oid) != pos
            ]
        if self.cat_b is None:
            current = population.items()
        else:
            current = (
                (oid, positions[oid])
                for oid in grid.objects(self.cat_b)
                if oid != qid
            )
        candidates: Dict[ObjectId, NetworkCandidate] = {}
        answer: Set[ObjectId] = set()
        certificates: Dict[ObjectId, Certificate] = {}
        certified = 0
        for oid, pos in current:
            entry = previous.get(oid)
            if entry is not None and entry.position == pos:
                if oid in old_answer:
                    cert = None
                    keep = not may_have_entered(metric, entry, entered)
                else:
                    cert = old_certificates.get(oid)
                    keep = cert is not None and certificate_holds(
                        metric, cert, entry, q, population, snapshot
                    )
                if keep:
                    candidates[oid] = entry
                    if cert is None:
                        answer.add(oid)
                    else:
                        certificates[oid] = cert
                    # Read the snap and the two distance maps the probe
                    # would have read, so the tick memos keep them.
                    metric.retain(pos, entry.located)
                    certified += 1
                    continue
            located = metric.locate(pos)
            r = metric.distance_located(located, loc_q)
            found: List[ObjectId] = []
            witnesses = search.network_witness_count(
                metric,
                pos,
                r,
                exclude=(oid, *exclude_query),
                category=self.cat_a,
                stop_at=k,
                witnesses=found,
            )
            candidates[oid] = NetworkCandidate(pos, located, r)
            if witnesses < k:
                answer.add(oid)
            else:
                certificates[oid] = Certificate(pos, q, tuple(found))
        state.qpos = q
        state.monitored = population
        state.candidates = candidates
        state.answer = answer
        state.certificates = certificates
        search.stats.certified += certified

    def _report(self, state: NetworkState, is_initial: bool, rebuild: bool) -> StepReport:
        # No alive region exists in network mode; the whole space is
        # monitored (alive_fraction 1.0).  A step that re-probed every
        # candidate because the query moved is the rebuild.
        return StepReport(
            answer=frozenset(state.answer),
            monitored=frozenset(state.monitored),
            alive_cells=0,
            alive_fraction=1.0,
            is_initial=is_initial,
            movement_rebuild=rebuild,
        )
