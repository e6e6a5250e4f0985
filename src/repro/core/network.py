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
  (Section 2: an *equidistant* witness does NOT disqualify);
- a candidate answers iff fewer than ``k`` witnesses are strictly
  closer to it than the query is.

Every step is a from-scratch evaluation: the witness set of a network
query has no bounded Euclidean footprint (a far-away object can be
network-close), so the executors report ``footprint() -> None`` and the
tick scheduler honestly re-evaluates them every tick.  The BRkNN-light
sharing happens one layer down — single-source Dijkstra maps are
memoized on the road network itself (``repro.metric``), so every query
on one network shares shortest-path expansions, within a tick and
across ticks.

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
from typing import Dict, List, Optional, Set

from repro.core.state import StepReport
from repro.geometry.point import Point
from repro.grid.index import Category, GridIndex, ObjectId
from repro.grid.search import GridSearch


@dataclass
class NetworkState:
    """Snapshot state of a network-metric query.

    ``monitored`` holds every ``cat_a`` object other than the query (all
    of them when ``cat_a`` is ``None``): the candidates of a
    monochromatic query, the A witnesses of a bichromatic one.
    """

    qpos: Point
    metric: object
    cat_a: Optional[Category] = None
    cat_b: Optional[Category] = None
    monitored: Dict[ObjectId, Point] = field(default_factory=dict)
    answer: Set[ObjectId] = field(default_factory=set)

    def check_invariants(
        self, grid: GridIndex, k: int = 1, query_id: Optional[ObjectId] = None
    ) -> List[str]:
        """Independent re-derivation of the state's claims against the
        grid: complete monitoring (every live ``cat_a`` object except the
        query is monitored), fresh position snapshots, and — for every
        claimed answer — a live ``cat_b`` object other than the query
        with strictly fewer than ``k`` strictly-closer witnesses under
        the metric.  Non-answers are vouched for by the brute oracle
        layer of the lockstep, so this check stays linear in the answer
        size rather than quadratic in the population."""
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
        metric = self.metric
        loc_q = metric.locate(self.qpos)
        for oid in self.answer:
            if oid not in answerable:
                problems.append(f"answer {oid!r} is not a live candidate")
                continue
            loc_o = metric.locate(grid.position(oid))
            r = metric.distance_located(loc_o, loc_q)
            closer = 0
            for other in witnesses:
                if other == oid:
                    continue
                d = metric.distance_located(
                    loc_o, metric.locate(grid.position(other))
                )
                if d < r:
                    closer += 1
                    if closer >= k:
                        break
            if closer >= k:
                problems.append(
                    f"answer {oid!r} has {closer} strictly closer witnesses (k={k})"
                )
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
        # Parity hooks with the Euclidean cores: the executor adapters
        # bind these unconditionally.
        self.shared_context = None
        self.cost = None

    def initial(self, qpos) -> "tuple[NetworkState, StepReport]":
        state = self._evaluate(qpos)
        return state, self._report(state, is_initial=True)

    def incremental(self, state: NetworkState, qpos) -> StepReport:
        fresh = self._evaluate(qpos)
        state.qpos = fresh.qpos
        state.monitored = fresh.monitored
        state.answer = fresh.answer
        return self._report(state, is_initial=False)

    def _evaluate(self, qpos) -> NetworkState:
        metric = self.metric
        grid = self.grid
        qid = self.query_id
        q = Point(qpos[0], qpos[1])
        loc_q = metric.locate(q)
        exclude_query = (qid,) if qid is not None else ()
        monitored: Dict[ObjectId, Point] = {
            oid: grid.position(oid)
            for oid in grid.objects(self.cat_a)
            if oid != qid
        }
        answer: Set[ObjectId] = set()
        for oid in list(grid.objects(self.cat_b)):
            if oid == qid:
                continue
            pos = grid.position(oid)
            r = metric.distance_located(metric.locate(pos), loc_q)
            witnesses = self.search.network_witness_count(
                metric,
                pos,
                r,
                exclude=(oid, *exclude_query),
                category=self.cat_a,
                stop_at=self.k,
            )
            if witnesses < self.k:
                answer.add(oid)
        return NetworkState(
            qpos=q,
            metric=metric,
            cat_a=self.cat_a,
            cat_b=self.cat_b,
            monitored=monitored,
            answer=answer,
        )

    def _report(self, state: NetworkState, is_initial: bool) -> StepReport:
        # No alive region exists in network mode; the whole space is
        # monitored (alive_fraction 1.0) and every non-initial step is a
        # full rebuild by construction.
        return StepReport(
            answer=frozenset(state.answer),
            monitored=frozenset(state.monitored),
            alive_cells=0,
            alive_fraction=1.0,
            is_initial=is_initial,
            movement_rebuild=not is_initial,
        )
