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

The states below mirror the interface surface the engine and the fuzz
lockstep read from Euclidean states: ``candidates`` / ``nn_a``
dictionaries (monitored objects with position snapshots) and
``check_invariants`` with the same signatures as
:class:`~repro.core.state.MonoState` / :class:`~repro.core.state.BiState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.state import StepReport
from repro.geometry.point import Point
from repro.grid.index import Category, GridIndex, ObjectId
from repro.grid.search import GridSearch


@dataclass
class NetworkMonoState:
    """Snapshot state of a monochromatic network-metric query."""

    qpos: Point
    metric: object
    candidates: Dict[ObjectId, Point] = field(default_factory=dict)
    answer: Set[ObjectId] = field(default_factory=set)

    def check_invariants(
        self, grid: GridIndex, k: int = 1, query_id: Optional[ObjectId] = None
    ) -> List[str]:
        """Independent re-derivation of the state's claims against the
        grid: full candidacy (every live object except the query is
        monitored), fresh position snapshots, and — for every claimed
        answer — strictly fewer than ``k`` strictly-closer witnesses
        under the metric.  Non-answers are vouched for by the brute
        oracle layer of the lockstep, so this check stays linear in the
        answer size rather than quadratic in the population."""
        problems: List[str] = []
        ids = [oid for oid in grid.objects() if oid != query_id]
        ids_set = set(ids)
        if set(self.candidates) != ids_set:
            problems.append(
                "network candidate set out of sync: "
                f"{len(self.candidates)} monitored vs {len(ids)} live"
            )
        for oid, snap in self.candidates.items():
            try:
                if grid.position(oid) != snap:
                    problems.append(f"stale candidate position for {oid!r}")
            except KeyError:
                problems.append(f"candidate {oid!r} no longer in grid")
        metric = self.metric
        loc_q = metric.locate(self.qpos)
        for oid in self.answer:
            if oid not in self.candidates:
                problems.append(f"answer {oid!r} outside the candidate set")
                continue
            if oid not in ids_set:
                continue  # already reported as out of sync
            loc_o = metric.locate(grid.position(oid))
            r = metric.distance_located(loc_o, loc_q)
            closer = 0
            for other in ids:
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


@dataclass
class NetworkBiState:
    """Snapshot state of a bichromatic network-metric query."""

    qpos: Point
    metric: object
    nn_a: Dict[ObjectId, Point] = field(default_factory=dict)
    answer: Set[ObjectId] = field(default_factory=set)

    def check_invariants(
        self,
        grid: GridIndex,
        cat_a: Category,
        cat_b: Category,
        k: int = 1,
        query_id: Optional[ObjectId] = None,
    ) -> List[str]:
        """Bichromatic analog of :meth:`NetworkMonoState.check_invariants`:
        the monitored A set is complete and fresh, and every claimed B
        answer has strictly fewer than ``k`` A objects strictly closer
        to it than the query."""
        problems: List[str] = []
        a_ids = [oid for oid in grid.objects(cat_a) if oid != query_id]
        if set(self.nn_a) != set(a_ids):
            problems.append(
                "network monitored-A set out of sync: "
                f"{len(self.nn_a)} monitored vs {len(a_ids)} live"
            )
        for oid, snap in self.nn_a.items():
            try:
                if grid.position(oid) != snap:
                    problems.append(f"stale A position for {oid!r}")
            except KeyError:
                problems.append(f"A object {oid!r} no longer in grid")
        b_ids = set(grid.objects(cat_b))
        metric = self.metric
        loc_q = metric.locate(self.qpos)
        for oid in self.answer:
            if oid not in b_ids:
                problems.append(f"answer {oid!r} is not a live {cat_b} object")
                continue
            loc_b = metric.locate(grid.position(oid))
            r = metric.distance_located(loc_b, loc_q)
            closer = 0
            for other in a_ids:
                d = metric.distance_located(
                    loc_b, metric.locate(grid.position(other))
                )
                if d < r:
                    closer += 1
                    if closer >= k:
                        break
            if closer >= k:
                problems.append(
                    f"answer {oid!r} has {closer} strictly closer A witnesses (k={k})"
                )
        return problems


class NetworkMonoCore:
    """Monochromatic R(k)NN under a network metric (filter and refine)."""

    def __init__(
        self,
        grid: GridIndex,
        metric,
        query_id: Optional[ObjectId] = None,
        k: int = 1,
        search: Optional[GridSearch] = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.grid = grid
        self.metric = metric
        self.query_id = query_id
        self.k = k
        self.search = search if search is not None else GridSearch(grid, metric=metric)
        # Parity hooks with the Euclidean cores: the executor adapters
        # bind these unconditionally.
        self.shared_context = None
        self.cost = None

    def initial(self, qpos) -> "tuple[NetworkMonoState, StepReport]":
        state = self._evaluate(qpos)
        return state, self._report(state, is_initial=True)

    def incremental(self, state: NetworkMonoState, qpos) -> StepReport:
        fresh = self._evaluate(qpos)
        state.qpos = fresh.qpos
        state.candidates = fresh.candidates
        state.answer = fresh.answer
        return self._report(state, is_initial=False)

    def _evaluate(self, qpos) -> NetworkMonoState:
        metric = self.metric
        grid = self.grid
        qid = self.query_id
        q = Point(qpos[0], qpos[1])
        loc_q = metric.locate(q)
        exclude_query = (qid,) if qid is not None else ()
        candidates: Dict[ObjectId, Point] = {}
        answer: Set[ObjectId] = set()
        for oid in list(grid.objects()):
            if oid == qid:
                continue
            pos = grid.position(oid)
            candidates[oid] = pos
            r = metric.distance_located(metric.locate(pos), loc_q)
            witnesses = self.search.network_witness_count(
                metric,
                pos,
                r,
                exclude=(oid, *exclude_query),
                stop_at=self.k,
            )
            if witnesses < self.k:
                answer.add(oid)
        return NetworkMonoState(qpos=q, metric=metric, candidates=candidates, answer=answer)

    def _report(self, state: NetworkMonoState, is_initial: bool) -> StepReport:
        # No alive region exists in network mode; the whole space is
        # monitored (alive_fraction 1.0) and every non-initial step is a
        # full rebuild by construction.
        return StepReport(
            answer=frozenset(state.answer),
            monitored=frozenset(state.candidates),
            alive_cells=0,
            alive_fraction=1.0,
            is_initial=is_initial,
            movement_rebuild=not is_initial,
        )


class NetworkBiCore:
    """Bichromatic R(k)NN under a network metric (filter and refine).

    The query is of type ``cat_a``; the answer consists of ``cat_b``
    objects for which fewer than ``k`` A objects are strictly closer
    than the query point.
    """

    def __init__(
        self,
        grid: GridIndex,
        metric,
        cat_a: Category = "A",
        cat_b: Category = "B",
        query_id: Optional[ObjectId] = None,
        k: int = 1,
        search: Optional[GridSearch] = None,
    ):
        if cat_a == cat_b:
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
        self.shared_context = None
        self.cost = None

    def initial(self, qpos) -> "tuple[NetworkBiState, StepReport]":
        state = self._evaluate(qpos)
        return state, self._report(state, is_initial=True)

    def incremental(self, state: NetworkBiState, qpos) -> StepReport:
        fresh = self._evaluate(qpos)
        state.qpos = fresh.qpos
        state.nn_a = fresh.nn_a
        state.answer = fresh.answer
        return self._report(state, is_initial=False)

    def _evaluate(self, qpos) -> NetworkBiState:
        metric = self.metric
        grid = self.grid
        qid = self.query_id
        q = Point(qpos[0], qpos[1])
        loc_q = metric.locate(q)
        exclude_query = (qid,) if qid is not None else ()
        nn_a: Dict[ObjectId, Point] = {
            oid: grid.position(oid)
            for oid in grid.objects(self.cat_a)
            if oid != qid
        }
        answer: Set[ObjectId] = set()
        for oid in list(grid.objects(self.cat_b)):
            pos = grid.position(oid)
            r = metric.distance_located(metric.locate(pos), loc_q)
            witnesses = self.search.network_witness_count(
                metric,
                pos,
                r,
                exclude=exclude_query,
                category=self.cat_a,
                stop_at=self.k,
            )
            if witnesses < self.k:
                answer.add(oid)
        return NetworkBiState(qpos=q, metric=metric, nn_a=nn_a, answer=answer)

    def _report(self, state: NetworkBiState, is_initial: bool) -> StepReport:
        return StepReport(
            answer=frozenset(state.answer),
            monitored=frozenset(state.nn_a),
            alive_cells=0,
            alive_fraction=1.0,
            is_initial=is_initial,
            movement_rebuild=not is_initial,
        )
