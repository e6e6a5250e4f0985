"""Brute-force reverse nearest neighbor oracles.

Quadratic-time reference implementations used by the correctness tests
(Theorems 1-4: IGERN is accurate and complete, so on any input its answer
must equal the brute-force answer) and available as executors for tiny
interactive demos.

Tie semantics follow the paper's definitions exactly: an object is
disqualified only by *strictly* closer witnesses (``dist(o, o') <
dist(o, q)``), so an object equidistant between the query and another
object still counts as an RNN.

Distance comparisons run through the adaptive predicate kernel
(:mod:`repro.geometry.predicates`), so the oracle's strict-inequality
semantics hold exactly at every coordinate magnitude; with ``exact=True``
the filtered kernel is bypassed entirely and every comparison is done in
pure :class:`fractions.Fraction` arithmetic — the fuzzer's
``--exact-oracle`` gold standard, which shares *no* code with the
filtered fast path it is checking.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.geometry import predicates
from repro.grid.index import Category, GridIndex, ObjectId
from repro.obs.ledger import phase
from repro.queries.base import ContinuousQuery, QueryPosition

Position = Tuple[float, float]


def brute_mono_rnn(
    positions: Mapping[ObjectId, Position],
    qpos: Iterable[float],
    query_id: Optional[ObjectId] = None,
    k: int = 1,
    exact: bool = False,
) -> Set[ObjectId]:
    """Monochromatic R(k)NNs of ``qpos`` by exhaustive comparison.

    ``o`` is an answer iff fewer than ``k`` other data objects are strictly
    closer to ``o`` than the query is.  ``query_id`` (if given) is neither
    a candidate nor a witness.  ``exact=True`` forces every comparison
    into pure rational arithmetic (no float filter at all).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    compare = (
        predicates.compare_distance_pure if exact else predicates.compare_distance
    )
    q = (qpos[0], qpos[1]) if isinstance(qpos, tuple) else tuple(qpos)
    answer: Set[ObjectId] = set()
    for oid, pos in positions.items():
        if oid == query_id:
            continue
        witnesses = 0
        for other_id, other_pos in positions.items():
            if other_id == oid or other_id == query_id:
                continue
            if compare(pos, other_pos, q) < 0:
                witnesses += 1
                if witnesses >= k:
                    break
        if witnesses < k:
            answer.add(oid)
    return answer


def brute_bi_rnn(
    positions_a: Mapping[ObjectId, Position],
    positions_b: Mapping[ObjectId, Position],
    qpos: Iterable[float],
    query_id: Optional[ObjectId] = None,
    k: int = 1,
    exact: bool = False,
) -> Set[ObjectId]:
    """Bichromatic R(k)NNs of a type-A query by exhaustive comparison.

    A B object is an answer iff fewer than ``k`` A objects (other than the
    query itself) are strictly closer to it than the query's position.
    ``exact=True`` forces pure rational arithmetic.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    compare = (
        predicates.compare_distance_pure if exact else predicates.compare_distance
    )
    q = (qpos[0], qpos[1]) if isinstance(qpos, tuple) else tuple(qpos)
    answer: Set[ObjectId] = set()
    for ob, bpos in positions_b.items():
        witnesses = 0
        for oa, apos in positions_a.items():
            if oa == query_id:
                continue
            if compare(bpos, apos, q) < 0:
                witnesses += 1
                if witnesses >= k:
                    break
        if witnesses < k:
            answer.add(ob)
    return answer


class BruteForceMonoQuery(ContinuousQuery):
    """Executor wrapper around :func:`brute_mono_rnn` (testing/demos)."""

    name = "Brute"

    def __init__(self, grid: GridIndex, position: QueryPosition, k: int = 1):
        super().__init__(grid, position)
        self.k = k

    def initial(self) -> FrozenSet[Hashable]:
        return self.tick()

    def tick(self) -> FrozenSet[Hashable]:
        with phase(self.cost, "brute.scan"):
            snapshot = self.grid.positions_snapshot()
            self._answer = frozenset(
                brute_mono_rnn(
                    snapshot,
                    self.position.current(),
                    query_id=self.position.query_id,
                    k=self.k,
                )
            )
        return self._answer


class BruteForceBiQuery(ContinuousQuery):
    """Executor wrapper around :func:`brute_bi_rnn` (testing/demos)."""

    name = "Brute-bi"

    def __init__(
        self,
        grid: GridIndex,
        position: QueryPosition,
        cat_a: Category = "A",
        cat_b: Category = "B",
        k: int = 1,
    ):
        super().__init__(grid, position)
        self.cat_a = cat_a
        self.cat_b = cat_b
        self.k = k

    def initial(self) -> FrozenSet[Hashable]:
        return self.tick()

    def tick(self) -> FrozenSet[Hashable]:
        with phase(self.cost, "brute.scan"):
            snap_a = self.grid.positions_snapshot(self.cat_a)
            snap_b = self.grid.positions_snapshot(self.cat_b)
            self._answer = frozenset(
                brute_bi_rnn(
                    snap_a,
                    snap_b,
                    self.position.current(),
                    query_id=self.position.query_id,
                    k=self.k,
                )
            )
        return self._answer
