"""Answer check from outside the program.

The benchmark rebuilds each query's answer from the change stream it
was delivered (``AnswerChange`` callbacks or ``AnswerDelta`` queues) and
compares a seeded sample of (query, tick) pairs with the repository's
brute-force oracles, evaluated on the script's own positions after the
timed region.

The quadratic oracles cannot run over tens of thousands of objects, so a
k-d tree narrows each query to an exact sub-problem first: an object
whose k-th nearest witness is closer than the query by more than a
relative 1e-9 (floating-point distances here err by ~1e-16) can never
be an answer, and a surviving candidate's verdict depends only on the
objects inside its query-distance ball.  ``brute_mono_rnn`` /
``brute_bi_rnn`` then decide the candidates on exactly those objects,
with their exact predicates.  Network queries run
``network_brute_mono_rnn`` on the whole population.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional

import numpy as np
from scipy.spatial import cKDTree

from repro.queries import brute_bi_rnn, brute_mono_rnn
from repro.queries.network_brute import network_brute_mono_rnn
from repro.serving import QuerySpec

_SLACK = 1e-9


class _Cloud:
    """A k-d tree over one category of objects at one tick."""

    def __init__(self, ids: List[Hashable], xy: np.ndarray):
        self.ids = ids
        self.xy = xy
        self.tree = cKDTree(xy) if ids else None
        self.index = {oid: i for i, oid in enumerate(ids)}

    def kth_witness(self, xy: np.ndarray, k: int, exclude: Optional[Hashable],
                    self_included: bool) -> np.ndarray:
        """Distance from each row of ``xy`` to its k-th nearest object of
        this cloud, skipping ``exclude`` (and the row itself when the
        rows are this cloud's own objects)."""
        skip = int(self_included) + int(exclude in self.index)
        want = min(k + skip, len(self.ids))
        col = k - 1 + int(self_included)
        if col >= want:
            return np.full(len(xy), np.inf)
        dd, ii = self.tree.query(xy, k=want)
        dd = dd.reshape(len(xy), want)
        if exclude in self.index:
            dd = np.where(ii.reshape(len(xy), want) == self.index[exclude], np.inf, dd)
            dd.sort(axis=1)
        return dd[:, col]

    def within(self, center, radius: float) -> List[int]:
        if self.tree is None:
            return []
        return self.tree.query_ball_point(center, radius)


class Oracle:
    """Expected answers for sampled (query, tick) pairs.

    Trees and k-th witness distances are cached per check snapshot, so
    the sampled queries of one tick share them.
    """

    def __init__(self, network=None):
        self.network = network
        self._node_cache: dict = {}
        self._clouds: dict = {}
        self._kth: dict = {}

    def answer(self, spec: QuerySpec, check) -> FrozenSet[Hashable]:
        """The brute-force answer of ``spec`` on a check snapshot."""
        if spec.point is not None:
            q = spec.point
        else:
            q = tuple(check.xy[np.nonzero(check.ids == spec.query_id)[0][0]].tolist())
        if spec.metric == "network":
            positions = dict(zip(check.ids.tolist(), map(tuple, check.xy.tolist())))
            return frozenset(
                network_brute_mono_rnn(
                    self.network, positions, q, query_id=spec.query_id,
                    k=spec.k, node_cache=self._node_cache,
                )
            )
        if spec.mode == "mono":
            witnesses = candidates = self._cloud(check, None)
        else:
            witnesses = self._cloud(check, spec.cat_a)
            candidates = self._cloud(check, spec.cat_b)
        if not candidates.ids:
            return frozenset()
        same = witnesses is candidates
        key = (id(check), spec.mode, spec.query_id, spec.k)
        kth = self._kth.get(key)
        if kth is None:
            kth = self._kth[key] = witnesses.kth_witness(
                candidates.xy, spec.k, spec.query_id, self_included=same
            )
        xy = candidates.xy
        dq = np.hypot(xy[:, 0] - q[0], xy[:, 1] - q[1])
        hits = np.nonzero(dq <= kth * (1 + _SLACK) + _SLACK)[0]
        cands = {candidates.ids[i]: tuple(xy[i].tolist()) for i in hits}
        cands.pop(spec.query_id, None)
        pool = {}
        for i in hits:
            for j in witnesses.within(xy[i], dq[i] * (1 + _SLACK) + _SLACK):
                pool[witnesses.ids[j]] = tuple(witnesses.xy[j].tolist())
        if same:
            pool.update(cands)
            verdict = brute_mono_rnn(pool, q, query_id=spec.query_id, k=spec.k)
            return frozenset(verdict & cands.keys())
        return frozenset(
            brute_bi_rnn(pool, cands, q, query_id=spec.query_id, k=spec.k)
        )

    def _cloud(self, check, category) -> _Cloud:
        key = (id(check), category)
        cloud = self._clouds.get(key)
        if cloud is None:
            rows = slice(None) if category is None else check.cats == category
            cloud = _Cloud(check.ids[rows].tolist(), check.xy[rows])
            self._clouds[key] = cloud
        return cloud


def verify(script, observed: Dict[int, Dict[str, FrozenSet[Hashable]]]) -> List[str]:
    """Compare every observed sampled answer with the oracle.

    ``observed`` maps tick -> query name -> answer rebuilt from the
    delivered change stream.  Returns one line per wrong answer.
    """
    oracle = Oracle(script.network)
    wrong = []
    for tick, answers in sorted(observed.items()):
        check = script.checks[tick]
        for spec in check.specs:
            expected = oracle.answer(spec, check)
            got = answers[spec.name]
            if got != expected:
                wrong.append(
                    f"tick {tick} query {spec.name}: got {sorted(got)[:8]}"
                    f" expected {sorted(expected)[:8]}"
                )
    return wrong
