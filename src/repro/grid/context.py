"""Per-tick shared-execution context for co-evaluated queries.

When many continuous queries are evaluated against the *same* grid state
in the *same* tick, their verification work decomposes into two probe
primitives that repeat across queries: counting the objects strictly
within a candidate's verification threshold, and finding the nearest
object of a category around a point.  :class:`SharedTickContext`
memoizes those two for the duration of one tick, so that a batch of
overlapping queries pays for each probe once instead of once per query.

Region maintenance is not shared: each query scans and classifies only
its own bounded region, cut by its own bisectors (Algorithms 2 and 4);
a per-tick memo of cell scans or of (half-plane, cell) coverage tests
costs about as much per hit as the work it replaces (see
``docs/PERFORMANCE.md``).

Soundness rests on two properties:

1. **Queries never mutate the grid.**  Within one tick the grid is
   constant during query evaluation, so a primitive's result is a pure
   function of its arguments — any query may reuse any other query's
   result, and evaluation *order* cannot change answers.
2. **Every memo key carries the full argument set.**  Witness probes and
   nearest searches are keyed by ``(center object, witness category,
   exclusion signature)`` — the exclusion signature (the ids a probe must
   ignore: the probing query's own object, the candidate itself) is part
   of the key, because two probes around the same center with different
   exclusions are *different* questions.  A curiosity worth recording:
   with the call sites that exist today, dropping the signature from the
   *key alone* is provably masked — every in-tree signature is
   ``{query object} ∪ {candidate}``, the candidate is the probe's own
   center (already in the key), and the query object always sits at
   exactly its own threshold distance, where the strict ``<`` of the
   paper's semantics never counts it.  The keying is kept full anyway:
   the masking is an accident of the current callers, not a property of
   the primitive, and the planted-mutant smoke test exercises the
   realistic form of the bug (signature dropped from the key *and* the
   dispatched probe, so candidates self-witness).

Staleness is handled twice over: the engine calls :meth:`begin_tick`
before each batch of evaluations, and every read re-checks the grid's
monotonic ``mutations`` counter, which every insert, remove and move
bumps — a within-cell move counts even though no cell membership
changed, so a tick that only jitters objects inside their cells still
invalidates every cached probe, and an insert+remove pair that restores
the population cannot slip past the guard.

Cache-hit accounting feeds ``batch_probe_hits_total`` /
``batch_probe_misses_total`` and the per-tick sharing-ratio gauge (see
``docs/OBSERVABILITY.md``); the memoized-vs-cold equivalence is pinned by
the Hypothesis property suite in ``tests/engine/test_shared_context.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.geometry import predicates
from repro.geometry.point import Point
from repro.grid.index import Category, GridIndex, ObjectId

#: Memo kinds, for per-kind hit/miss introspection.
KINDS = ("witness", "nearest")


class _WitnessEntry:
    """Accumulated witness knowledge for one probe key within one tick.

    ``known`` maps witness id -> float squared distance from the center;
    every entry is a genuine witness for this key's exclusion signature.
    ``complete_t2`` is the largest threshold for which ``known`` provably
    holds *every* witness strictly below it (established by a cold probe
    that exhausted its threshold without hitting its ``stop_at`` cutoff);
    ``complete_ref`` is the reference point defining that threshold when
    the probe ran in exact mode, so later reuse decisions can compare
    thresholds through the adaptive predicates instead of rounded floats.
    """

    __slots__ = ("center", "known", "complete_t2", "complete_ref")

    def __init__(self, center: Point):
        self.center = center
        self.known: Dict[ObjectId, float] = {}
        self.complete_t2: float = 0.0
        self.complete_ref: Optional[Point] = None


class SharedTickContext:
    """Memoized grid primitives shared by all queries of one tick."""

    def __init__(self, grid: GridIndex):
        self.grid = grid
        self._version: Tuple[int, int] = (-1, -1)
        self._witness: Dict[tuple, _WitnessEntry] = {}
        self._nearest: Dict[tuple, tuple] = {}
        #: Aggregate probe accounting (all kinds).
        self.hits = 0
        self.misses = 0
        self.hits_by_kind: Dict[str, int] = {kind: 0 for kind in KINDS}
        self.misses_by_kind: Dict[str, int] = {kind: 0 for kind in KINDS}
        #: How many times the memos were dropped (tick resets + version
        #: guard trips); the stale-cache regression tests assert on this.
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _current_version(self) -> Tuple[int, int]:
        # ``mutations`` is monotonic and bumped by every insert/remove/move
        # (``updates``/``cell_changes`` are not: they miss inserts and
        # removes, so an insert+remove pair restoring the population would
        # slip past a guard built on them).  Population is kept in the
        # stamp as a cheap belt-and-braces second witness.
        grid = self.grid
        return (grid.mutations, len(grid))

    def begin_tick(self) -> None:
        """Drop every memo; called by the engine before each evaluation
        batch.  The version guard below would catch grid changes anyway
        (within-cell moves included), but an explicit per-tick reset keeps
        the context's lifetime — and its memory — bounded by one tick."""
        self._clear()
        self._version = self._current_version()

    def _clear(self) -> None:
        self._witness.clear()
        self._nearest.clear()
        self.invalidations += 1

    def _ensure_fresh(self) -> None:
        version = self._current_version()
        if version != self._version:
            self._clear()
            self._version = version

    def _account(self, kind: str, hit: bool) -> None:
        if hit:
            self.hits += 1
            self.hits_by_kind[kind] += 1
        else:
            self.misses += 1
            self.misses_by_kind[kind] += 1

    @property
    def sharing_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Probe keys
    # ------------------------------------------------------------------

    @staticmethod
    def probe_key(
        oid: ObjectId,
        category: Optional[Category],
        signature: FrozenSet[ObjectId],
    ) -> tuple:
        """Identity of a probe: center object, witness category, and the
        exclusion signature.  The signature MUST be part of the key — a
        probe that ignores ``{q, o}`` and a probe that ignores ``{o}``
        around the same center are different questions with different
        answers (see the module docstring for why today's callers happen
        to mask a key-only drop, and why that is no license to drop it)."""
        return (oid, category, signature)

    # ------------------------------------------------------------------
    # Witness probes (verification)
    # ------------------------------------------------------------------

    def witness_count(
        self,
        search,
        oid: ObjectId,
        center: Point,
        threshold_sq: float,
        signature: FrozenSet[ObjectId],
        category: Optional[Category],
        k: int,
        threshold_ref: Optional[Point] = None,
    ) -> int:
        """``min(k, #objects strictly closer than sqrt(threshold_sq)))``
        around ``center``, ignoring the signature ids — the verification
        primitive of Algorithms 1-4, shared across the tick's queries.

        Cold probes run through the *caller's* ``search`` (so per-query
        operation counters stay attributable) as the uncached
        :meth:`~repro.grid.search.GridSearch.count_closer_than` call,
        with a ``witnesses`` list collecting the rows to bank; memo reuse
        returns the same value the cold probe would compute on this grid
        state.

        ``threshold_ref`` names the point defining the threshold (the
        query position); with it cold probes run in exact-predicate mode
        and *reuse* decisions go exact too — banked witness positions are
        re-compared against this probe's threshold pair, and the
        NO-reuse completeness check compares threshold *pairs* through
        :func:`~repro.geometry.predicates.compare_distance` rather than
        rounded squared floats, so cross-query reuse cannot flip an
        exactly-tied comparison.
        """
        self._ensure_fresh()
        key = self.probe_key(oid, category, signature)
        entry = self._witness.get(key)
        exact = threshold_ref is not None
        if entry is not None and entry.center == center:
            # YES reuse: enough already-known witnesses below the
            # threshold settle the (capped) count without a search.
            # Witness entries only survive within one tick (the version
            # guard clears on any grid mutation), so positions looked up
            # for the exact comparison are the ones the probe saw.
            count = 0
            if exact:
                positions = self.grid._positions
                for wid in entry.known:
                    if predicates.closer_than(center, positions[wid], threshold_ref):
                        count += 1
                        if count >= k:
                            self._account("witness", hit=True)
                            return k
            else:
                for d2 in entry.known.values():
                    if d2 < threshold_sq:
                        count += 1
                        if count >= k:
                            self._account("witness", hit=True)
                            return k
            # NO reuse: a previous probe exhausted a threshold at least
            # as large, so ``known`` holds every witness below ours.
            if exact and entry.complete_ref is not None:
                if (
                    predicates.compare_distance(
                        center, threshold_ref, entry.complete_ref
                    )
                    <= 0
                ):
                    self._account("witness", hit=True)
                    return count
            elif not exact and threshold_sq <= entry.complete_t2:
                self._account("witness", hit=True)
                return count
        if entry is None or entry.center != center:
            entry = _WitnessEntry(center)
            self._witness[key] = entry
        self._account("witness", hit=False)
        rows: List[Tuple[ObjectId, float]] = []
        count = search.count_closer_than(
            center,
            threshold_sq,
            exclude=signature,
            category=category,
            stop_at=k,
            threshold_point=threshold_ref,
            witnesses=rows,
        )
        for wid, d2 in rows:
            entry.known[wid] = d2
        if count < k and threshold_sq > entry.complete_t2:
            # The probe ran dry before its cutoff: it enumerated every
            # witness below the threshold, so ``known`` is now complete
            # up to it.
            entry.complete_t2 = threshold_sq
            entry.complete_ref = threshold_ref
        return count

    def witness_certificate(
        self,
        oid: ObjectId,
        center: Point,
        signature: FrozenSet[ObjectId],
        category: Optional[Category],
        k: int,
        threshold_ref: Point,
    ) -> Optional[Tuple[ObjectId, ...]]:
        """The ``k`` witnesses behind a :meth:`witness_count` that just
        returned ``k`` for this probe: the first ``k`` ids its memo entry
        banked that are strictly closer to ``center`` than
        ``threshold_ref`` (the exact predicate — banked entries may stem
        from a co-evaluated probe with a larger threshold).  ``None``
        when the entry holds fewer, which a count of ``k`` on the same
        key rules out.
        """
        self._ensure_fresh()
        entry = self._witness.get(self.probe_key(oid, category, signature))
        if entry is None or entry.center != center:
            return None
        positions = self.grid._positions
        out: List[ObjectId] = []
        for wid in entry.known:
            if predicates.closer_than(center, positions[wid], threshold_ref):
                out.append(wid)
                if len(out) == k:
                    return tuple(out)
        return None

    # ------------------------------------------------------------------
    # Nearest probes (bichromatic absorption)
    # ------------------------------------------------------------------

    def nearest_excluding(
        self,
        search,
        oid: ObjectId,
        center: Point,
        signature: FrozenSet[ObjectId],
        category: Optional[Category],
    ) -> Optional[Tuple[ObjectId, float]]:
        """The object of ``category`` nearest to ``center`` ignoring the
        signature ids — memoized exactly (nearest search on a fixed grid
        is deterministic, so the first query's result *is* every later
        query's result)."""
        self._ensure_fresh()
        key = self.probe_key(oid, category, signature)
        if key in self._nearest:
            cached_center, result = self._nearest[key]
            if cached_center == center:
                self._account("nearest", hit=True)
                return result
        self._account("nearest", hit=False)
        result = search.nearest(center, exclude=signature, category=category)
        self._nearest[key] = (center, result)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters_snapshot(self) -> Dict[str, int]:
        out: Dict[str, int] = {"hits": self.hits, "misses": self.misses}
        for kind in KINDS:
            out[f"hits_{kind}"] = self.hits_by_kind[kind]
            out[f"misses_{kind}"] = self.misses_by_kind[kind]
        return out


__all__: List[str] = ["SharedTickContext", "KINDS"]
