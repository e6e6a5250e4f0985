"""Shared-execution batching of co-evaluated continuous queries.

The tick scheduler (PR 2) decides *which* queries a tick's movement
affects; this module makes the affected set cheap to evaluate *together*.
A :class:`BatchExecutor` owns one per-tick
:class:`~repro.grid.context.SharedTickContext` and two decisions:

- **Grouping/ordering**: the affected queries are grouped by footprint
  overlap (union-find over shared cells and shared monitored objects) and
  evaluated group by group, so queries probing the same neighborhoods run
  back to back while the relevant memo entries are hot.  Ordering is safe
  because query evaluation never mutates the grid — every evaluation
  order produces the same answers (the fuzz lockstep's ``batch`` row holds
  the batched path to the unbatched one bit for bit).
- **Context lifecycle**: the context is reset before each tick's
  evaluations and its hit/miss deltas are drained afterwards, feeding the
  ``batch_probe_hits_total`` / ``batch_probe_misses_total`` counters and
  the per-tick sharing-ratio gauge.

The executor is deliberately engine-internal: algorithms only ever see
the :class:`SharedTickContext` bound through
``ContinuousQuery.bind_shared_context``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.grid.context import SharedTickContext
from repro.grid.index import GridIndex
from repro.queries.base import QueryFootprint


class BatchExecutor:
    """Groups affected queries by footprint overlap and shares their work.

    One instance lives per :class:`~repro.engine.simulation.Simulator`;
    its :attr:`context` is rebuilt (never reused) across ticks.
    """

    def __init__(self, grid: GridIndex):
        self.context = SharedTickContext(grid)
        #: Footprint-overlap groups formed by the most recent :meth:`order`.
        self.groups = 0
        #: Hit/miss deltas of the most recent tick (set by :meth:`finish_tick`).
        self.last_hits = 0
        self.last_misses = 0
        self._hits0 = 0
        self._misses0 = 0

    # ------------------------------------------------------------------
    # Tick lifecycle
    # ------------------------------------------------------------------

    def begin_tick(self) -> None:
        """Reset the shared context for a fresh batch of evaluations."""
        self.context.begin_tick()
        self._hits0 = self.context.hits
        self._misses0 = self.context.misses

    def finish_tick(self) -> "tuple[int, int]":
        """Drain this tick's probe accounting; returns ``(hits, misses)``."""
        self.last_hits = self.context.hits - self._hits0
        self.last_misses = self.context.misses - self._misses0
        return self.last_hits, self.last_misses

    @property
    def sharing_ratio(self) -> float:
        """Fraction of this tick's probes served from the shared memos."""
        total = self.last_hits + self.last_misses
        return self.last_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Footprint-overlap grouping
    # ------------------------------------------------------------------

    def order(
        self,
        names: Iterable[str],
        footprints: Dict[str, Optional[QueryFootprint]],
    ) -> List[str]:
        """Evaluation order for this tick's affected queries.

        Union-find over footprint tokens: two queries land in the same
        group when their footprints share a cell or a monitored object.
        Queries without a registered footprint (not yet started, or
        momentarily unbounded) stay singleton groups.  The returned order
        lists each group contiguously, groups and members both in
        first-seen input order, so the schedule is deterministic and a
        group's shared memo entries are touched back to back.
        """
        names = list(names)
        parent: Dict[str, str] = {name: name for name in names}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:
                parent[name], name = root, parent[name]
            return root

        def union(a: str, b: str) -> bool:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
                return True
            return False

        with_fp = [name for name in names if footprints.get(name) is not None]
        # Groups still unmerged among the footprinted queries.  Once this
        # hits 1 no further union can change membership, so the remaining
        # token scans are skipped — on heavily overlapping workloads most
        # queries coalesce on their first shared cell.
        fp_groups = len(with_fp)
        cell_owner: Dict[object, str] = {}
        obj_owner: Dict[object, str] = {}
        for name in with_fp:
            if fp_groups == 1:
                break
            fp = footprints[name]
            for owner_map, tokens in (
                (cell_owner, fp.cells),
                (obj_owner, fp.objects),
            ):
                for token in tokens:
                    owner = owner_map.setdefault(token, name)
                    if owner != name and union(owner, name):
                        fp_groups -= 1
                        if fp_groups == 1:
                            break
                if fp_groups == 1:
                    break

        grouped: Dict[str, List[str]] = {}
        for name in names:
            grouped.setdefault(find(name), []).append(name)
        self.groups = len(grouped)
        out: List[str] = []
        for members in grouped.values():
            out.extend(members)
        return out
