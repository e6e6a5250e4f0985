"""Event-driven query scheduling over batched grid deltas.

The simulator applies a whole tick of movement through
:meth:`repro.grid.index.GridIndex.apply_updates` and hands the resulting
:class:`~repro.grid.delta.TickDelta` to a :class:`TickScheduler`, which
answers one question: *which queries could this tick's changes possibly
affect?*  Everything else carries its previous answer forward untouched.

The decision is conservative by construction (see ``docs/PERFORMANCE.md``
for the correctness argument): a query is skipped only when

- its query object and every monitored object were stationary (none of
  its footprint ``objects`` appears among the tick's moved / inserted /
  removed ids), and
- no object moved within, entered, or left any of its footprint
  ``cells`` (its cells are disjoint from the delta's ``touched_cells``,
  which include the cells of *within-cell* movers).

Queries without a footprint (snapshot baselines, or stateful monitors
whose region momentarily has no bounded cover) are evaluated every tick.

Two reverse indices — cell → interested queries and object id →
interested queries — are maintained incrementally as footprints change,
so per-tick matching costs are proportional to the change volume (or to
the footprint sizes, whichever side is smaller), never to the number of
registered queries times the grid size.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.grid.delta import CellKey, TickDelta
from repro.leases import Lease, LeaseState
from repro.obs.ledger import REASON_FOOTPRINT_ENTER, REASON_OBJECT_MOVED
from repro.queries.base import QueryFootprint

ObjectId = Hashable


class TickScheduler:
    """Maps one tick's grid delta to the set of affected queries."""

    def __init__(self):
        self._footprints: Dict[str, QueryFootprint] = {}
        #: Queries with no bounded footprint: always evaluated.
        self._always: Set[str] = set()
        self._cell_index: Dict[CellKey, Set[str]] = {}
        self._obj_index: Dict[ObjectId, Set[str]] = {}
        #: Active safe-region leases by query name (lease mode only).
        self._leases: Dict[str, LeaseState] = {}

    # ------------------------------------------------------------------
    # Footprint maintenance
    # ------------------------------------------------------------------

    def update_footprint(
        self, name: str, footprint: Optional[QueryFootprint]
    ) -> None:
        """(Re)register a query's footprint after it was evaluated.

        The reverse indices are updated by diff: only the cells/objects
        entering or leaving the footprint are touched, so a stable
        footprint costs two set comparisons.
        """
        previous = self._footprints.get(name)
        if footprint is None:
            if previous is not None:
                self._unindex(name, previous)
                del self._footprints[name]
            self._always.add(name)
            return
        self._always.discard(name)
        if previous is not None:
            if (
                previous.cells == footprint.cells
                and previous.objects == footprint.objects
            ):
                self._footprints[name] = footprint
                return
            self._diff_index(name, previous, footprint)
        else:
            for key in footprint.cells:
                self._cell_index.setdefault(key, set()).add(name)
            for oid in footprint.objects:
                self._obj_index.setdefault(oid, set()).add(name)
        self._footprints[name] = footprint

    def remove_query(self, name: str) -> None:
        """Forget a deregistered query entirely."""
        self._always.discard(name)
        self._leases.pop(name, None)
        previous = self._footprints.pop(name, None)
        if previous is not None:
            self._unindex(name, previous)

    # ------------------------------------------------------------------
    # Lease bookkeeping (safe-region answer leases, repro.leases)
    # ------------------------------------------------------------------

    def update_lease(self, name: str, lease: "Lease | None") -> None:
        """(Re)register a query's lease after it was evaluated.

        A fresh evaluation replaces the active lease wholesale (budget
        spend and footprint taint restart at zero); ``None`` drops it.
        """
        if lease is None:
            self._leases.pop(name, None)
        else:
            self._leases[name] = LeaseState(lease)

    def drop_lease(self, name: str) -> bool:
        """Invalidate a query's lease; returns whether one existed."""
        return self._leases.pop(name, None) is not None

    def lease_state(self, name: str) -> Optional[LeaseState]:
        """The active lease bookkeeping of a query, if any."""
        return self._leases.get(name)

    def lease_states(self) -> Dict[str, LeaseState]:
        """All active leases by query name (live mapping, not a copy)."""
        return self._leases

    def absorb_displacements(
        self, displacements: Dict[ObjectId, float], churn: bool
    ) -> None:
        """Charge one tick's motion and churn to every active lease.

        ``displacements`` maps each of this tick's movers to its
        Euclidean displacement; ``churn`` says whether anything was
        inserted or removed.  Each lease absorbs the tick's maximum
        displacement, excluding its own query object — the query's
        motion is governed by the safe region, not the object budget.
        Any insert or remove breaks every lease (the slack minimum
        quantifies only over the issue-time population).
        """
        if not self._leases:
            return
        # Top two displacement magnitudes, so excluding one query object
        # is O(1) per lease instead of a rescan.
        top_oid = None
        top = 0.0
        second = 0.0
        if not churn:
            for oid, d in displacements.items():
                if d > top:
                    second = top
                    top = d
                    top_oid = oid
                elif d > second:
                    second = d
        for state in self._leases.values():
            if churn:
                state.absorb(0.0, True)
            elif state.lease.query_oid is not None and state.lease.query_oid == top_oid:
                state.absorb(second, False)
            else:
                state.absorb(top, False)

    def footprint(self, name: str) -> Optional[QueryFootprint]:
        """The currently registered footprint of a query (``None`` if
        the query is in always-evaluate mode)."""
        return self._footprints.get(name)

    def _unindex(self, name: str, footprint: QueryFootprint) -> None:
        for key in footprint.cells:
            owners = self._cell_index.get(key)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._cell_index[key]
        for oid in footprint.objects:
            owners = self._obj_index.get(oid)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._obj_index[oid]

    def _diff_index(
        self, name: str, old: QueryFootprint, new: QueryFootprint
    ) -> None:
        for key in old.cells - new.cells:
            owners = self._cell_index.get(key)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._cell_index[key]
        for key in new.cells - old.cells:
            self._cell_index.setdefault(key, set()).add(name)
        for oid in old.objects - new.objects:
            owners = self._obj_index.get(oid)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._obj_index[oid]
        for oid in new.objects - old.objects:
            self._obj_index.setdefault(oid, set()).add(name)

    # ------------------------------------------------------------------
    # Per-tick matching
    # ------------------------------------------------------------------

    def affected(self, delta: TickDelta) -> Set[str]:
        """Names of footprinted queries this delta could affect: the key
        set of :meth:`affected_reasons`."""
        return set(self.affected_reasons(delta))

    def affected_reasons(self, delta: TickDelta) -> Dict[str, str]:
        """Footprinted queries this delta could affect, each with *why*
        it matched.

        Queries in always-evaluate mode are *not* included — the engine
        evaluates them unconditionally; this returns only the footprint
        hits.  Reasons are the machine-readable codes of
        :mod:`repro.obs.ledger`:

        - ``footprint-enter`` — an object moved within / entered / left
          one of the query's footprint cells;
        - ``object-moved`` — a monitored object (or the query object
          itself) moved, was inserted, or was removed, without touching
          a footprint cell.

        When both apply, the cell reason wins — deterministically, so
        ledger records are stable across runs.  Matching iterates the
        cheaper side: the delta's touched cells against the cell index
        when the tick is quiet, or each footprint against the delta when
        the tick is busy.
        """
        out: Dict[str, str] = {}
        touched = delta.touched_cells
        cell_index = self._cell_index
        # Total indexed footprint size, to pick the iteration side.
        index_size = len(cell_index)
        if len(touched) <= index_size or not self._footprints:
            for key in touched:
                owners = cell_index.get(key)
                if owners is not None:
                    for name in owners:
                        out[name] = REASON_FOOTPRINT_ENTER
            obj_index = self._obj_index
            for ids in (delta.moved, delta.inserted, delta.removed):
                if len(ids) <= len(obj_index):
                    for oid in ids:
                        owners = obj_index.get(oid)
                        if owners is not None:
                            for name in owners:
                                out.setdefault(name, REASON_OBJECT_MOVED)
                else:
                    for oid, owners in obj_index.items():
                        if oid in ids:
                            for name in owners:
                                out.setdefault(name, REASON_OBJECT_MOVED)
        else:
            changed = delta.changed_ids()
            for name, fp in self._footprints.items():
                if not fp.cells.isdisjoint(touched):
                    out[name] = REASON_FOOTPRINT_ENTER
                elif not fp.objects.isdisjoint(changed):
                    out[name] = REASON_OBJECT_MOVED
        return out
