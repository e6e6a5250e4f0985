"""One tick's worth of grid changes, summarized for the scheduler.

:meth:`repro.grid.index.GridIndex.apply_updates` applies a whole tick of
movement/churn in one pass and returns a :class:`TickDelta` recording
which objects changed and which cells they touched.  The engine's
:class:`repro.engine.scheduler.TickScheduler` intersects this record with
each continuous query's relevance footprint to decide which queries can
legally be skipped this tick.

``touched_cells`` holds every cell that saw any change: the cells of
inserts and removes, and the old and new cell of every object whose
position changed — including an object that moved *within* one cell,
since within-cell movement can flip a verification outcome even though
no cell membership changed.  A query whose footprint is disjoint from it
saw no movement anywhere in its monitored area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Set, Tuple

CellKey = Tuple[int, int]
ObjectId = Hashable


@dataclass
class TickDelta:
    """Everything that changed in the grid during one batched tick."""

    #: Ids whose stored position actually changed (updates that re-stated
    #: an identical position are not movement).
    moved: Set[ObjectId] = field(default_factory=set)
    #: Ids inserted this tick (population churn).
    inserted: Set[ObjectId] = field(default_factory=set)
    #: Ids removed this tick (population churn).
    removed: Set[ObjectId] = field(default_factory=set)
    #: Every cell holding any change, including within-cell movement.
    touched_cells: Set[CellKey] = field(default_factory=set)

    def changed_ids(self) -> Set[ObjectId]:
        """Every object id involved in any change this tick."""
        return self.moved | self.inserted | self.removed
