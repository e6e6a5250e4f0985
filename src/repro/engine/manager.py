"""Runtime management of many continuous queries with change delivery.

The paper positions continuous RNN monitoring inside location-based query
processors (PLACE, SINA, SECONDO); in such a system, queries come and go
at runtime and downstream consumers want to hear *when an answer changes*,
not a full answer dump every tick.  :class:`ContinuousQueryManager` adds
that layer on top of the :class:`~repro.engine.simulation.Simulator`:

- register / unregister queries between ticks;
- pause / resume (resuming continues incrementally — the incremental step
  is correct from arbitrarily stale state, see
  :meth:`repro.engine.simulation.Simulator.pause_query`);
- per-query and global subscriptions receiving
  :class:`AnswerChange` deltas (added / removed members) whenever an
  answer actually changes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional

from repro.engine.simulation import Simulator
from repro.obs.ledger import REASON_LEASE_HELD
from repro.obs.metrics import active_registry
from repro.queries.base import ContinuousQuery

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AnswerChange:
    """An observed change of one query's answer at one tick."""

    tick: int
    query: str
    added: FrozenSet[Hashable]
    removed: FrozenSet[Hashable]
    answer: FrozenSet[Hashable]


ChangeCallback = Callable[[AnswerChange], None]


class ContinuousQueryManager:
    """Drives a simulator tick by tick and publishes answer changes."""

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self._last_answers: Dict[str, FrozenSet[Hashable]] = {}
        self._announced: set = set()
        self._subscribers: Dict[Optional[str], List[ChangeCallback]] = {}
        self._registry = active_registry()

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        query: ContinuousQuery,
        on_change: Optional[ChangeCallback] = None,
    ) -> ContinuousQuery:
        """Add a query; it executes its initial step at the next tick.

        The very first answer is delivered as a change from the empty set.
        """
        self.simulator.add_query(name, query)
        if on_change is not None:
            self.subscribe(on_change, query=name)
        return query

    def unregister(self, name: str) -> ContinuousQuery:
        """Remove a query and its bookkeeping (subscriptions included)."""
        query = self.simulator.remove_query(name)
        self._last_answers.pop(name, None)
        self._announced.discard(name)
        self._subscribers.pop(name, None)
        return query

    def pause(self, name: str) -> None:
        self.simulator.pause_query(name)

    def resume(self, name: str) -> None:
        self.simulator.resume_query(name)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def subscribe(
        self, callback: ChangeCallback, query: Optional[str] = None
    ) -> None:
        """Receive :class:`AnswerChange` events.

        ``query=None`` subscribes to every query's changes.
        """
        self._subscribers.setdefault(query, []).append(callback)

    def unsubscribe(
        self, callback: ChangeCallback, query: Optional[str] = None
    ) -> bool:
        """Stop delivering changes to ``callback``.

        The ``(callback, query)`` pair must match how it was subscribed —
        a global subscription (``query=None``) is distinct from any
        per-query one.  A callback subscribed multiple times is removed
        once per call.  Returns whether a subscription was removed.
        """
        callbacks = self._subscribers.get(query)
        if not callbacks or callback not in callbacks:
            return False
        callbacks.remove(callback)
        if not callbacks:
            del self._subscribers[query]
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> List[AnswerChange]:
        """Advance one tick; return (and dispatch) the answer changes.

        For each change, per-query subscribers are called first (in
        subscription order), then global subscribers — so a query-specific
        handler can update state a global audit log then observes.
        """
        outcome = self.simulator.step()
        changes: List[AnswerChange] = []
        registry = self._registry
        announced = self._announced
        # A skipped tick carried the previous answer forward verbatim, so
        # an announced skipped query needs no set comparison and its
        # entry is never built.  Only skipped names not yet announced
        # are read, plus lease-held skips while a registry counts them.
        pending: List[str] = []
        for name, reason in outcome.skipped.items():
            if name not in announced:
                pending.append(name)
            elif reason == REASON_LEASE_HELD and registry is not None:
                # A held lease suppressed the whole subscriber
                # publication, not just the evaluation — the metric
                # the lease_hold benchmark bands on.
                registry.counter(
                    "lease_publications_skipped_total", query=name
                ).inc()
        for name in chain(pending, outcome.evaluated):
            m = outcome[name]
            previous = self._last_answers.get(name, frozenset())
            # A query's very first result is always announced (even when
            # empty), so subscribers learn it is live; afterwards only
            # actual changes are delivered.
            if m.answer == previous and name in self._announced:
                continue
            self._announced.add(name)
            change = AnswerChange(
                tick=m.tick,
                query=name,
                added=frozenset(m.answer - previous),
                removed=frozenset(previous - m.answer),
                answer=m.answer,
            )
            self._last_answers[name] = m.answer
            changes.append(change)
            logger.debug(
                "answer change for %r at tick %d: +%d -%d (size %d)",
                name,
                change.tick,
                len(change.added),
                len(change.removed),
                len(change.answer),
            )
            if registry is not None:
                registry.counter("answer_changes_total", query=name).inc()
            for callback in self._subscribers.get(name, ()):  # per-query
                callback(change)
            for callback in self._subscribers.get(None, ()):  # global
                callback(change)
        return changes

    def run(self, n_ticks: int) -> List[AnswerChange]:
        """Advance ``n_ticks``; return every change in order."""
        if n_ticks < 0:
            raise ValueError(f"n_ticks must be non-negative, got {n_ticks}")
        changes: List[AnswerChange] = []
        for _ in range(n_ticks):
            changes.extend(self.step())
        return changes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current_answer(self, name: str) -> FrozenSet[Hashable]:
        """The last delivered answer of a query (empty before its first)."""
        return self._last_answers.get(name, frozenset())
