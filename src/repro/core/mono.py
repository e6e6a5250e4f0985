"""Monochromatic IGERN (Algorithms 1 and 2 of the paper).

The query and all data objects are of the same type.  An object ``o`` is a
reverse nearest neighbor (RNN) of the query ``q`` iff no other data object
is strictly closer to ``o`` than ``q`` is.  (RkNN extension: iff fewer than
``k`` other objects are strictly closer.)

The algorithm monitors one bounded region — the grid cells not yet killed
by the bisectors between ``q`` and the candidate set ``RNNcand`` — plus the
candidates themselves:

*Initial step* (:meth:`MonoIGERN.initial`)
    Phase I repeatedly finds the object nearest to ``q`` inside the alive
    cells, adds it to ``RNNcand`` and kills every cell entirely on its side
    of the bisector, until the alive region holds no further objects.
    Phase II keeps the candidates that pass the nearest neighbor test.

*Incremental step* (:meth:`MonoIGERN.incremental`)
    Runs every tick.  If ``q`` or any candidate moved, all bisectors are
    redrawn and the alive mask rebuilt.  Any object now inside an alive
    cell triggers the same tightening loop as Phase I.  The candidate set
    is then cleaned of dominated members and the answer re-verified:
    a non-answer candidate whose witness certificate still holds (its
    ``k`` witnesses are still strictly closer than ``q``) is not
    re-probed (``docs/ALGORITHM.md``, "Witness certificates").

The region maintenance is :class:`repro.core.region.RegionCore`, shared
with the bichromatic algorithm; ``RNNcand`` is the state's ``monitored``
dict.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.core.region import RegionCore
from repro.core.state import Certificate, RegionState, StepReport, certificate_holds
from repro.geometry.point import dist_sq
from repro.grid.index import ObjectId
from repro.grid.search import SearchKind
from repro.obs.ledger import phase


class MonoIGERN(RegionCore):
    """Continuous monochromatic R(k)NN monitoring for one query.

    Takes the parameters of :class:`repro.core.region.RegionCore`: the
    grid, the query's own ``query_id`` if it is an indexed object (the
    usual monochromatic setting), ``k`` (an object is reported when
    fewer than ``k`` other objects are strictly closer to it than the
    query), the ``prune`` policy for ``RNNcand``, and the optional shared
    ``search``, ``shared_context`` and Euclidean ``metric``.
    """

    # ------------------------------------------------------------------
    # Step 1: initial answer (Algorithm 1)
    # ------------------------------------------------------------------

    def initial(self, qpos: Iterable[float]) -> "tuple[RegionState, StepReport]":
        """Compute the first answer, monitored region and ``RNNcand``."""
        state = self._new_state(qpos)
        cost = self.cost
        # Phase I: bounded region.
        with phase(cost, "mono.initial.tighten"):
            found = self._tighten(state, kind=SearchKind.CONSTRAINED)
        # Phase II: verification.
        with phase(cost, "mono.initial.verify"):
            answer = self._verify(state)
        state.answer = answer
        return state, self._report(state, answer, is_initial=True, tightened=found)

    # ------------------------------------------------------------------
    # Step 2: incremental maintenance (Algorithm 2)
    # ------------------------------------------------------------------

    def incremental(self, state: RegionState, qpos: Iterable[float]) -> StepReport:
        """Maintain the answer for the current tick, updating ``state``."""
        cost = self.cost
        movement = self._refresh_moved(state, qpos)
        if movement:
            with phase(cost, "mono.incremental.rebuild"):
                self._rebuild_region(state)
        # Scenario 3: objects inside the alive cells — the tightening
        # search doubles as the existence check (its first probe).
        with phase(cost, "mono.incremental.tighten"):
            found = self._tighten(state, kind=SearchKind.BOUNDED)
        pruned = 0
        if found:
            with phase(cost, "mono.incremental.prune"):
                pruned = self._prune(state)
        with phase(cost, "mono.incremental.verify"):
            answer = self._verify(state)
        state.answer = answer
        return self._report(
            state,
            answer,
            is_initial=False,
            movement_rebuild=movement,
            tightened=found,
            pruned=pruned,
        )

    def _verify(self, state: RegionState) -> Set[ObjectId]:
        """Phase II: keep candidates for which q passes the (k-)NN test.

        A candidate the probe disqualifies gets a :class:`Certificate`
        naming the ``k`` witnesses it found.  The next verification keeps
        a candidate out of the answer without a probe while that
        certificate holds; new, moved and answer candidates, and every
        candidate once the query moved, are probed.
        """
        q = state.qpos
        k = self.k
        answer: Set[ObjectId] = set()
        exclude_base = {self.query_id} if self.query_id is not None else set()
        ctx = self.shared_context
        search = self.search
        positions = self.grid._positions
        previous = state.certificates
        certificates = {}
        certified = 0
        for oid, pos in state.monitored.items():
            cert = previous.get(oid)
            if cert is not None and certificate_holds(positions, cert, pos, q):
                certificates[oid] = cert
                certified += 1
                continue
            # Squared-space comparison: an exactly equidistant witness must
            # not disqualify the candidate (the paper's strict inequality).
            dq2 = dist_sq(pos, q)
            if ctx is not None:
                # Tick-shared probe: same min(k, count) semantics as the
                # cold call below, with witnesses banked for other queries
                # verifying the same candidate this tick; the certificate
                # is read back from the memo entry the probe filled.
                signature = frozenset(exclude_base | {oid})
                count = ctx.witness_count(
                    search, oid, pos, dq2, signature, None, k, threshold_ref=q
                )
                if count < k:
                    answer.add(oid)
                    continue
                witnesses = ctx.witness_certificate(oid, pos, signature, None, k, q)
            else:
                # stop_at keeps the probe in the columnar kernel's
                # row-by-row early-exit regime (most verifications settle
                # within a few rows); without it the kernel would scan
                # whole cell slices.
                rows = []
                count = search.count_closer_than(
                    pos,
                    dq2,
                    exclude=exclude_base | {oid},
                    stop_at=k,
                    kind=SearchKind.UNCONSTRAINED,
                    threshold_point=q,
                    witnesses=rows,
                )
                if count < k:
                    answer.add(oid)
                    continue
                witnesses = tuple(wid for wid, _ in rows)
            if witnesses is not None:
                certificates[oid] = Certificate(pos, q, witnesses)
        state.certificates = certificates
        search.stats.certified += certified
        return answer
