"""The tick flight recorder: always-on digests, replayable incidents.

A production monitoring loop cannot afford full tracing, but when a tick
suddenly takes 40x the median it is too late to turn tracing on — the
evidence is gone.  The flight recorder keeps just enough, always:

- a bounded ring of per-tick :class:`TickDigest` rows — latency, how many
  queries evaluated vs. skipped, delta sizes, the top-K most expensive
  queries of the tick;
- the replay material for the recent window — a population checkpoint
  (refreshed every ``window`` ticks, so the amortized cost is O(objects /
  window) per tick) plus *references* to each subsequent tick's raw event
  lists.

On an anomaly — tick latency beyond ``latency_factor`` times the rolling
median, an exception out of the tick, or an explicit :meth:`flag` — the
window is frozen into an **incident bundle**: a JSON document in the fuzz
artifact format (``repro.fuzz.corpus``) whose scenario script replays the
checkpoint population through the recorded events, with the simulator's
IGERN queries re-attached.  ``igern fuzz replay incident.json`` then
re-executes the offending tick window under the full differential harness
(scheduler on/off lockstep + brute-force oracle), deterministically.

Per-tick overhead while nothing is wrong: two deque appends, one median
over the (≤ ``window``-entry) latency ring, and the amortized checkpoint
— bounded by ``benchmarks/test_obs_overhead.py`` together with the
ledger's disabled path.
"""

from __future__ import annotations

import json
import logging
import statistics
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

logger = logging.getLogger(__name__)

#: Kept equal to ``repro.fuzz.corpus.ARTIFACT_VERSION`` (asserted by the
#: test suite) without importing the fuzz package — obs stays a leaf.
ARTIFACT_VERSION = 1

#: Motion tag of flight-recorder scenarios.  Scripted scenarios never
#: rebuild their generator, so the tag is label-only — but it must stay
#: out of ``repro.fuzz.scenario.MOTIONS`` to keep sampling untouched.
FLIGHT_MOTION = "flight"


@dataclass
class TickDigest:
    """The always-retained summary of one tick."""

    tick: int
    latency: float
    evaluated: int
    skipped: int
    moves: int
    inserts: int
    removes: int
    #: ``(query, wall_seconds)`` of the tick's most expensive executions.
    top: List[Tuple[str, float]] = field(default_factory=list)
    anomaly: Optional[str] = None

    def to_dict(self) -> dict:
        out = {
            "tick": self.tick,
            "latency": self.latency,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "moves": self.moves,
            "inserts": self.inserts,
            "removes": self.removes,
            "top": [[name, wall] for name, wall in self.top],
        }
        if self.anomaly is not None:
            out["anomaly"] = self.anomaly
        return out


class FlightRecorder:
    """Bounded tick history with anomaly-triggered incident capture.

    Parameters
    ----------
    window:
        Digest/latency ring size, and the checkpoint refresh period.
    latency_factor:
        A tick is anomalous when its latency exceeds ``latency_factor``
        times the rolling median of the retained latencies.
    min_history:
        Ticks observed before latency anomaly detection arms (the first
        ticks of a run are legitimately slow: caches cold, initial
        footprints registering).
    max_incidents:
        Incident bundles retained in memory (oldest dropped first).
    incident_dir:
        When set, every captured bundle is also written there as a JSON
        artifact file (``incident-t<tick>.json``).
    """

    def __init__(
        self,
        window: int = 64,
        latency_factor: float = 8.0,
        min_history: int = 16,
        max_incidents: int = 4,
        incident_dir: Optional[Union[str, Path]] = None,
    ):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if latency_factor <= 1.0:
            raise ValueError(
                f"latency_factor must exceed 1, got {latency_factor}"
            )
        self.window = window
        self.latency_factor = latency_factor
        self.min_history = min_history
        self.max_incidents = max_incidents
        self.incident_dir = Path(incident_dir) if incident_dir else None
        self.digests: Deque[TickDigest] = deque(maxlen=window)
        self._latencies: Deque[float] = deque(maxlen=window)
        #: oid -> (x, y, category) at the last checkpoint boundary.
        self._checkpoint: Optional[Dict] = None
        self._checkpoint_tick: int = 0
        #: Per tick since the checkpoint: (tick, moves, inserts, removes)
        #: — references to the generator's raw event lists, converted to
        #: JSON form only at capture time.
        self._events: List[tuple] = []
        self._pending_flag: Optional[str] = None
        self.incidents: List[dict] = []
        self.incident_paths: List[Path] = []

    # -- per-tick hooks (called by the simulator) -----------------------

    def before_tick(self, tick: int, grid) -> None:
        """Refresh the replay checkpoint when the window rolled over.

        ``tick`` is the tick *about to run*; the checkpoint captures the
        population as of the previous tick boundary, so the recorded
        events replay from exactly this state.
        """
        if self._checkpoint is not None and len(self._events) < self.window:
            return
        self._checkpoint = {
            oid: (x, y, grid.category(oid))
            for oid, (x, y) in grid.positions_snapshot().items()
        }
        self._checkpoint_tick = tick - 1
        self._events = []

    def observe(
        self,
        digest: TickDigest,
        moves=None,
        inserts=None,
        removes=None,
    ) -> Optional[str]:
        """File one tick; returns the anomaly reason when one triggered.

        ``moves``/``inserts``/``removes`` are the tick's raw event lists
        (kept by reference — the bundled generators build fresh lists per
        tick).  ``None`` means the tick carried no replayable delta (the
        scheduler-off path), which disables window replay but keeps the
        digest ring useful.
        """
        anomaly = self._pending_flag
        self._pending_flag = None
        if anomaly is None and len(self._latencies) >= self.min_history:
            median = statistics.median(self._latencies)
            if median > 0.0 and digest.latency > self.latency_factor * median:
                anomaly = (
                    f"latency {digest.latency * 1e3:.2f}ms >"
                    f" {self.latency_factor:g}x rolling median"
                    f" {median * 1e3:.2f}ms"
                )
        digest.anomaly = anomaly
        self.digests.append(digest)
        self._latencies.append(digest.latency)
        if moves is not None and self._checkpoint is not None:
            self._events.append(
                (digest.tick, moves, inserts or [], removes or [])
            )
        return anomaly

    def flag(self, reason: str) -> None:
        """Mark the next observed tick anomalous (external trigger:
        divergence detected by a checker, operator request, ...)."""
        self._pending_flag = reason

    def rolling_median(self) -> float:
        return statistics.median(self._latencies) if self._latencies else 0.0

    # -- incident capture ------------------------------------------------

    def capture(self, sim, reason: str) -> Optional[dict]:
        """Freeze the recorded window into a replayable incident bundle.

        ``sim`` is the owning simulator (duck-typed: ``grid``, ``query``
        / ``query_names``).  Returns the bundle dict — also retained in
        :attr:`incidents` and written to :attr:`incident_dir` when
        configured — or ``None`` when no replayable scenario can be
        built (no recorded events, or no IGERN query registered).
        """
        scenario = self._scenario(sim)
        if scenario is None:
            logger.warning(
                "flight recorder: anomaly (%s) but no replayable window", reason
            )
            return None
        tick = self.digests[-1].tick if self.digests else 0
        bundle = {
            "version": ARTIFACT_VERSION,
            "note": (
                f"flight-recorder incident at tick {tick}: {reason}"
                f" (window start tick {self._checkpoint_tick})"
            ),
            "scenario": scenario,
            "divergences": [],
            "flight": {
                "reason": reason,
                "tick": tick,
                "window_start": self._checkpoint_tick,
                "digests": [d.to_dict() for d in self.digests],
            },
        }
        self.incidents.append(bundle)
        if len(self.incidents) > self.max_incidents:
            del self.incidents[0]
        if self.incident_dir is not None:
            path = self.incident_dir / f"incident-t{tick}.json"
            try:
                self.incident_dir.mkdir(parents=True, exist_ok=True)
                path.write_text(
                    json.dumps(bundle, indent=2, sort_keys=True) + "\n"
                )
                self.incident_paths.append(path)
                logger.warning(
                    "flight recorder: wrote incident bundle %s (%s)",
                    path,
                    reason,
                )
            except OSError as exc:  # pragma: no cover - disk trouble
                logger.error("flight recorder: cannot write %s: %s", path, exc)
        return bundle

    def _scenario(self, sim) -> Optional[dict]:
        """The fuzz-scenario dict replaying the recorded window."""
        if self._checkpoint is None or not self._events:
            return None
        main_name, main = self._pick_main_query(sim)
        if main is None:
            return None
        mode = main.flavor
        script = {
            "initial": [
                [oid, x, y, cat]
                for oid, (x, y, cat) in self._checkpoint.items()
            ],
            "ticks": [
                {
                    # Positions unpack as sequences: generators may hand
                    # the simulator plain (x, y) tuples as well as Points.
                    "moves": [[oid, x, y] for oid, (x, y) in moves],
                    "inserts": [
                        [oid, x, y, cat] for oid, (x, y), cat in inserts
                    ],
                    "removes": list(removes),
                }
                for _tick, moves, inserts, removes in self._events
            ],
        }
        qid = main.position.query_id
        fixed = main.position.fixed_point
        query_point = (fixed.x, fixed.y) if fixed is not None else None
        moving = qid is not None and qid in self._checkpoint
        if moving:
            script["query_id"] = qid
        elif query_point is None:
            # Moving query absent from the checkpoint (inserted mid-window):
            # pin the replay to its current position.
            pos = sim.grid.position(qid) if qid in sim.grid else None
            if pos is None:
                return None
            query_point = (pos.x, pos.y)
        extras = []
        for name in sim.query_names():
            if name == main_name or len(extras) >= 3:
                continue
            query = sim.query(name)
            if getattr(query, "flavor", None) != mode:
                continue
            extra_fixed = query.position.fixed_point
            if extra_fixed is not None:
                extras.append([extra_fixed.x, extra_fixed.y])
        categories = {cat for _x, _y, cat in self._checkpoint.values()}
        if mode == "bi" and not categories <= {"A", "B"}:
            # The differential harness hard-codes the A/B labels; a bi
            # incident over exotic categories cannot replay there.
            return None
        n_a = sum(1 for _x, _y, cat in self._checkpoint.values() if cat == "A")
        extent = sim.grid.extent
        first_tick = self._events[0][0]
        return {
            "seed": 0,
            "index": first_tick,
            "mode": mode,
            "k": main.k,
            "grid_size": sim.grid.size,
            "extent": [extent.xmin, extent.ymin, extent.xmax, extent.ymax],
            "motion": FLIGHT_MOTION,
            "n_objects": len(self._checkpoint),
            "n_ticks": len(self._events),
            "move_fraction": 1.0,
            "a_fraction": (
                n_a / len(self._checkpoint) if self._checkpoint else 0.5
            ),
            "moving_query": moving,
            "query_point": (
                None if moving else [query_point[0], query_point[1]]
            ),
            "baseline": None,
            "script": script,
            "extra_query_points": extras or None,
        }

    def _pick_main_query(self, sim):
        """The most expensive IGERN query of the latest digest (falling
        back to registration order) — the query the incident replays."""
        igern = {
            name: sim.query(name)
            for name in sim.query_names()
            if getattr(sim.query(name), "flavor", None) is not None
        }
        if not igern:
            return None, None
        for digest in reversed(self.digests):
            for name, _wall in digest.top:
                if name in igern:
                    return name, igern[name]
        name = next(iter(igern))
        return name, igern[name]
