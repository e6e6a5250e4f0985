"""Lockstep differential execution of one scenario, and the fuzz loop.

For every scenario the runner builds one simulator per row of
:data:`PARTICIPANTS` over the identical frozen event script, registers
the same executors in all of them (IGERN plus, per scenario, one
baseline and up to three extra fixed IGERN queries clustered near the
main one so the batch layer actually shares), and advances them tick by
tick in lockstep.  The IGERN queries of every simulator, and of the
optional serving cluster, are built from the same
:class:`~repro.serving.QuerySpec` list by
:func:`~repro.serving.build_query`.

Each row gives the side's name, the divergence kind of its answer
check, its :class:`~repro.engine.simulation.Simulator` options, and the
state checks that apply to it:

=====  =========  ==========================================  ==========  ==========
side   kind       options                                     invariants  footprints
=====  =========  ==========================================  ==========  ==========
off    oracle     scheduler off: evaluate everything          yes         no
on     scheduler  scheduler on, batching off                  yes         yes
batch  batch      scheduler and batching on                   yes         yes
store  store      as ``batch``, over ``store="mapping"``      yes         yes
lease  lease      as ``batch``, with ``lease=True``           no          no
=====  =========  ==========================================  ==========  ==========

After every tick it checks, one loop over the table per check:

1. **grid-sync** — every side's grid holds the oracle side's positions;
2. **answers** — each executor's answer on the oracle side must equal
   the quadratic brute-force answer recomputed from the raw positions
   (Theorems 1-4, operationally; kind ``oracle``), and on every other
   side it must be bit-identical to the oracle side's (the row's kind):
   the skip decision is conservative, batching only reuses provably
   redundant work, the mapping layout is the columnar kernels'
   differential twin, and a held lease carries the certified answer
   forward;
3. **monitored** — the batch row's IGERN monitored sets (mono
   candidates, bi ``NN_A``) must be bit-identical to the ``on`` side's:
   same scheduling decisions, so memoization is the only variable, and
   a probe served from a corrupt memo shows up in the monitored state
   even when the answer survives.  Monitored sets are not compared
   across store layouts: ties in candidate selection are broken by cell
   enumeration order, which legitimately differs between layouts while
   both remain valid supersets;
4. **lease contracts** — every lease the lease row issues is re-derived
   from raw positions each tick: while the population is unchanged,
   every object sits within the lease's object budget of its issue-time
   position, and the query point lies inside the safe region, the
   issue-time answer must equal the brute oracle's;
5. **invariants** — on the rows that ask for them, every IGERN
   monitored state passes its own ``check_invariants``
   (:meth:`~repro.core.state.RegionState.check_invariants`, or
   :meth:`~repro.core.network.NetworkState.check_invariants` under a
   network metric; in particular after skipped ticks), and the
   registered footprints cover the alive region, the monitored objects
   and certificate witnesses, and the witness ball of every
   monochromatic answer and of every point-alive B object.  The
   oracle side registers no footprints; the lease
   side skips footprint-touching ticks while a lease holds, so its
   state and footprints may lag by design and only its answers are
   held to the oracle.

Any violation becomes a :class:`Divergence`; the scenario (already in
scripted form) plus its divergences is the replayable failure artifact.
Adding or removing a participant is a one-row edit of the table.

:func:`run_fuzz` drives the seeded scenario stream under a time budget
or a scenario count, publishing ``fuzz_scenarios_total`` and
``fuzz_divergences_total`` into the active metrics registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.simulation import Simulator
from repro.fuzz.scenario import (
    Scenario,
    ScriptedWorkload,
    generate_scenarios,
    query_id_of,
    scenario_network,
    scripted,
)
from repro.geometry.point import dist
from repro.geometry.rectangle import Rect
from repro.obs.metrics import active_registry
from repro.queries import (
    CRNNQuery,
    QueryPosition,
    SixPieSnapshotQuery,
    TPLQuery,
    VoronoiRepeatQuery,
    brute_bi_rnn,
    brute_mono_rnn,
    network_brute_bi_rnn,
    network_brute_mono_rnn,
)
from repro.serving import QuerySpec, ShardCluster, build_query

CAT_A, CAT_B = "A", "B"


@dataclass(frozen=True)
class Participant:
    """One lockstep configuration: a simulator and the checks it faces."""

    #: Names the side in divergences: ``grid[on]``, ``igern[on]``.
    side: str
    #: Divergence kind of an answer mismatch on this side.
    kind: str
    #: :class:`Simulator` keyword options.
    options: Dict[str, object]
    #: Detail string of an answer mismatch.
    detail: str = ""
    #: Check the IGERN monitored states' invariants on this side.
    invariants: bool = True
    #: Check that this side's registered footprints cover them.
    footprints: bool = True
    #: Side whose IGERN monitored sets this side's must equal, and the
    #: detail string of a mismatch.
    monitored_as: Optional[str] = None
    monitored_detail: str = ""

    def simulator(self, generator, **kwargs) -> Simulator:
        return Simulator(generator, **kwargs, **self.options)


#: The lockstep table.  The first row is the oracle side, held to the
#: brute force; every other side is held to it.
PARTICIPANTS: Tuple[Participant, ...] = (
    Participant("off", "oracle", {"scheduler": False}, footprints=False),
    Participant(
        "on",
        "scheduler",
        {"scheduler": True, "batch": False},
        "scheduler=True answer differs from scheduler=False",
    ),
    Participant(
        "batch",
        "batch",
        {"scheduler": True, "batch": True},
        "batch=True answer differs from the cold path",
        monitored_as="on",
        monitored_detail="batched monitored set differs from unbatched",
    ),
    Participant(
        "store",
        "store",
        {"scheduler": True, "batch": True, "store": "mapping"},
        "mapping-store answer differs from the columnar path",
    ),
    Participant(
        "lease",
        "lease",
        {"scheduler": True, "batch": True, "lease": True},
        "lease-mode answer differs from the evaluate-everything path",
        invariants=False,
        footprints=False,
    ),
)
ORACLE = PARTICIPANTS[0]
#: The side whose leases the contract tracker audits and the serving
#: cluster's lease decisions are compared with.
LEASE = next(row for row in PARTICIPANTS if row.options.get("lease"))
#: The side whose shared-context probe hits feed the ``sharing``
#: coverage dimension.
BATCH = next(row for row in PARTICIPANTS if row.kind == "batch")

#: Baseline executors per (mode, scenario baseline name).
_BASELINES = {
    ("mono", "crnn"): lambda grid, position, k: CRNNQuery(grid, position),
    ("mono", "tpl"): lambda grid, position, k: TPLQuery(grid, position, k=k),
    ("mono", "sixpie"): lambda grid, position, k: SixPieSnapshotQuery(grid, position),
    ("bi", "voronoi"): lambda grid, position, k: VoronoiRepeatQuery(grid, position),
}


@dataclass
class Divergence:
    """One observed disagreement or invariant violation."""

    kind: str  # a row's kind | "invariant" | "grid-sync" | "serving"
    tick: int
    name: str  # executor name or invariant site
    expected: list
    actual: list
    detail: str = ""

    def describe(self) -> str:
        out = f"[{self.kind}] tick {self.tick} {self.name}"
        if self.detail:
            out += f": {self.detail}"
        if self.expected or self.actual:
            out += f" (expected {self.expected!r}, got {self.actual!r})"
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "tick": self.tick,
            "name": self.name,
            "expected": list(self.expected),
            "actual": list(self.actual),
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: dict) -> "Divergence":
        return Divergence(
            kind=data["kind"],
            tick=data["tick"],
            name=data["name"],
            expected=list(data["expected"]),
            actual=list(data["actual"]),
            detail=data.get("detail", ""),
        )


@dataclass
class ScenarioResult:
    """Outcome of one differential scenario run."""

    scenario: Scenario  # always the scripted form
    ticks: int
    divergences: List[Divergence]
    #: Lease outcome counts of the lease-mode simulator
    #: (``issued`` / ``held`` / ``broken``) — feeds the fuzz report's
    #: ``leases`` coverage dimension.
    lease_stats: Dict[str, int] = field(default_factory=dict)
    #: Verifications settled without a probe (``SearchStats.certified``),
    #: summed over every side's IGERN queries — feeds the fuzz report's
    #: ``certificates`` coverage dimension: ``used`` for a Euclidean
    #: scenario, ``network`` for a network-metric one.
    certified: int = 0
    #: Witness and nearest probes the batch side answered from its shared
    #: tick context (``Simulator.batch_probe_hits``) — feeds the fuzz
    #: report's ``sharing`` coverage dimension.
    probe_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def _igern_specs(scenario: Scenario, qid) -> List[QuerySpec]:
    """The main IGERN query (bound to ``qid`` when the query moves) and
    the extra fixed ones, as wire specs."""
    common = dict(
        mode=scenario.mode,
        k=scenario.k,
        metric="network" if scenario.metric == "network" else "euclidean",
    )
    if qid is not None:
        main = QuerySpec(name="igern", query_id=qid, **common)
    else:
        main = QuerySpec(name="igern", point=tuple(scenario.query_point), **common)
    return [main] + [
        QuerySpec(name=f"extra{i}", point=tuple(point), **common)
        for i, point in enumerate(scenario.extra_query_points or [])
    ]


class _Lockstep:
    """The lockstepped simulators plus per-tick checking for one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        check_invariants: bool = True,
        exact_oracle: bool = False,
        serving: bool = False,
    ):
        self.scenario = scenario
        self.check_invariants = check_invariants
        self.exact_oracle = exact_oracle
        self.qid = query_id_of(scenario)
        self.divergences: List[Divergence] = []
        # One network per scenario, shared by every simulator's metric
        # instances and by the oracle: distance maps are pure functions
        # of the (immutable) network, so sharing is sound and keeps the
        # oracle's networkx Dijkstra runs to one per source node.
        self.network = scenario_network(scenario)
        self._oracle_cache: Dict[int, Dict[int, float]] = {}
        self.specs = _igern_specs(scenario, self.qid)
        self.igern_names = [spec.name for spec in self.specs]
        extent = Rect(*scenario.extent)
        self.sims: Dict[str, Simulator] = {}
        for row in PARTICIPANTS:
            sim = row.simulator(
                ScriptedWorkload(scenario.script),
                grid_size=scenario.grid_size,
                extent=extent,
            )
            self._register(sim)
            self.sims[row.side] = sim
        self.oracle = self.sims[ORACLE.side]
        # Optional extra participant: the sharded serving cluster
        # (inline transport for determinism and coverage, lease mode on,
        # fan-out agreement checking every query on every shard).  Only
        # the IGERN executors ride along — the serving layer does not
        # host baselines.
        self.cluster = None
        self._cluster_feed: Optional[ScriptedWorkload] = None
        if serving:
            self.cluster = ShardCluster(
                3,
                grid_size=scenario.grid_size,
                extent=extent,
                transport="inline",
                lease=True,
                network=self.network,
                fanout_check=True,
            )
            self._cluster_feed = ScriptedWorkload(scenario.script)
            self.cluster.load(
                [
                    (oid, p.x, p.y, cat)
                    for oid, p, cat in self._cluster_feed.initial()
                ]
            )
            for spec in self.specs:
                self.cluster.add_query(spec)
        #: Independent lease-contract tracker: query name -> (lease
        #: object at issue, issue-time position snapshot).  Validated
        #: against the brute oracle every tick the contract holds, with
        #: no reliance on the engine's own budget bookkeeping.
        self._lease_contracts: Dict[str, Tuple[object, dict]] = {}

    def _report(self, kind, tick, name, expected=(), actual=(), detail="") -> None:
        self.divergences.append(
            Divergence(
                kind,
                tick,
                name,
                sorted(expected, key=repr),
                sorted(actual, key=repr),
                detail,
            )
        )

    def _register(self, sim: Simulator) -> None:
        sc = self.scenario
        main, *extras = self.specs
        sim.add_query(main.name, build_query(main, sim, self.network))
        # The Euclidean baselines are not defined under network distance;
        # generated network scenarios carry baseline=None, and handcrafted
        # corpus entries are held to the same rule.
        make = _BASELINES.get((sc.mode, sc.baseline))
        if make is not None and sc.metric != "network":
            if self.qid is not None:
                position = QueryPosition(sim.grid, query_id=self.qid)
            else:
                position = QueryPosition(sim.grid, fixed=sc.query_point)
            sim.add_query(sc.baseline, make(sim.grid, position, sc.k))
        # Extra fixed IGERN queries with overlapping footprints: the
        # workload where the shared tick context memoizes across queries.
        for spec in extras:
            sim.add_query(spec.name, build_query(spec, sim, self.network))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> ScenarioResult:
        metrics = {side: sim.execute_queries() for side, sim in self.sims.items()}
        self._check_tick(0, metrics)
        self._check_serving(0, metrics[ORACLE.side], initial=True)
        for t in range(1, self.scenario.n_ticks + 1):
            metrics = {side: sim.step() for side, sim in self.sims.items()}
            self._check_tick(t, metrics)
            self._check_serving(t, metrics[ORACLE.side])
        if self.cluster is not None:
            self.cluster.close()
        leased = self.sims[LEASE.side]
        return ScenarioResult(
            scenario=self.scenario,
            ticks=self.scenario.n_ticks,
            divergences=self.divergences,
            lease_stats={
                "issued": leased.leases_issued,
                "held": leased.leases_held,
                "broken": leased.leases_broken,
            },
            certified=sum(
                sim.query(name).search.stats.certified
                for sim in self.sims.values()
                for name in self.igern_names
            ),
            probe_hits=self.sims[BATCH.side].batch_probe_hits,
        )

    def _oracle(self, qpos, query_id) -> set:
        sc = self.scenario
        grid = self.oracle.grid
        exact = self.exact_oracle
        if sc.metric == "network":
            if sc.mode == "mono":
                return network_brute_mono_rnn(
                    self.network,
                    grid.positions_snapshot(),
                    qpos,
                    query_id=query_id,
                    k=sc.k,
                    node_cache=self._oracle_cache,
                )
            return network_brute_bi_rnn(
                self.network,
                grid.positions_snapshot(CAT_A),
                grid.positions_snapshot(CAT_B),
                qpos,
                query_id=query_id,
                k=sc.k,
                node_cache=self._oracle_cache,
            )
        if sc.mode == "mono":
            return brute_mono_rnn(
                grid.positions_snapshot(), qpos, query_id=query_id, k=sc.k,
                exact=exact,
            )
        return brute_bi_rnn(
            grid.positions_snapshot(CAT_A),
            grid.positions_snapshot(CAT_B),
            qpos,
            query_id=query_id,
            k=sc.k,
            exact=exact,
        )

    def _expectations(self) -> Dict[str, set]:
        """Per-executor brute-force expected answers (the extra fixed
        queries sit at different points than the main query, so each gets
        its own oracle; baselines share the main query's)."""
        if self.qid is not None:
            qpos = self.oracle.grid.position(self.qid)
        else:
            qpos = self.scenario.query_point
        main = self._oracle(qpos, self.qid)
        expected = {name: main for name in self.oracle.query_names()}
        for spec in self.specs[1:]:
            expected[spec.name] = self._oracle(spec.point, None)
        return expected

    def _check_tick(self, tick: int, metrics: Dict[str, Dict]) -> None:
        report = self._report
        sims = self.sims
        oracle_positions = self.oracle.grid.positions_snapshot()
        for row in PARTICIPANTS[1:]:
            if sims[row.side].grid.positions_snapshot() != oracle_positions:
                report(
                    "grid-sync",
                    tick,
                    f"grid[{row.side}]",
                    detail="paired grids hold different positions",
                )
        expectations = self._expectations()
        for name in self.oracle.query_names():
            oracle_answer = set(metrics[ORACLE.side][name].answer)
            for row in PARTICIPANTS:
                if row is ORACLE:
                    expected, answer = expectations[name], oracle_answer
                else:
                    expected = oracle_answer
                    answer = set(metrics[row.side][name].answer)
                if answer != expected:
                    report(row.kind, tick, name, expected, answer, row.detail)
        self._check_lease_contracts(tick, expectations)
        # Memoization soundness, one level below answers, against a side
        # making identical scheduling decisions.  (The oracle side is not
        # comparable here — a skipped tick may legitimately leave
        # monitored state behind the evaluate-everything configuration.)
        for row in PARTICIPANTS:
            if row.monitored_as is None:
                continue
            for name in self.igern_names:
                mine = self._monitored(sims[row.side], name)
                theirs = self._monitored(sims[row.monitored_as], name)
                if mine != theirs:
                    report(row.kind, tick, name, theirs, mine, row.monitored_detail)
        if not self.check_invariants:
            return
        for row in PARTICIPANTS:
            if not row.invariants:
                continue
            for name in self.igern_names:
                for violation in self._state_violations(sims[row.side], name):
                    report("invariant", tick, f"{name}[{row.side}]", detail=violation)
        for row in PARTICIPANTS:
            if not row.footprints:
                continue
            for name in self.igern_names:
                for violation in self._footprint_violations(sims[row.side], name):
                    site = f"footprint:{name}[{row.side}]"
                    report("invariant", tick, site, detail=violation)

    def _check_lease_contracts(self, tick: int, expectations: Dict[str, set]) -> None:
        """Validate every issued lease's *stated contract* against the
        brute oracle, independently of the engine's budget bookkeeping.

        A lease promises: while the population is unchanged, every data
        object sits within ``object_budget`` of its issue-time position,
        and the query point lies inside the safe region, the issue-time
        answer is *the* exact answer.  The tracker snapshots positions
        when a new lease appears and re-derives that promise from raw
        positions each subsequent tick — so an unsoundly wide lease is
        caught even on ticks the engine chose to evaluate anyway.
        """
        sim = self.sims[LEASE.side]
        scheduler = sim.scheduler
        if scheduler is None:
            return
        tracked = self._lease_contracts
        positions = None
        for name in sim.query_names():
            state = scheduler.lease_state(name)
            if state is None:
                tracked.pop(name, None)
                continue
            lease = state.lease
            if positions is None:
                positions = sim.grid.positions_snapshot()
            entry = tracked.get(name)
            if entry is None or entry[0] is not lease:
                # Freshly issued this tick: the grid holds exactly the
                # issue-time positions (leases are derived during the
                # tick's evaluation, after movement landed).
                tracked[name] = (lease, dict(positions))
                continue
            issued = entry[1]
            if positions.keys() != issued.keys():
                continue  # churn voids the contract (and breaks the lease)
            budget = lease.object_budget
            if any(
                math.hypot(pos[0] - issued[oid][0], pos[1] - issued[oid][1]) > budget
                for oid, pos in positions.items()
                if oid != lease.query_oid
            ):
                continue
            qpos = sim.query(name).position.current()
            if not lease.contains(qpos):
                continue
            expected = expectations.get(name)
            if expected is not None and set(lease.answer) != expected:
                self._report(
                    "lease",
                    tick,
                    name,
                    expected,
                    lease.answer,
                    "lease contract holds (population unchanged,"
                    " displacements within budget, query inside"
                    " the safe region) but the certified answer"
                    " is not the oracle answer",
                )

    def _check_serving(
        self, tick: int, oracle_metrics: Dict, initial: bool = False
    ) -> None:
        """Advance the serving cluster one tick and hold it to lockstep.

        Two comparisons: merged answers must be bit-identical to the
        oracle side's, and the cluster's lease decisions (spent budget /
        taint / break, per live lease) must be bit-identical to the
        single-process lease side's — the sharded service may not
        certify differently than the engine it wraps.  Fan-out
        disagreements between shard replicas surface as a
        ``RuntimeError`` from the merge and are recorded too.
        """
        if self.cluster is None:
            return
        try:
            if initial:
                result = self.cluster.initial_eval()
            else:
                events = self._cluster_feed.step_events()
                result = self.cluster.tick(
                    [(oid, p.x, p.y) for oid, p in events.moves],
                    [(oid, p.x, p.y, cat) for oid, p, cat in events.inserts],
                    list(events.removes),
                )
        except RuntimeError as exc:
            self._report("serving", tick, "cluster", detail=str(exc))
            return
        for name in self.igern_names:
            entry = result.answers.get(name)
            served = set(entry[0]) if entry is not None else None
            oracle_answer = set(oracle_metrics[name].answer)
            if served != oracle_answer:
                self._report(
                    "serving",
                    tick,
                    name,
                    oracle_answer,
                    served or (),
                    "sharded answer differs from the single-process engine",
                )
        ref_scheduler = self.sims[LEASE.side].scheduler
        if ref_scheduler is not None:
            ref_leases = {
                name: (state.spent, state.tainted, state.broken)
                for name, state in ref_scheduler.lease_states().items()
                if name in self.igern_names
            }
            if result.leases != ref_leases:
                self._report(
                    "serving",
                    tick,
                    "leases",
                    ref_leases.items(),
                    result.leases.items(),
                    "sharded lease decisions differ from the lease-mode engine",
                )

    def _query_id(self, name: str):
        return self.qid if name == "igern" else None

    def _monitored(self, sim: Simulator, name: str) -> set:
        state = sim.query(name)._state
        return set(state.monitored) if state is not None else set()

    def _state_violations(self, sim: Simulator, name: str = "igern") -> List[str]:
        state = sim.query(name)._state
        if state is None:
            return []
        return state.check_invariants(
            sim.grid, k=self.scenario.k, query_id=self._query_id(name)
        )

    def _footprint_violations(self, sim: Simulator, name: str = "igern") -> List[str]:
        """The registered footprint must cover everything the scheduler
        relies on: the alive region (at cell granularity), the monitored
        object set, the query object, every certificate witness, and the
        cells of each witness ball ``B(o, dist(o, q))`` (recomputed here
        from the ball's bounding box) — per answer of a monochromatic
        query, and per B object of a bichromatic one that lies in an
        alive cell and is point-alive in the region, found afresh from
        the grid rather than from the verification's own record."""
        if sim.scheduler is None:
            return []
        fp = sim.scheduler.footprint(name)
        if fp is None:
            return []
        state = sim.query(name)._state
        if state is None:
            return []
        out: List[str] = []
        missing = set(state.alive.alive_cells()) - set(fp.cells)
        if missing:
            out.append(f"footprint misses alive cells {sorted(missing)[:4]}")
        for oid in state.monitored:
            if oid not in fp.objects:
                out.append(f"footprint misses monitored object {oid!r}")
        qid = self._query_id(name)
        if qid is not None and qid not in fp.objects:
            out.append(f"footprint misses query object {qid!r}")
        for wid in sorted(state.certificate_witnesses(), key=repr):
            if wid not in fp.objects:
                out.append(f"footprint misses certificate witness {wid!r}")
        grid = sim.grid
        q = state.qpos
        if state.cat_b is None:
            centers = [oid for oid in state.answer if oid in grid]
        else:
            alive = state.alive
            centers = [
                oid
                for key in alive.alive_cells()
                for oid in grid.objects_in_cell(key, state.cat_b)
                if alive.point_alive(grid.position(oid))
            ]
        for oid in centers:
            pos = grid.position(oid)
            r = dist(pos, q)
            lo = grid.cell_key((pos.x - r, pos.y - r))
            hi = grid.cell_key((pos.x + r, pos.y + r))
            ball = {
                (ix, iy)
                for ix in range(lo[0], hi[0] + 1)
                for iy in range(lo[1], hi[1] + 1)
            }
            missing = ball - fp.cells
            if missing:
                out.append(
                    f"footprint misses {oid!r}'s witness ball cells"
                    f" {sorted(missing)[:4]}"
                )
        return out


def run_scenario(
    scenario: Scenario,
    check_invariants: bool = True,
    exact_oracle: bool = False,
    serving: bool = False,
) -> ScenarioResult:
    """Differentially execute one scenario; returns its scripted result.

    ``exact_oracle`` swaps the brute-force oracle's adaptive comparisons
    for pure :class:`fractions.Fraction` arithmetic, which shares no code
    with the filtered predicates — the gold standard against which the
    whole filtered stack is differentially validated.

    ``serving`` adds the sharded serving cluster as one more lockstep
    participant: merged gateway answers and lease decisions must be
    bit-identical to the single-process engine.
    """
    sc = scripted(scenario)
    result = _Lockstep(
        sc,
        check_invariants=check_invariants,
        exact_oracle=exact_oracle,
        serving=serving,
    ).run()
    registry = active_registry()
    if registry is not None:
        registry.counter("fuzz_scenarios_total").inc()
        if result.divergences:
            registry.counter("fuzz_divergences_total").inc(len(result.divergences))
    return result


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing session."""

    seed: int
    scenarios: int = 0
    ticks: int = 0
    elapsed: float = 0.0
    failures: List[ScenarioResult] = field(default_factory=list)
    coverage: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def divergences(self) -> int:
        return sum(len(r.divergences) for r in self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _cover(self, dimension: str, value) -> None:
        bucket = self.coverage.setdefault(dimension, {})
        key = str(value)
        bucket[key] = bucket.get(key, 0) + 1

    def record(self, result: ScenarioResult) -> None:
        sc = result.scenario
        self.scenarios += 1
        self.ticks += result.ticks
        for dimension, value in (
            ("mode", sc.mode),
            ("motion", sc.motion),
            ("metric", sc.metric),
            ("k", sc.k),
            ("grid_size", sc.grid_size),
            ("extent", sc.extent),
            ("moving_query", sc.moving_query),
            ("baseline", sc.baseline or "none"),
            ("move_fraction", sc.move_fraction),
            ("extra_queries", len(sc.extra_query_points or [])),
        ):
            self._cover(dimension, value)
        stats = result.lease_stats
        if stats.get("held"):
            lease_bucket = "held"
        elif stats.get("issued"):
            lease_bucket = "issued"
        else:
            lease_bucket = "none"
        self._cover("leases", lease_bucket)
        if not result.certified:
            certificate_bucket = "none"
        elif sc.metric == "network":
            certificate_bucket = "network"
        else:
            certificate_bucket = "used"
        self._cover("certificates", certificate_bucket)
        self._cover("sharing", "shared" if result.probe_hits else "none")
        if not result.ok:
            self.failures.append(result)

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.scenarios} scenarios,"
            f" {self.ticks} ticks, {self.divergences} divergences"
            f" in {self.elapsed:.1f}s"
        ]
        for dimension in (
            "mode",
            "motion",
            "metric",
            "k",
            "baseline",
            "extra_queries",
            "leases",
            "certificates",
            "sharing",
        ):
            bucket = self.coverage.get(dimension, {})
            parts = ", ".join(f"{k}={v}" for k, v in sorted(bucket.items()))
            lines.append(f"  {dimension}: {parts}")
        for result in self.failures:
            lines.append(f"  FAIL {result.scenario.label}")
            for div in result.divergences[:5]:
                lines.append(f"    {div.describe()}")
        return "\n".join(lines)


def run_fuzz(
    seed: int,
    budget_seconds: Optional[float] = None,
    max_scenarios: Optional[int] = None,
    start: int = 0,
    check_invariants: bool = True,
    clock: Callable[[], float] = time.perf_counter,
    on_result: Optional[Callable[[ScenarioResult], None]] = None,
    exact_oracle: bool = False,
    serving: bool = False,
) -> FuzzReport:
    """Run the seeded scenario stream until a budget or count is hit.

    At least one of ``budget_seconds`` / ``max_scenarios`` must be given.
    The stream itself is deterministic in ``seed``; a time budget only
    decides *how far* into the stream the session gets, so any failure it
    finds is reproducible from ``(seed, scenario.index)`` alone.
    """
    if budget_seconds is None and max_scenarios is None:
        raise ValueError("provide budget_seconds and/or max_scenarios")
    report = FuzzReport(seed=seed)
    began = clock()
    for scenario in generate_scenarios(seed, start=start):
        if max_scenarios is not None and report.scenarios >= max_scenarios:
            break
        if budget_seconds is not None and clock() - began >= budget_seconds:
            break
        result = run_scenario(
            scenario,
            check_invariants=check_invariants,
            exact_oracle=exact_oracle,
            serving=serving,
        )
        report.record(result)
        if on_result is not None:
            on_result(result)
    report.elapsed = clock() - began
    return report
