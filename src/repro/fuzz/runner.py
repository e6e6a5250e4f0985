"""Lockstep differential execution of one scenario, and the fuzz loop.

For every scenario the runner builds **five simulators over the
identical frozen event script** — scheduler+batch on (the columnar
store default), scheduler on with batching off, scheduler off (the
evaluate-everything oracle configuration), scheduler+batch on over
the dict-backed ``store="mapping"`` grid layout, and scheduler+batch
with safe-region answer leases on (``lease=True``) — registers the same
executors in all of them (IGERN plus, per scenario, one baseline and up
to three extra fixed IGERN queries clustered near the main one so the
batch layer actually shares), and advances them tick by tick in
lockstep.  After every tick it checks six layers:

1. **oracle** — each executor's answer in the scheduler-off simulator
   must equal the quadratic brute-force answer recomputed from the raw
   positions (Theorems 1-4, operationally);
2. **scheduler** — each executor's answer with the scheduler on must be
   bit-identical to its answer with the scheduler off (the skip decision
   is conservative), and the paired grids must hold identical positions;
3. **batch** — each executor's answer with the shared-execution batch
   layer on must be bit-identical to the fully cold scheduler-off
   answer, and each IGERN executor's *monitored set* must be
   bit-identical to the scheduler-on/batch-off simulator's (same
   scheduling decisions, so memoization is the only variable — a probe
   served from a corrupt memo shows up in the monitored state even when
   the answer survives);
4. **store** — each executor's answer over the mapping layout must be
   bit-identical to the scheduler-off answer and its grid must hold
   identical positions — the columnar/mapping differential pair of the
   vectorized kernels.  (Monitored *candidate* sets are not compared
   across layouts: ties in candidate selection are broken by cell
   enumeration order, which legitimately differs between layouts while
   both remain valid supersets — the invariant layer checks each side's
   internal consistency instead.);
5. **lease** — each executor's answer in the lease-mode simulator must
   be bit-identical to the scheduler-off answer (a held lease carries
   the certified answer forward), and every issued lease's *contract*
   is re-derived from raw positions each tick: while the population is
   unchanged, every object sits within the lease's object budget of its
   issue-time position, and the query point lies inside the safe
   region, the issue-time answer must equal the brute oracle's;
6. **invariants** — every IGERN monitored state passes
   :meth:`~repro.core.state.MonoState.check_invariants` /
   :meth:`~repro.core.state.BiState.check_invariants` in *all three*
   simulators (in particular after skipped ticks), and the registered
   footprints cover the alive region and the monitored/answer objects.

Any violation becomes a :class:`Divergence`; the scenario (already in
scripted form) plus its divergences is the replayable failure artifact.

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
from repro.geometry.rectangle import Rect
from repro.metric import NetworkMetric
from repro.obs.metrics import active_registry
from repro.queries import (
    CRNNQuery,
    IGERNBiQuery,
    IGERNMonoQuery,
    QueryPosition,
    SixPieSnapshotQuery,
    TPLQuery,
    VoronoiRepeatQuery,
    brute_bi_rnn,
    brute_mono_rnn,
    network_brute_bi_rnn,
    network_brute_mono_rnn,
)

CAT_A, CAT_B = "A", "B"


@dataclass
class Divergence:
    """One observed disagreement or invariant violation."""

    kind: str  # "oracle" | "scheduler" | "batch" | "store" | "lease" | "invariant" | "grid-sync"
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

    @property
    def ok(self) -> bool:
        return not self.divergences


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
        extras = scenario.extra_query_points or []
        self.extra_names = [f"extra{i}" for i in range(len(extras))]
        extent = Rect(*scenario.extent)
        self.sim_on = Simulator(
            ScriptedWorkload(scenario.script),
            grid_size=scenario.grid_size,
            extent=extent,
            scheduler=True,
            batch=False,
        )
        self.sim_batch = Simulator(
            ScriptedWorkload(scenario.script),
            grid_size=scenario.grid_size,
            extent=extent,
            scheduler=True,
            batch=True,
        )
        self.sim_off = Simulator(
            ScriptedWorkload(scenario.script),
            grid_size=scenario.grid_size,
            extent=extent,
            scheduler=False,
        )
        self.sim_store = Simulator(
            ScriptedWorkload(scenario.script),
            grid_size=scenario.grid_size,
            extent=extent,
            scheduler=True,
            batch=True,
            store="mapping",
        )
        self.sim_lease = Simulator(
            ScriptedWorkload(scenario.script),
            grid_size=scenario.grid_size,
            extent=extent,
            scheduler=True,
            batch=True,
            lease=True,
        )
        self._register(self.sim_on)
        self._register(self.sim_batch)
        self._register(self.sim_off)
        self._register(self.sim_store)
        self._register(self.sim_lease)
        # Optional sixth participant: the sharded serving cluster
        # (inline transport for determinism and coverage, lease mode on,
        # fan-out agreement checking every query on every shard).  Only
        # the IGERN executors ride along — the serving layer does not
        # host baselines.
        self.cluster = None
        self._cluster_feed: Optional[ScriptedWorkload] = None
        if serving:
            from repro.serving import QuerySpec, ShardCluster

            self.cluster = ShardCluster(
                3,
                grid_size=scenario.grid_size,
                extent=extent,
                transport="inline",
                scheduler=True,
                batch=True,
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
            metric_kind = "network" if scenario.metric == "network" else "euclidean"
            if self.qid is not None:
                main = QuerySpec(
                    name="igern",
                    mode=scenario.mode,
                    query_id=self.qid,
                    k=scenario.k,
                    metric=metric_kind,
                )
            else:
                main = QuerySpec(
                    name="igern",
                    mode=scenario.mode,
                    point=tuple(scenario.query_point),
                    k=scenario.k,
                    metric=metric_kind,
                )
            self.cluster.add_query(main)
            for name, point in zip(
                self.extra_names, scenario.extra_query_points or []
            ):
                self.cluster.add_query(
                    QuerySpec(
                        name=name,
                        mode=scenario.mode,
                        point=tuple(point),
                        k=scenario.k,
                        metric=metric_kind,
                    )
                )
        #: Independent lease-contract tracker: query name -> (lease
        #: object at issue, issue-time position snapshot).  Validated
        #: against the brute oracle every tick the contract holds, with
        #: no reliance on the engine's own budget bookkeeping.
        self._lease_contracts: Dict[str, Tuple[object, dict]] = {}

    def _position(self, sim: Simulator) -> QueryPosition:
        if self.qid is not None:
            return QueryPosition(sim.grid, query_id=self.qid)
        return QueryPosition(sim.grid, fixed=self.scenario.query_point)

    def _igern(self, grid, position) -> "IGERNMonoQuery | IGERNBiQuery":
        sc = self.scenario
        metric = None
        if sc.metric == "network":
            # Fresh metric per query; the scenario network underneath
            # holds the distance memo they share.
            metric = NetworkMetric(self.network)
        if sc.mode == "mono":
            return IGERNMonoQuery(grid, position, k=sc.k, metric=metric)
        return IGERNBiQuery(grid, position, k=sc.k, metric=metric)

    def _register(self, sim: Simulator) -> None:
        sc = self.scenario
        k = sc.k
        grid = sim.grid
        sim.add_query("igern", self._igern(grid, self._position(sim)))
        if sc.metric == "network":
            # The Euclidean baselines are not defined under network
            # distance; generated network scenarios carry baseline=None,
            # and handcrafted corpus entries are held to the same rule.
            pass
        elif sc.mode == "mono":
            if sc.baseline == "crnn":
                sim.add_query("crnn", CRNNQuery(grid, self._position(sim)))
            elif sc.baseline == "tpl":
                sim.add_query("tpl", TPLQuery(grid, self._position(sim), k=k))
            elif sc.baseline == "sixpie":
                sim.add_query("sixpie", SixPieSnapshotQuery(grid, self._position(sim)))
        else:
            if sc.baseline == "voronoi":
                sim.add_query("voronoi", VoronoiRepeatQuery(grid, self._position(sim)))
        # Extra fixed IGERN queries with overlapping footprints: the
        # workload where the shared tick context memoizes across queries.
        for name, point in zip(self.extra_names, sc.extra_query_points or []):
            sim.add_query(name, self._igern(grid, QueryPosition(grid, fixed=point)))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> ScenarioResult:
        metrics_on = self.sim_on.execute_queries()
        metrics_batch = self.sim_batch.execute_queries()
        metrics_off = self.sim_off.execute_queries()
        metrics_store = self.sim_store.execute_queries()
        metrics_lease = self.sim_lease.execute_queries()
        self._check_tick(
            0, metrics_on, metrics_off, metrics_batch, metrics_store, metrics_lease
        )
        self._check_serving(0, metrics_off, initial=True)
        for t in range(1, self.scenario.n_ticks + 1):
            metrics_on = self.sim_on.step()
            metrics_batch = self.sim_batch.step()
            metrics_off = self.sim_off.step()
            metrics_store = self.sim_store.step()
            metrics_lease = self.sim_lease.step()
            self._check_tick(
                t,
                metrics_on,
                metrics_off,
                metrics_batch,
                metrics_store,
                metrics_lease,
            )
            self._check_serving(t, metrics_off)
        if self.cluster is not None:
            self.cluster.close()
        return ScenarioResult(
            scenario=self.scenario,
            ticks=self.scenario.n_ticks,
            divergences=self.divergences,
            lease_stats={
                "issued": self.sim_lease.leases_issued,
                "held": self.sim_lease.leases_held,
                "broken": self.sim_lease.leases_broken,
            },
        )

    def _oracle(self, qpos, query_id) -> set:
        sc = self.scenario
        grid = self.sim_off.grid
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
        grid = self.sim_off.grid
        if self.qid is not None:
            qpos = grid.position(self.qid)
        else:
            qpos = self.scenario.query_point
        main = self._oracle(qpos, self.qid)
        expected = {
            name: main
            for name in self.sim_off.query_names()
            if name not in self.extra_names
        }
        for name, point in zip(
            self.extra_names, self.scenario.extra_query_points or []
        ):
            expected[name] = self._oracle(point, None)
        return expected

    def _check_tick(
        self,
        tick: int,
        metrics_on: Dict,
        metrics_off: Dict,
        metrics_batch: Dict,
        metrics_store: Dict,
        metrics_lease: Dict,
    ) -> None:
        report = self.divergences
        off_positions = self.sim_off.grid.positions_snapshot()
        for side, sim in (
            ("on", self.sim_on),
            ("batch", self.sim_batch),
            ("store", self.sim_store),
            ("lease", self.sim_lease),
        ):
            if sim.grid.positions_snapshot() != off_positions:
                report.append(
                    Divergence(
                        kind="grid-sync",
                        tick=tick,
                        name=f"grid[{side}]",
                        expected=[],
                        actual=[],
                        detail="paired grids hold different positions",
                    )
                )
        expectations = self._expectations()
        for name in self.sim_off.query_names():
            expected = expectations[name]
            off_answer = set(metrics_off[name].answer)
            on_answer = set(metrics_on[name].answer)
            batch_answer = set(metrics_batch[name].answer)
            if off_answer != expected:
                report.append(
                    Divergence(
                        kind="oracle",
                        tick=tick,
                        name=name,
                        expected=sorted(expected, key=repr),
                        actual=sorted(off_answer, key=repr),
                    )
                )
            if on_answer != off_answer:
                report.append(
                    Divergence(
                        kind="scheduler",
                        tick=tick,
                        name=name,
                        expected=sorted(off_answer, key=repr),
                        actual=sorted(on_answer, key=repr),
                        detail="scheduler=True answer differs from scheduler=False",
                    )
                )
            if batch_answer != off_answer:
                report.append(
                    Divergence(
                        kind="batch",
                        tick=tick,
                        name=name,
                        expected=sorted(off_answer, key=repr),
                        actual=sorted(batch_answer, key=repr),
                        detail="batch=True answer differs from the cold path",
                    )
                )
            store_answer = set(metrics_store[name].answer)
            if store_answer != off_answer:
                report.append(
                    Divergence(
                        kind="store",
                        tick=tick,
                        name=name,
                        expected=sorted(off_answer, key=repr),
                        actual=sorted(store_answer, key=repr),
                        detail="mapping-store answer differs from the columnar path",
                    )
                )
            lease_answer = set(metrics_lease[name].answer)
            if lease_answer != off_answer:
                report.append(
                    Divergence(
                        kind="lease",
                        tick=tick,
                        name=name,
                        expected=sorted(off_answer, key=repr),
                        actual=sorted(lease_answer, key=repr),
                        detail="lease-mode answer differs from the evaluate-everything path",
                    )
                )
        self._check_lease_contracts(tick, expectations)
        # Memoization soundness, one level below answers: sim_on and
        # sim_batch make identical scheduling decisions, so their IGERN
        # monitored sets must match exactly.  (sim_off is not comparable
        # here — a skipped tick may legitimately leave monitored state
        # behind the evaluate-everything configuration.)
        for name in ["igern", *self.extra_names]:
            mon_batch = self._monitored(self.sim_batch, name)
            mon_on = self._monitored(self.sim_on, name)
            if mon_batch != mon_on:
                report.append(
                    Divergence(
                        kind="batch",
                        tick=tick,
                        name=name,
                        expected=sorted(mon_on, key=repr),
                        actual=sorted(mon_batch, key=repr),
                        detail="batched monitored set differs from unbatched",
                    )
                )
        if self.check_invariants:
            igern_names = ["igern", *self.extra_names]
            for side, sim in (
                ("on", self.sim_on),
                ("batch", self.sim_batch),
                ("off", self.sim_off),
                ("store", self.sim_store),
            ):
                for name in igern_names:
                    for violation in self._state_violations(sim, name):
                        report.append(
                            Divergence(
                                kind="invariant",
                                tick=tick,
                                name=f"{name}[{side}]",
                                expected=[],
                                actual=[],
                                detail=violation,
                            )
                        )
            for side, sim in (
                ("on", self.sim_on),
                ("batch", self.sim_batch),
                ("store", self.sim_store),
            ):
                for name in igern_names:
                    for violation in self._footprint_violations(sim, name):
                        report.append(
                            Divergence(
                                kind="invariant",
                                tick=tick,
                                name=f"footprint:{name}[{side}]",
                                expected=[],
                                actual=[],
                                detail=violation,
                            )
                        )

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
        sim = self.sim_lease
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
            within = True
            for oid, pos in positions.items():
                if oid == lease.query_oid:
                    continue
                old = issued[oid]
                if math.hypot(pos[0] - old[0], pos[1] - old[1]) > budget:
                    within = False
                    break
            if not within:
                continue
            qpos = sim.query(name).position.current()
            if not lease.contains(qpos):
                continue
            expected = expectations.get(name)
            if expected is not None and set(lease.answer) != expected:
                self.divergences.append(
                    Divergence(
                        kind="lease",
                        tick=tick,
                        name=name,
                        expected=sorted(expected, key=repr),
                        actual=sorted(lease.answer, key=repr),
                        detail=(
                            "lease contract holds (population unchanged,"
                            " displacements within budget, query inside"
                            " the safe region) but the certified answer"
                            " is not the oracle answer"
                        ),
                    )
                )

    def _check_serving(
        self, tick: int, metrics_off: Dict, initial: bool = False
    ) -> None:
        """Advance the serving cluster one tick and hold it to lockstep.

        Two comparisons: merged answers must be bit-identical to the
        scheduler-off oracle configuration, and the cluster's lease
        decisions (spent budget / taint / break, per live lease) must be
        bit-identical to the single-process lease-mode simulator — the
        sharded service may not certify differently than the engine it
        wraps.  Fan-out disagreements between shard replicas surface as
        a ``RuntimeError`` from the merge and are recorded too.
        """
        if self.cluster is None:
            return
        igern_names = ["igern", *self.extra_names]
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
            self.divergences.append(
                Divergence(
                    kind="serving",
                    tick=tick,
                    name="cluster",
                    expected=[],
                    actual=[],
                    detail=str(exc),
                )
            )
            return
        for name in igern_names:
            entry = result.answers.get(name)
            served = set(entry[0]) if entry is not None else None
            off_answer = set(metrics_off[name].answer)
            if served != off_answer:
                self.divergences.append(
                    Divergence(
                        kind="serving",
                        tick=tick,
                        name=name,
                        expected=sorted(off_answer, key=repr),
                        actual=sorted(served or (), key=repr),
                        detail="sharded answer differs from the single-process engine",
                    )
                )
        ref_scheduler = self.sim_lease.scheduler
        if ref_scheduler is not None:
            ref_leases = {
                name: (state.spent, state.tainted, state.broken)
                for name, state in ref_scheduler.lease_states().items()
                if name in igern_names
            }
            if result.leases != ref_leases:
                self.divergences.append(
                    Divergence(
                        kind="serving",
                        tick=tick,
                        name="leases",
                        expected=sorted(ref_leases.items(), key=repr),
                        actual=sorted(result.leases.items(), key=repr),
                        detail="sharded lease decisions differ from the lease-mode engine",
                    )
                )

    def _query_id(self, name: str):
        return self.qid if name == "igern" else None

    def _monitored(self, sim: Simulator, name: str) -> set:
        state = sim.query(name)._state
        if state is None:
            return set()
        if self.scenario.mode == "mono":
            return set(state.candidates)
        return set(state.nn_a)

    def _state_violations(self, sim: Simulator, name: str = "igern") -> List[str]:
        query = sim.query(name)
        state = query._state
        if state is None:
            return []
        qid = self._query_id(name)
        if self.scenario.mode == "mono":
            return state.check_invariants(sim.grid, k=self.scenario.k, query_id=qid)
        return state.check_invariants(
            sim.grid, CAT_A, CAT_B, k=self.scenario.k, query_id=qid
        )

    def _footprint_violations(self, sim: Simulator, name: str = "igern") -> List[str]:
        """The registered footprint must cover everything the scheduler
        relies on: the alive region (at cell granularity), the monitored
        object set, the query object, and every answer object's cell."""
        if sim.scheduler is None:
            return []
        fp = sim.scheduler.footprint(name)
        if fp is None:
            return []
        query = sim.query(name)
        state = query._state
        if state is None:
            return []
        out: List[str] = []
        missing = set(state.alive.alive_cells()) - set(fp.cells)
        if missing:
            out.append(f"footprint misses alive cells {sorted(missing)[:4]}")
        monitored = (
            state.candidates if self.scenario.mode == "mono" else state.nn_a
        )
        for oid in monitored:
            if oid not in fp.objects:
                out.append(f"footprint misses monitored object {oid!r}")
        qid = self._query_id(name)
        if qid is not None and qid not in fp.objects:
            out.append(f"footprint misses query object {qid!r}")
        grid = sim.grid
        for oid in state.answer:
            if oid in grid and grid.cell_of(oid) not in fp.cells:
                out.append(f"footprint misses answer object {oid!r}'s cell")
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

    ``serving`` adds the sharded serving cluster as a sixth lockstep
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
