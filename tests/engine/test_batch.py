"""Unit tests for the shared-execution batch executor and its engine hookup."""

from repro.engine.batch import BatchExecutor
from repro.engine.simulation import Simulator
from repro.engine.workload import WorkloadSpec, build_simulator, set_default_batch
from repro.grid.alive import AliveCellGrid
from repro.grid.index import GridIndex
from repro.grid.search import GridSearch
from repro.motion.uniform import RandomWalkGenerator
from repro.queries import IGERNBiQuery, IGERNMonoQuery, QueryPosition
from repro.queries.base import QueryFootprint


def _fp(cells=(), objects=()):
    return QueryFootprint(cells=frozenset(cells), objects=frozenset(objects))


class TestGrouping:
    def test_overlapping_footprints_grouped_contiguously(self):
        ex = BatchExecutor(GridIndex(8))
        footprints = {
            "a": _fp(cells=[(0, 0), (0, 1)]),
            "b": _fp(cells=[(5, 5)]),
            "c": _fp(cells=[(0, 1), (2, 2)]),
        }
        order = ex.order(["a", "b", "c"], footprints)
        # a and c share cell (0, 1): one group, listed back to back, with
        # groups and members in first-seen input order.
        assert order == ["a", "c", "b"]
        assert ex.groups == 2

    def test_shared_monitored_object_joins_groups(self):
        ex = BatchExecutor(GridIndex(8))
        footprints = {
            "a": _fp(cells=[(0, 0)], objects=[7]),
            "b": _fp(cells=[(5, 5)], objects=[7]),
        }
        assert ex.order(["a", "b"], footprints) == ["a", "b"]
        assert ex.groups == 1

    def test_footprintless_queries_stay_singletons(self):
        ex = BatchExecutor(GridIndex(8))
        footprints = {"a": None, "b": None, "c": _fp(cells=[(1, 1)])}
        assert ex.order(["a", "b", "c"], footprints) == ["a", "b", "c"]
        assert ex.groups == 3

    def test_transitive_overlap_is_one_group(self):
        ex = BatchExecutor(GridIndex(8))
        footprints = {
            "a": _fp(cells=[(0, 0)]),
            "b": _fp(cells=[(0, 0), (1, 1)]),
            "c": _fp(cells=[(1, 1)]),
        }
        assert ex.order(["a", "b", "c"], footprints) == ["a", "b", "c"]
        assert ex.groups == 1

    def test_order_is_a_permutation(self):
        ex = BatchExecutor(GridIndex(8))
        names = [f"q{i}" for i in range(9)]
        footprints = {name: _fp(cells=[(i % 3, 0)]) for i, name in enumerate(names)}
        order = ex.order(names, footprints)
        assert sorted(order) == sorted(names)
        assert ex.groups == 3


class TestTickAccounting:
    def test_finish_tick_drains_deltas(self):
        grid = GridIndex(8)
        grid.insert(0, (0.5, 0.5), "A")
        ex = BatchExecutor(grid)
        ex.begin_tick()
        search = GridSearch(grid)
        center = grid.position(0)
        sig = frozenset({0})
        for _ in range(2):
            ex.context.witness_count(search, 0, center, 0.01, sig, None, 1)
        assert ex.finish_tick() == (1, 1)
        assert ex.sharing_ratio == 0.5
        ex.begin_tick()
        assert ex.finish_tick() == (0, 0)
        assert ex.sharing_ratio == 0.0


class TestSimulatorFlag:
    def _queries(self, sim, points):
        for i, pt in enumerate(points):
            sim.add_query(
                f"q{i}",
                IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=pt)),
            )

    def test_batch_off_has_no_executor(self):
        sim = Simulator(RandomWalkGenerator(20, seed=1), grid_size=8, batch=False)
        assert sim.batch is None

    def test_batch_requires_scheduler(self):
        sim = Simulator(
            RandomWalkGenerator(20, seed=1), grid_size=8, scheduler=False, batch=True
        )
        assert sim.batch is None

    def test_batched_run_matches_unbatched_and_shares(self):
        points = [(0.48, 0.5), (0.5, 0.5), (0.52, 0.5), (0.5, 0.52)]

        def run(batch):
            sim = Simulator(
                RandomWalkGenerator(60, seed=7, step_sigma=0.03),
                grid_size=16,
                batch=batch,
            )
            self._queries(sim, points)
            result = sim.run(5)
            answers = {
                name: [tick.answer for tick in result[name].ticks]
                for name in result.names()
            }
            return answers, sim

        batched, sim_batched = run(True)
        unbatched, sim_plain = run(False)
        assert batched == unbatched
        assert sim_batched.batch_probe_hits > 0
        assert sim_plain.batch_probe_hits == 0

    def test_build_simulator_respects_default(self):
        spec = WorkloadSpec(n_objects=10, seed=1, grid_size=8)
        try:
            set_default_batch(False)
            assert build_simulator(spec).batch is None
        finally:
            set_default_batch(True)
        assert build_simulator(spec).batch is not None
        assert build_simulator(spec, batch=False).batch is None


class TestRegionMaintenanceUnshared:
    """Batching shares verification probes only: each query classifies
    its own region's cells, through the vectorised span pass, whether or
    not a shared tick context is bound."""

    def test_batched_and_unbatched_classify_alike(self, monkeypatch):
        calls = {"compute": 0, "prefill": 0}
        compute = AliveCellGrid._compute_alive
        prefill = AliveCellGrid._prefill_span

        def counting_compute(self, key):
            calls["compute"] += 1
            return compute(self, key)

        def counting_prefill(self, *span):
            calls["prefill"] += 1
            return prefill(self, *span)

        monkeypatch.setattr(AliveCellGrid, "_compute_alive", counting_compute)
        monkeypatch.setattr(AliveCellGrid, "_prefill_span", counting_prefill)
        # Sparse A objects on a fine grid: the regions span more than
        # _PREFILL_MIN_CELLS cells.  Bichromatic footprints do not depend
        # on the shared context, so both sides dispatch alike.
        spec = WorkloadSpec(
            n_objects=300,
            grid_size=32,
            seed=3,
            network="walk",
            bichromatic=True,
            a_fraction=0.2,
        )
        sims = []
        for batch in (True, False):
            sim = build_simulator(spec, batch=batch)
            for i, pt in enumerate([(0.45, 0.5), (0.5, 0.5), (0.55, 0.52)]):
                sim.add_query(
                    f"q{i}",
                    IGERNBiQuery(sim.grid, QueryPosition(sim.grid, fixed=pt)),
                )
            sims.append(sim)
        assert sims[0].batch is not None and sims[1].batch is None
        prefills = 0
        for tick in range(9):
            sides = []
            for sim in sims:
                before = dict(calls)
                metrics = sim.execute_queries() if tick == 0 else sim.step()
                sides.append(
                    (
                        {kind: calls[kind] - before[kind] for kind in calls},
                        {n: (m.answer, m.skipped) for n, m in metrics.items()},
                    )
                )
            assert sides[0] == sides[1], f"tick {tick}"
            prefills += sides[1][0]["prefill"]
        assert prefills > 0
