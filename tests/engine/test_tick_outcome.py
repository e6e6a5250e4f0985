"""The per-tick :class:`TickOutcome` view returned by ``Simulator.step``.

A skipped query's entry is built only when read, from the query's last
evaluated metrics as they stood when the tick ran; readers that touch
only ``.evaluated`` pay nothing for the skipped queries.  These tests
pin the entries' fields, the iteration order, the mapping behaviour the
callers rely on, that the saving is real, and that the
``ticks_skipped_total`` counters stay exact behind cached handles.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.state import StepReport
from repro.engine.manager import ContinuousQueryManager
from repro.engine.metrics import TickMetrics, TickOutcome
from repro.engine.simulation import Simulator
from repro.geometry.point import Point
from repro.obs.ledger import REASON_DELTA_DISJOINT, REASON_LEASE_HELD
from repro.obs.metrics import MetricsRegistry
from repro.queries import IGERNMonoQuery, QueryPosition


class Jitter:
    """``movers`` random objects shift by a Gaussian ``sigma`` a tick."""

    def __init__(self, n=300, seed=3, movers=30, sigma=1e-4):
        self.rng = random.Random(seed)
        self.pos = {
            i: Point(self.rng.random(), self.rng.random()) for i in range(n)
        }
        self.movers = movers
        self.sigma = sigma

    def initial(self):
        return [(oid, p, 0) for oid, p in self.pos.items()]

    def step(self, dt=1.0):
        rng = self.rng
        out = []
        for oid in rng.sample(sorted(self.pos), self.movers):
            p = self.pos[oid]
            q = Point(
                min(1.0, max(0.0, p.x + rng.gauss(0.0, self.sigma))),
                min(1.0, max(0.0, p.y + rng.gauss(0.0, self.sigma))),
            )
            self.pos[oid] = q
            out.append((oid, q))
        return out


N_QUERIES = 12


def _query_points(seed=5):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(N_QUERIES)]


def _sim(lease=False, registry=None, scheduler=True, sigma=1e-4):
    sim = Simulator(
        Jitter(sigma=sigma),
        grid_size=16,
        lease=lease,
        registry=registry,
        scheduler=scheduler,
    )
    for i, point in enumerate(_query_points()):
        sim.add_query(
            f"q{i}", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=point))
        )
    return sim


def _capture(sim):
    """Record every view ``sim.step`` returns (the manager drops them)."""
    views = []
    step = sim.step

    def recording_step():
        view = step()
        views.append(view)
        return view

    sim.step = recording_step
    return views


def _managed_views(n_ticks, lease=False, sigma=1e-4):
    sim = _sim(lease=lease, sigma=sigma)
    manager = ContinuousQueryManager(sim)
    views = _capture(sim)
    manager.run(n_ticks)
    return sim, views


class TestSkippedEntries:
    @pytest.mark.parametrize("lease", [False, True], ids=["plain", "lease"])
    def test_entries_carry_the_last_evaluation(self, lease):
        sim, views = _managed_views(10, lease=lease)
        last = {}
        reasons = Counter()
        for tick, view in enumerate(views, start=1):
            assert view.tick == tick
            for name, reason in view.skipped.items():
                m = view[name]
                prior = last[name]
                assert m.tick == tick
                assert m.wall_time == 0.0
                assert m.answer == prior.answer
                assert m.monitored == prior.monitored
                assert m.region_cells == prior.region_cells
                assert m.ops == {}
                assert m.skipped is True
                assert m.reason == reason
                reasons[reason] += 1
            last.update(view.evaluated)
        expected = {REASON_DELTA_DISJOINT, REASON_LEASE_HELD} if lease else {
            REASON_DELTA_DISJOINT
        }
        assert set(reasons) == expected

    def test_iteration_is_skipped_in_registration_then_dispatch_order(
        self, monkeypatch
    ):
        sim = _sim()
        manager = ContinuousQueryManager(sim)
        views = _capture(sim)
        dispatched = []
        for name in sim.query_names():
            query = sim.query(name)
            for method in ("initial", "tick"):
                inner = getattr(query, method)

                def wrapped(inner=inner, name=name):
                    dispatched.append(name)
                    return inner()

                monkeypatch.setattr(query, method, wrapped)
        registration = sim.query_names()
        saw_both = False
        for _ in range(8):
            dispatched.clear()
            manager.step()
            view = views[-1]
            skipped = [n for n in registration if n in view.skipped]
            assert list(view.skipped) == skipped
            assert list(view.evaluated) == dispatched
            assert list(view) == skipped + dispatched
            saw_both = saw_both or bool(skipped and dispatched)
        assert saw_both

    def test_a_kept_view_describes_its_own_tick(self):
        sim = _sim(sigma=3e-3)
        last = dict(sim.execute_queries().evaluated)
        last.update(sim.step().evaluated)
        held = sim.step()
        expected = {}
        for name in held.skipped:
            prior = last[name]
            expected[name] = (prior.answer, prior.monitored, prior.region_cells)
        last.update(held.evaluated)
        later = [sim.step(), sim.step()]
        # The two later ticks re-evaluated some query the held view skipped.
        assert any(set(held.skipped) & set(v.evaluated) for v in later)
        for name, (answer, monitored, region_cells) in expected.items():
            m = held[name]
            assert m.tick == held.tick
            assert (m.answer, m.monitored, m.region_cells) == (
                answer,
                monitored,
                region_cells,
            )
        for name, m in held.evaluated.items():
            assert held[name] is m and m.tick == held.tick

    def test_mapping_behaves_like_the_dict_it_replaced(self):
        sim = _sim()
        sim.execute_queries()
        view = sim.step()
        assert isinstance(view, TickOutcome)
        assert view.skipped and view.evaluated
        eager = {name: view[name] for name in view}
        assert len(view) == len(eager) == N_QUERIES
        assert view == eager
        assert all(name in view for name in eager)
        assert "absent" not in view
        with pytest.raises(KeyError):
            view["absent"]
        assert view.get("absent") is None
        skipped_name = next(iter(view.skipped))
        evaluated_name = next(iter(view.evaluated))
        assert view[skipped_name] is view[skipped_name]
        for name in (skipped_name, evaluated_name):
            planted = replace(view[name], answer=view[name].answer | {"planted"})
            view[name] = planted
            assert view[name] is planted
        assert list(view) == list(eager)
        assert len(view) == N_QUERIES
        extra = replace(view[evaluated_name])
        view["extra"] = extra
        assert list(view)[-1] == "extra" and len(view) == N_QUERIES + 1


class TestRunLogs:
    def test_run_counts_and_answers_match_the_unscheduled_run(self):
        n_ticks = 8
        scheduled = _sim().run(n_ticks)
        reference = _sim(scheduler=False).run(n_ticks)
        assert scheduled.queries_skipped > 0
        for name in scheduled.names():
            log = scheduled[name]
            assert log.evaluated_count + log.skipped_count == n_ticks + 1
            assert [m.answer for m in log.ticks] == [
                m.answer for m in reference[name].ticks
            ]
            assert [m.tick for m in log.ticks] == list(range(n_ticks + 1))


class TestSkipPathAllocatesNothing:
    def test_reading_only_evaluated_builds_no_skipped_entry(self, monkeypatch):
        sim = _sim()
        manager = ContinuousQueryManager(sim)
        manager.run(3)  # every query announced
        built = []
        carried = []
        init = TickMetrics.__init__
        carry = StepReport.carried

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_carried(self):
            carried.append(1)
            return carry(self)

        monkeypatch.setattr(TickMetrics, "__init__", counting_init)
        monkeypatch.setattr(StepReport, "carried", counting_carried)
        views = _capture(sim)
        skipped = evaluated = 0
        for _ in range(5):
            manager.step()
            skipped += len(views[-1].skipped)
            evaluated += len(views[-1].evaluated)
        assert skipped > 0
        assert len(built) == evaluated
        assert carried == []
        # Reading builds: one entry per skipped name, one carried report
        # per skipped query whose report is read.
        name = next(iter(views[-1].skipped))
        views[-1][name]
        assert len(built) == evaluated + 1
        assert sim.query(name).last_report.alive_cells == (
            views[-1][name].region_cells
        )
        assert len(carried) == 1


def _reported_skips(views):
    counts = Counter()
    for view in views:
        counts.update(view.skipped.items())
    return counts


def _registry_skips(registry):
    return Counter(
        {
            (dict(c.labels)["query"], dict(c.labels)["reason"]): c.value
            for c in registry.collect()
            if c.name == "ticks_skipped_total"
        }
    )


class TestSkipCountersStayExact:
    @pytest.mark.parametrize("lease", [False, True], ids=["plain", "lease"])
    def test_counters_equal_the_views(self, lease):
        registry = MetricsRegistry()
        sim = _sim(lease=lease, registry=registry)
        views = [sim.execute_queries()] + [sim.step() for _ in range(10)]
        reported = _reported_skips(views)
        assert _registry_skips(registry) == reported
        if lease:
            assert any(reason == REASON_LEASE_HELD for _, reason in reported)

    def test_remove_and_readd_keeps_counting(self):
        registry = MetricsRegistry()
        sim = _sim(registry=registry)
        views = [sim.execute_queries()] + [sim.step() for _ in range(4)]
        removed = sim.remove_query("q0")
        sim.add_query("q0", removed)
        views += [sim.step() for _ in range(6)]
        reported = _reported_skips(views)
        assert reported[("q0", REASON_DELTA_DISJOINT)] > 0
        assert _registry_skips(registry) == reported

    def test_cleared_registry_gets_fresh_counters(self):
        registry = MetricsRegistry()
        sim = _sim(registry=registry)
        [sim.execute_queries()] + [sim.step() for _ in range(4)]
        registry.clear()
        views = [sim.step() for _ in range(6)]
        reported = _reported_skips(views)
        assert sum(reported.values()) > 0
        assert _registry_skips(registry) == reported
