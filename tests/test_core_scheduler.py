"""Tests for the S-CORE scheduler control loop."""

import pytest

from repro import (
    CostModel,
    DCTrafficGenerator,
    HighestLevelFirstPolicy,
    MigrationEngine,
    RoundRobinPolicy,
    SCOREScheduler,
    SPARSE,
    TrafficMatrix,
)
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)


def build_scheduler(populated, cost_model, policy=None, **engine_kwargs):
    allocation, traffic, _ = populated
    engine = MigrationEngine(cost_model, **engine_kwargs)
    return SCOREScheduler(
        allocation, traffic, policy or RoundRobinPolicy(), engine
    )


class TestRun:
    def test_cost_never_increases(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=3)
        costs = [cost for _, cost in report.time_series]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_incremental_cost_matches_recompute(self, populated, cost_model):
        allocation, traffic, _ = populated
        scheduler = build_scheduler((allocation, traffic, None), cost_model)
        report = scheduler.run(n_iterations=3)
        recomputed = cost_model.total_cost(allocation, traffic)
        assert report.final_cost == pytest.approx(recomputed, rel=1e-9)

    def test_iteration_accounting(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=4)
        assert len(report.iterations) == 4
        assert all(it.visits == 64 for it in report.iterations)
        assert report.total_migrations == sum(
            it.migrations for it in report.iterations
        )

    def test_migrations_plummet_after_convergence(self, populated, cost_model):
        """The Fig. 2 behaviour: almost all moves happen in early rounds."""
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=5)
        first_two = sum(it.migrations for it in report.iterations[:2])
        rest = sum(it.migrations for it in report.iterations[2:])
        assert first_two >= rest
        assert report.iterations[-1].migrations <= report.iterations[0].migrations

    def test_stop_when_stable(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=50, stop_when_stable=True)
        assert len(report.iterations) < 50
        assert report.iterations[-1].migrations == 0

    def test_hlf_reduces_at_least_as_fast_early(self, populated, cost_model):
        allocation, traffic, _ = populated
        rr_alloc = allocation.copy()
        rr = SCOREScheduler(
            rr_alloc, traffic, RoundRobinPolicy(), MigrationEngine(cost_model)
        ).run(n_iterations=3)
        hlf_alloc = allocation.copy()
        hlf = SCOREScheduler(
            hlf_alloc, traffic.copy(), HighestLevelFirstPolicy(),
            MigrationEngine(cost_model),
        ).run(n_iterations=3)
        # Both must achieve substantial reductions on a sparse TM.
        assert rr.cost_reduction > 0.2
        assert hlf.cost_reduction > 0.2

    def test_record_every_hold(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=1, record_every_hold=True)
        # initial point + one per hold + one per iteration end.
        assert len(report.time_series) == 1 + 64 + 1

    def test_time_axis_advances_by_interval(self, populated, cost_model):
        allocation, traffic, _ = populated
        engine = MigrationEngine(cost_model)
        scheduler = SCOREScheduler(
            allocation, traffic, RoundRobinPolicy(), engine, token_interval_s=2.0
        )
        report = scheduler.run(n_iterations=1, record_every_hold=True)
        times = [t for t, _ in report.time_series]
        assert times[0] == 0.0
        assert times[1] == 2.0
        assert times[-1] == 64 * 2.0

    def test_bad_iterations_rejected(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        with pytest.raises(ValueError):
            scheduler.run(n_iterations=0)


class TestReport:
    def test_cost_reduction_definition(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=3)
        assert report.cost_reduction == pytest.approx(
            1 - report.final_cost / report.initial_cost
        )

    def test_cost_ratio_series(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=2)
        reference = report.final_cost * 0.9  # pretend GA-optimal
        series = report.cost_ratio_series(reference)
        assert series[0][1] == pytest.approx(report.initial_cost / reference)
        assert series[-1][1] == pytest.approx(report.final_cost / reference)
        with pytest.raises(ValueError):
            report.cost_ratio_series(0.0)

    def test_migrated_ratio_series(self, populated, cost_model):
        scheduler = build_scheduler(populated, cost_model)
        report = scheduler.run(n_iterations=2)
        series = report.migrated_ratio_series()
        assert [i for i, _ in series] == [1, 2]
        assert all(0 <= ratio <= 1 for _, ratio in series)

    def test_series_tolerate_empty_report(self):
        """A report with no iterations/points yields empty series, not errors.

        Hand-built reports (aggregation tooling, not-yet-run schedulers)
        legitimately carry zero iterations; both series accessors must
        treat that as an empty result.
        """
        from repro.core.scheduler import SchedulerReport

        report = SchedulerReport(initial_cost=10.0, final_cost=10.0)
        assert report.migrated_ratio_series() == []
        assert report.cost_ratio_series(5.0) == []
        assert report.total_migrations == 0
        assert report.cost_reduction == 0.0
        # The reference-cost validation still applies even when empty.
        with pytest.raises(ValueError):
            report.cost_ratio_series(0.0)

    def test_iteration_stats_tolerate_zero_visits(self):
        from repro.core.scheduler import IterationStats

        stats = IterationStats(index=1, visits=0, migrations=0, cost_at_end=1.0)
        assert stats.migrated_ratio == 0.0


class TestTrafficUpdates:
    def test_update_traffic_swaps_matrix(self, populated, cost_model):
        allocation, traffic, _ = populated
        scheduler = build_scheduler((allocation, traffic, None), cost_model)
        scheduler.run(n_iterations=2)
        fresh = traffic.scale(2.0)
        scheduler.update_traffic(fresh)
        # The next run must open at the fresh matrix's cost over the
        # placement as it stands *before* that run migrates anything.
        expected = cost_model.total_cost(allocation, fresh)
        report = scheduler.run(n_iterations=1)
        assert report.initial_cost == pytest.approx(expected)

    def test_a_refused_swap_changes_nothing(self):
        """A matrix bound to another scheduler's allocation is refused
        before anything is adopted: the matrix, the engine's total and
        the next round stay exactly what an untouched twin has."""
        a, twin, b = (
            make_scheduler(build_environment(ExperimentConfig(seed=seed)))
            for seed in (1, 1, 2)
        )
        for scheduler in (a, twin, b):
            scheduler.run(n_iterations=1)
        traffic, total = a.traffic, a.fastcost.total_cost()
        with pytest.raises(ValueError, match="another allocation"):
            a.update_traffic(b.traffic)
        assert a.traffic is traffic and a.fastcost.traffic is traffic
        assert a.fastcost.total_cost() == total
        got, want = a.run(n_iterations=1), twin.run(n_iterations=1)
        assert got.final_cost == want.final_cost
        assert list(got.decisions) == list(want.decisions)
        assert got.final_cost == pytest.approx(
            a.fastcost.recompute_total_cost(), rel=1e-9
        )

    def test_unknown_vm_in_traffic_rejected(self, populated, cost_model):
        allocation, traffic, _ = populated
        scheduler = build_scheduler((allocation, traffic, None), cost_model)
        bad = TrafficMatrix()
        bad.set_rate(99999, 99998, 1.0)
        with pytest.raises(ValueError, match="absent"):
            scheduler.update_traffic(bad)

    def test_constructor_rejects_unknown_vms(self, populated, cost_model):
        allocation, _, _ = populated
        bad = TrafficMatrix()
        bad.set_rate(99999, 99998, 1.0)
        with pytest.raises(ValueError, match="absent"):
            SCOREScheduler(
                allocation, bad, RoundRobinPolicy(), MigrationEngine(cost_model)
            )


class TestHostResize:
    @pytest.mark.parametrize("kwargs", [dict(ram_mb=1), dict(cpu=0.01)])
    def test_shrink_below_usage_is_refused_changing_nothing(
        self, populated, cost_model, kwargs
    ):
        """A busy host's RAM or CPU shrink is refused with the
        allocation's own usage message, and changes nothing — capacity,
        placement or the engine's total."""
        allocation = populated[0]
        scheduler = build_scheduler(populated, cost_model)
        host = next(
            h for h in range(allocation.cluster.n_servers)
            if allocation.vms_on(h)
        )
        with pytest.raises(ValueError) as direct:
            allocation.copy().set_host_capacity(host, **kwargs)
        capacity = allocation.cluster.server(host).capacity
        placement = allocation.as_dict()
        total = scheduler.fastcost.total_cost()
        with pytest.raises(ValueError) as caught:
            scheduler.set_host_capacity(host, **kwargs)
        assert str(caught.value) == str(direct.value)
        assert allocation.cluster.server(host).capacity == capacity
        assert allocation.as_dict() == placement
        assert scheduler.fastcost.total_cost() == total
        assert scheduler.fastcost.in_sync
        allocation.validate()
