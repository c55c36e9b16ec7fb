"""Tests for the S-CORE scheduler control loop."""

import numpy as np
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
from repro.sim.eventqueue import CapacityChange, EventQueueRunner
from repro.topology import CanonicalTree


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
    def test_a_new_estimate_is_one_delta(self, populated, cost_model):
        """A whole new estimate is written as one delta: its pairs at
        their new rates, every current pair it lacks at rate 0."""
        allocation, traffic, _ = populated
        scheduler = build_scheduler((allocation, traffic, None), cost_model)
        scheduler.run(n_iterations=2)
        (u0, v0, _), *kept = list(traffic.pairs())
        fresh = TrafficMatrix.from_pairs([(u, v, 2.0 * r) for u, v, r in kept])
        scheduler.apply_traffic_delta(list(fresh.pairs()) + [(u0, v0, 0.0)])
        assert traffic.rate(u0, v0) == 0.0
        assert {(u, v): r for u, v, r in traffic.pairs()} == {
            (u, v): r for u, v, r in fresh.pairs()
        }
        # The next run opens at the fresh estimate's cost over the
        # placement as it stands *before* that run migrates anything.
        expected = cost_model.total_cost(allocation, fresh)
        report = scheduler.run(n_iterations=1)
        assert report.initial_cost == pytest.approx(expected)
        assert scheduler.fastcost.in_sync

    def test_a_new_estimate_may_open_pairs(self, populated, cost_model):
        """A pair the old estimate lacked is written by the same delta
        and priced by the next run like any other."""
        allocation, traffic, _ = populated
        scheduler = build_scheduler((allocation, traffic, None), cost_model)
        vms = sorted(allocation.vm_ids())
        u, v = next(
            (a, b) for a in vms for b in vms if a < b and not traffic.rate(a, b)
        )
        scheduler.apply_traffic_delta([(u, v, 5.0)])
        assert traffic.rate(u, v) == 5.0
        assert scheduler.fastcost.in_sync
        expected = cost_model.total_cost(allocation, traffic)
        assert scheduler.run(n_iterations=1).initial_cost == pytest.approx(
            expected
        )

    def test_unknown_vm_in_delta_rejected(self, populated, cost_model):
        allocation, traffic, _ = populated
        scheduler = build_scheduler((allocation, traffic, None), cost_model)
        total = scheduler.fastcost.total_cost()
        with pytest.raises(KeyError, match="not in the engine"):
            scheduler.apply_traffic_delta([(99999, 99998, 1.0)])
        assert scheduler.fastcost.total_cost() == total
        assert scheduler.fastcost.in_sync

    def test_constructor_rejects_unknown_vms(self, populated, cost_model):
        allocation, _, _ = populated
        bad = TrafficMatrix()
        bad.set_rate(99999, 99998, 1.0)
        with pytest.raises(ValueError, match="absent"):
            SCOREScheduler(
                allocation, bad, RoundRobinPolicy(), MigrationEngine(cost_model)
            )

    def test_constructor_rejects_a_cost_model_on_another_topology(
        self, populated, small_tree
    ):
        """An equal but distinct topology instance is refused: decisions
        would be scored on the allocation's topology while policies and
        oracles read the cost model's."""
        allocation, traffic, _ = populated
        twin = CanonicalTree(
            n_racks=small_tree.n_racks,
            hosts_per_rack=small_tree.hosts_per_rack,
            tors_per_agg=small_tree.n_racks // small_tree.n_aggs,
            n_cores=small_tree.n_cores,
        )
        with pytest.raises(ValueError, match="topology instance"):
            SCOREScheduler(
                allocation, traffic, RoundRobinPolicy(),
                MigrationEngine(CostModel(twin)),
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
        capacity = allocation.cluster.capacity(host)
        placement = allocation.as_dict()
        total = scheduler.fastcost.total_cost()
        with pytest.raises(ValueError) as caught:
            scheduler.set_host_capacity(host, **kwargs)
        assert str(caught.value) == str(direct.value)
        assert allocation.cluster.capacity(host) == capacity
        assert allocation.as_dict() == placement
        assert scheduler.fastcost.total_cost() == total
        assert scheduler.fastcost.in_sync
        allocation.validate()

    @pytest.mark.parametrize(
        "host_of", [lambda n: n, lambda n: -1], ids=["n_hosts", "minus_one"]
    )
    def test_an_out_of_range_host_is_refused_before_any_write(
        self, populated, cost_model, host_of
    ):
        """The allocation's resize and a pumped ``CapacityChange`` (whose
        first host is in range) both refuse a host outside the cluster
        with the cluster's ``ValueError`` and write nothing."""
        allocation = populated[0]
        scheduler = build_scheduler(populated, cost_model)
        host = host_of(allocation.cluster.n_servers)
        runner = EventQueueRunner(scheduler)
        runner.schedule(0.0, CapacityChange([0, host], max_vms=1))
        before = [
            array.copy()
            for array in allocation.cluster.capacity_arrays() + allocation.usage()
        ]
        for refused in (
            lambda: allocation.set_host_capacity(host, max_vms=1),
            lambda: runner.pump(0.0),
        ):
            with pytest.raises(ValueError, match=f"host index {host} out of range"):
                refused()
            after = allocation.cluster.capacity_arrays() + allocation.usage()
            assert all(map(np.array_equal, before, after))
