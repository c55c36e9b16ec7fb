"""Property tests for the fast-cost engine's structural guarantees.

* Lemma 3 exactness over a run: the sum of applied migration deltas equals
  the fully recomputed cost change of the whole scheduler run.
* ΔC_A(u → current host) is exactly zero.
* The topology's cached level vectors agree with the scalar
  ``level_between`` on every host pair of the small topologies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CanonicalTree,
    CostModel,
    FatTree,
    HighestLevelFirstPolicy,
    MigrationEngine,
    SCOREScheduler,
)
from repro.core.fastcost import FastCostEngine
from repro.reference import NaiveScheduler


@pytest.fixture
def fast_engine(populated):
    allocation, traffic, _ = populated
    return FastCostEngine(allocation, traffic)


class TestDeltaSumExactness:
    def test_applied_deltas_sum_to_recomputed_cost_change(
        self, populated, cost_model
    ):
        allocation, traffic, _ = populated
        initial = cost_model.total_cost(allocation, traffic)
        scheduler = SCOREScheduler(
            allocation,
            traffic,
            HighestLevelFirstPolicy(),
            MigrationEngine(cost_model),
        )
        report = scheduler.run(n_iterations=5)
        assert report.total_migrations > 0
        delta_sum = sum(d.delta for d in report.decisions if d.migrated)
        final = cost_model.total_cost(allocation, traffic)
        assert initial - final == pytest.approx(delta_sum, rel=1e-9)
        assert report.final_cost == pytest.approx(final, rel=1e-9)
        # The engine's incremental total has not drifted either.
        fast = scheduler.fastcost
        assert fast.total_cost() == pytest.approx(
            fast.recompute_total_cost(), rel=1e-9
        )

    def test_fast_and_naive_schedulers_agree_end_to_end(
        self, populated, cost_model
    ):
        allocation, traffic, _ = populated
        alloc_naive = allocation.copy()
        # Pin the *engine math* on the per-hold loop; the wave-batched
        # trajectory is differentially pinned in test_wave_rounds.
        fast_report = SCOREScheduler(
            allocation,
            traffic,
            HighestLevelFirstPolicy(),
            MigrationEngine(cost_model),
        ).run_reference(n_iterations=5)
        naive_report = NaiveScheduler(
            alloc_naive,
            traffic,
            HighestLevelFirstPolicy(),
            MigrationEngine(cost_model),
        ).run(n_iterations=5)
        assert fast_report.initial_cost == pytest.approx(
            naive_report.initial_cost, rel=1e-9
        )
        assert fast_report.final_cost == pytest.approx(
            naive_report.final_cost, rel=1e-9
        )


class TestNoOpMigration:
    def test_delta_to_current_host_is_exactly_zero(
        self, populated, cost_model, fast_engine
    ):
        allocation, traffic, _ = populated
        for vm_id in allocation.vm_ids():
            current = allocation.server_of(vm_id)
            assert (
                fast_engine.migration_delta(allocation, traffic, vm_id, current)
                == 0.0
            )
            assert (
                cost_model.migration_delta(allocation, traffic, vm_id, current)
                == 0.0
            )

    def test_apply_migration_to_current_host_is_noop(
        self, populated, fast_engine
    ):
        allocation, traffic, _ = populated
        vm_id = next(iter(allocation.vm_ids()))
        before = fast_engine.total_cost()
        assert fast_engine.apply_migration(vm_id, allocation.server_of(vm_id)) == 0.0
        assert fast_engine.total_cost() == before


class TestLevelVectors:
    @pytest.mark.parametrize(
        "topology",
        [
            CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2),
            FatTree(k=4),
        ],
        ids=["canonical", "fattree"],
    )
    def test_level_vectors_agree_with_scalar_lookup(self, topology):
        rack = topology.host_rack_ids()
        pod = topology.host_pod_ids()
        all_hosts = np.arange(topology.n_hosts, dtype=np.int64)
        for host in range(topology.n_hosts):
            assert rack[host] == topology.rack_of(host)
            assert pod[host] == topology.pod_of(host)
            vector = topology.level_between_many(host, all_hosts)
            scalar = [
                topology.level_between(host, other)
                for other in range(topology.n_hosts)
            ]
            assert vector.tolist() == scalar

    def test_level_vector_rejects_out_of_range(self):
        topology = FatTree(k=4)
        with pytest.raises(ValueError):
            topology.level_between_many(
                0, np.array([0, topology.n_hosts], dtype=np.int64)
            )


class TestEngineBinding:
    def test_rejects_foreign_allocation_and_traffic(self, populated, fast_engine):
        allocation, traffic, _ = populated
        other_allocation = allocation.copy()
        other_traffic = traffic.copy()
        with pytest.raises(ValueError):
            fast_engine.total_cost(other_allocation, traffic)
        with pytest.raises(ValueError):
            fast_engine.total_cost(allocation, other_traffic)
        assert not fast_engine.is_bound_to(other_allocation, traffic)
        assert fast_engine.is_bound_to(allocation, traffic)

    def test_unknown_vm_raises(self, fast_engine):
        with pytest.raises(KeyError):
            fast_engine.migration_deltas(10_000_000, np.array([0]))
