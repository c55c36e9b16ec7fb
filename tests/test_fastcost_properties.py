"""Property tests for the fast-cost engine's structural guarantees.

* Lemma 3 exactness over a run: the sum of applied migration deltas equals
  the fully recomputed cost change of the whole scheduler run.
* ΔC_A(u → current host) is exactly zero, and such a move writes nothing.
* The per-hold cost series ends exactly on the engine's total.
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
from repro.core.policies import policy_by_name
from repro.reference import NaiveScheduler, PerHoldScheduler
from repro.sim.experiment import ExperimentConfig, build_environment


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

    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    def test_per_hold_cost_series_ends_on_the_engine_total(self, policy):
        """Every per-hold move is a wave of one, so the report's running
        cost (initial minus each gated delta) ends exactly on the
        engine's incremental total."""
        config = ExperimentConfig(policy=policy, seed=42)
        env = build_environment(config)
        scheduler = PerHoldScheduler(
            env.allocation,
            env.traffic,
            policy_by_name(policy, seed=config.seed),
            MigrationEngine(
                env.cost_model,
                migration_cost=config.migration_cost,
                bandwidth_threshold=config.bandwidth_threshold,
            ),
            token_interval_s=config.token_interval_s,
        )
        report = scheduler.run(3)
        assert report.total_migrations > 0
        assert report.final_cost == scheduler.fastcost.total_cost()

    def test_fast_and_naive_schedulers_agree_end_to_end(
        self, populated, cost_model
    ):
        allocation, traffic, _ = populated
        alloc_naive = allocation.copy()
        # Pin the *engine math* on the per-hold loop; the wave-batched
        # trajectory is differentially pinned in test_wave_rounds.
        fast_report = PerHoldScheduler(
            allocation,
            traffic,
            HighestLevelFirstPolicy(),
            MigrationEngine(cost_model),
        ).run(n_iterations=5)
        naive_report = NaiveScheduler(
            alloc_naive,
            traffic.copy(),  # another allocation binds its own matrix
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
        vm_ids = sorted(allocation.vm_ids())
        current = [allocation.server_of(vm_id) for vm_id in vm_ids]
        deltas = fast_engine.exact_deltas(
            fast_engine.dense_indices(vm_ids), np.array(current)
        )
        assert (deltas == 0.0).all()
        for vm_id, host in zip(vm_ids, current):
            assert (
                cost_model.migration_delta(allocation, traffic, vm_id, host)
                == 0.0
            )

    def test_a_move_onto_the_current_host_writes_nothing(
        self, populated, fast_engine
    ):
        """A wave of one onto the mover's own host is dropped: the
        allocation version, egress, Eq. 2 total and the round cache's
        validity stay bit-identical."""
        allocation, traffic, _ = populated
        cache = fast_engine.round_cache(None)
        cache.refresh()
        vm_id = next(iter(allocation.vm_ids()))
        version = allocation.version
        egress = fast_engine._egress.copy()
        total = fast_engine._total
        assert cache.valid.all()
        deltas = fast_engine.apply_moves(
            fast_engine.dense_indices([vm_id]), [allocation.server_of(vm_id)]
        )
        assert deltas.tolist() == [0.0]
        assert allocation.version == version
        assert np.array_equal(fast_engine._egress, egress)
        assert fast_engine._total == total
        assert cache.valid.all()  # nothing invalidated
        assert fast_engine.in_sync


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
        assert fast_engine.total_cost(allocation, traffic) == (
            fast_engine.total_cost()
        )

    def test_unknown_vm_raises(self, fast_engine):
        with pytest.raises(KeyError):
            fast_engine.dense_indices([10_000_000])
        with pytest.raises(KeyError):
            MigrationEngine(
                CostModel(fast_engine.topology)
            ).decide_and_migrate(fast_engine, 10_000_000)
