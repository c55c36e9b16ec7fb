"""Tests for the migration engine (Theorem 1 + §V-B5/§V-C feasibility)."""

import pytest

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.core import CostModel, FastCostEngine, LinkWeights, MigrationEngine
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


def build_env(max_vms=4, nic_bps=1e9):
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    cluster = Cluster(
        topo, ServerCapacity(max_vms=max_vms, ram_mb=4096, cpu=8.0, nic_bps=nic_bps)
    )
    allocation = Allocation(cluster)
    model = CostModel(topo, LinkWeights(weights=(1.0, 2.0, 4.0)))
    return topo, cluster, allocation, model


class TestCandidateHosts:
    def test_peers_ranked_by_level_then_rate(self):
        topo, cluster, allocation, model = build_env()
        for vm_id, host in [(1, 0), (2, 1), (3, 4), (4, 6)]:
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)  # level 1 peer, heavy
        tm.set_rate(1, 3, 10)   # level 3 peer, light
        tm.set_rate(1, 4, 20)   # level 3 peer, heavier
        engine = MigrationEngine(model)
        candidates = engine.candidate_hosts(allocation, tm, 1)
        # Level-3 peers come first, heavier first: host 6 (VM 4), then its
        # rack-mate 7, then host 4 (VM 3) and rack-mate 5, then the level-1
        # peer's host 1.
        assert candidates[:2] == [6, 7]
        assert candidates[2:4] == [4, 5]
        assert 1 in candidates
        assert 0 not in candidates  # current host excluded

    def test_max_candidates_cap(self):
        topo, cluster, allocation, model = build_env()
        for vm_id, host in [(1, 0), (2, 2), (3, 4), (4, 6)]:
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
        tm = TrafficMatrix()
        for peer in (2, 3, 4):
            tm.set_rate(1, peer, 10)
        engine = MigrationEngine(model, max_candidates=2)
        assert len(engine.candidate_hosts(allocation, tm, 1)) == 2


class TestFeasibility:
    def test_capacity_infeasible(self):
        topo, cluster, allocation, model = build_env(max_vms=1)
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        assert not engine.feasible(allocation, tm, 1, 4)  # host 4 is full

    def test_bandwidth_threshold(self):
        topo, cluster, allocation, model = build_env(nic_bps=1000)
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        allocation.add_vm(VM(3, ram_mb=128, cpu=0.1), 5)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 600)  # becomes intra-host if 1 moves to host 4
        tm.set_rate(2, 3, 700)  # stays on host 4's NIC
        engine_loose = MigrationEngine(model, bandwidth_threshold=1.0)
        # After the move host 4 carries only the 700 B/s to VM 3: feasible.
        assert engine_loose.bandwidth_feasible(allocation, tm, 1, 4)
        engine_tight = MigrationEngine(model, bandwidth_threshold=0.5)
        # Budget 500 < 700: rejected.
        assert not engine_tight.bandwidth_feasible(allocation, tm, 1, 4)

    def test_no_threshold_always_feasible(self):
        topo, cluster, allocation, model = build_env(nic_bps=1)
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1e9)
        engine = MigrationEngine(model)
        assert engine.bandwidth_feasible(allocation, tm, 1, 4)

    def test_host_egress_rate(self):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(3, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)  # intra-host: not on the NIC
        tm.set_rate(1, 3, 40)
        tm.set_rate(2, 3, 60)
        engine = MigrationEngine(model)
        assert engine.host_egress_rate(allocation, tm, 0) == 100.0
        assert engine.host_egress_rate(allocation, tm, 4) == 100.0


class TestDecisions:
    def test_migrates_towards_heavy_peer(self):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = engine.decide_and_migrate(allocation, tm, 1)
        assert decision.migrated
        assert decision.target_host == 4  # colocate: level 3 -> 0
        assert decision.delta == pytest.approx(100 * 14.0)
        assert allocation.server_of(1) == 4

    def test_no_peers_no_move(self):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        engine = MigrationEngine(model)
        decision = engine.decide_and_migrate(allocation, TrafficMatrix(), 1)
        assert not decision.migrated
        assert decision.reason == "no_peers"

    def test_already_optimal_no_move(self):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 0)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = engine.decide_and_migrate(allocation, tm, 1)
        assert not decision.migrated
        assert decision.reason == "no_gain"

    def test_migration_cost_blocks_marginal_moves(self):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1)  # max possible gain = 14
        engine = MigrationEngine(model, migration_cost=20.0)
        decision = engine.decide_and_migrate(allocation, tm, 1)
        assert not decision.migrated
        assert allocation.server_of(1) == 0

    def test_full_target_falls_back_to_rack_mate(self):
        topo, cluster, allocation, model = build_env(max_vms=1)
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = engine.decide_and_migrate(allocation, tm, 1)
        assert decision.migrated
        assert decision.target_host == 5  # rack-mate of host 4: level 3 -> 1
        assert decision.delta == pytest.approx(100 * (14.0 - 2.0))

    def test_evaluate_does_not_mutate(self):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = engine.evaluate(allocation, tm, 1)
        assert decision.target_host == 4 and not decision.migrated
        assert allocation.server_of(1) == 0

    def test_batch_decisions_read_the_allocations_live_capacity(self):
        """A resize lands in the allocation and its cluster only; the
        engine's next decision sees it without a rebuild and matches the
        naive loop's."""
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        engine.attach_fastcost(
            FastCostEngine(allocation, tm, weights=model.weights)
        )
        assert engine.evaluate(allocation, tm, 1).target_host == 4
        allocation.set_host_capacity(4, max_vms=1)  # VM 2 fills it
        decision = engine.evaluate(allocation, tm, 1)
        assert decision == MigrationEngine(model).evaluate(allocation, tm, 1)
        assert decision.target_host == 5  # rack-mate of the full host
        assert decision.delta == pytest.approx(100 * (14.0 - 2.0))

    def test_invalid_engine_params_rejected(self):
        topo, cluster, allocation, model = build_env()
        with pytest.raises(ValueError):
            MigrationEngine(model, migration_cost=-1)
        with pytest.raises(ValueError):
            MigrationEngine(model, bandwidth_threshold=0.0)
        with pytest.raises(ValueError):
            MigrationEngine(model, max_candidates=0)
