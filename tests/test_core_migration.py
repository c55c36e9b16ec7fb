"""Tests for the migration decision (Theorem 1 + §V-B5/§V-C feasibility).

Every decision case runs twice: on the fast engine
(``MigrationEngine.decide_and_migrate``) and on the readable oracle
(``repro.reference.evaluate_naive``); the probing helpers are the
oracle's.
"""

import pytest

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.core import CostModel, FastCostEngine, LinkWeights, MigrationEngine
from repro.reference import (
    bandwidth_feasible,
    candidate_hosts,
    evaluate_naive,
    feasible,
    host_egress_rate,
    host_rows,
)
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


def bind(engine, allocation, tm):
    return FastCostEngine(allocation, tm, weights=engine.cost_model.weights)


def decide(engine, allocation, tm, vm_id, path):
    """One Theorem 1 decision, performed when it holds, on ``path``."""
    if path == "engine":
        return engine.decide_and_migrate(bind(engine, allocation, tm), vm_id)
    decision = evaluate_naive(engine, allocation, tm, vm_id)
    if decision.target_host is None:
        return decision
    allocation.migrate_many([(vm_id, decision.target_host)])
    return decision._replace(migrated=True, reason="migrated")


both_paths = pytest.mark.parametrize("path", ["engine", "naive"])


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
        candidates = candidate_hosts(engine, allocation, tm, 1)
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
        assert len(candidate_hosts(engine, allocation, tm, 1)) == 2


class TestFeasibility:
    def test_capacity_infeasible(self):
        topo, cluster, allocation, model = build_env(max_vms=1)
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        assert not feasible(engine, allocation, tm, 1, 4)  # host 4 is full

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
        assert bandwidth_feasible(engine_loose, allocation, tm, 1, 4)
        engine_tight = MigrationEngine(model, bandwidth_threshold=0.5)
        # Budget 500 < 700: rejected.
        assert not bandwidth_feasible(engine_tight, allocation, tm, 1, 4)

    def test_no_threshold_always_feasible(self):
        topo, cluster, allocation, model = build_env(nic_bps=1)
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1e9)
        engine = MigrationEngine(model)
        assert bandwidth_feasible(engine, allocation, tm, 1, 4)

    def test_host_egress_rate(self):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(3, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)  # intra-host: not on the NIC
        tm.set_rate(1, 3, 40)
        tm.set_rate(2, 3, 60)
        assert host_egress_rate(allocation, tm, 0) == 100.0
        assert host_egress_rate(allocation, tm, 4) == 100.0


class TestDecisions:
    @both_paths
    def test_migrates_towards_heavy_peer(self, path):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = decide(engine, allocation, tm, 1, path)
        assert decision.migrated
        assert decision.target_host == 4  # colocate: level 3 -> 0
        assert decision.delta == pytest.approx(100 * 14.0)
        assert allocation.server_of(1) == 4

    @both_paths
    def test_no_peers_no_move(self, path):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        engine = MigrationEngine(model)
        decision = decide(engine, allocation, TrafficMatrix(), 1, path)
        assert not decision.migrated
        assert decision.reason == "no_peers"

    @both_paths
    def test_already_optimal_no_move(self, path):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 0)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = decide(engine, allocation, tm, 1, path)
        assert not decision.migrated
        assert decision.reason == "no_gain"

    @both_paths
    def test_full_cluster_without_a_gaining_target_is_no_gain(self, path):
        """Reasons are gain-first: VM 1 sits with its only peer, so no
        candidate gains, and that decides the reason before any capacity
        probe — every host being full does not make it unplaceable."""
        topo, cluster, allocation, model = build_env(max_vms=2)
        for vm_id in range(1, 2 * topo.n_hosts + 1):
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), (vm_id - 1) // 2)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)  # both on host 0
        engine = MigrationEngine(model)
        decision = decide(engine, allocation, tm, 1, path)
        assert (decision.reason, decision.delta) == ("no_gain", 0.0)
        assert allocation.server_of(1) == 0

    @both_paths
    def test_a_rounding_gain_does_not_make_a_vm_unplaceable(self, path):
        """VM 1's peers sit on host 0 (its own) and host 1 at equal rates,
        so moving to host 1 gains exactly 0.  Under the paper's weights
        the batch's aggregated score of that row is a few ulp above 0;
        the exact per-peer delta decides, and the VM is ``no_gain``."""
        topo, cluster, allocation, _ = build_env(max_vms=2)
        model = CostModel(topo, LinkWeights.paper())
        # VMs 1 and 2 fill host 0, VM 3 and a filler host 1, fillers the rest.
        hosts = [0, 0] + sorted(list(range(1, topo.n_hosts)) * 2)
        for vm_id, host in enumerate(hosts, start=1):
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1.0)
        tm.set_rate(1, 3, 1.0)
        engine = MigrationEngine(model)
        fast = bind(engine, allocation, tm)
        batch = fast.candidate_batch(fast.dense_indices([1]))
        _owner, hosts, deltas, _onto, _row = host_rows(batch)
        assert hosts.tolist() == [1] and deltas[0] > 0  # premise
        assert model.migration_delta(allocation, tm, 1, 1) == 0.0
        decision = decide(engine, allocation, tm, 1, path)
        assert (decision.reason, decision.delta) == ("no_gain", 0.0)

    @both_paths
    def test_full_cluster_with_a_gaining_target_is_unplaceable(self, path):
        """Host 4 (the peer's) and its rack-mate 5 would both gain, but
        every host is full: ``no_feasible_target``, delta 0."""
        topo, cluster, allocation, model = build_env(max_vms=1)
        hosts = [0, 4, 1, 2, 3, 5, 6, 7]  # VM 1 on 0, its peer on 4
        for vm_id, host in enumerate(hosts, start=1):
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = decide(engine, allocation, tm, 1, path)
        assert (decision.reason, decision.delta) == ("no_feasible_target", 0.0)
        assert allocation.server_of(1) == 0

    @both_paths
    def test_migration_cost_blocks_marginal_moves(self, path):
        topo, cluster, allocation, model = build_env()
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1)  # max possible gain = 14
        engine = MigrationEngine(model, migration_cost=20.0)
        decision = decide(engine, allocation, tm, 1, path)
        assert not decision.migrated
        assert allocation.server_of(1) == 0

    @both_paths
    def test_full_target_falls_back_to_rack_mate(self, path):
        topo, cluster, allocation, model = build_env(max_vms=1)
        allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=128, cpu=0.1), 4)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        engine = MigrationEngine(model)
        decision = decide(engine, allocation, tm, 1, path)
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
        fast = bind(engine, allocation, tm)
        for decision in (
            engine.evaluate(fast, 1), evaluate_naive(engine, allocation, tm, 1)
        ):
            assert decision.target_host == 4 and not decision.migrated
        assert allocation.server_of(1) == 0
        assert fast.in_sync

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
        fast = bind(engine, allocation, tm)
        assert engine.evaluate(fast, 1).target_host == 4
        allocation.set_host_capacity(4, max_vms=1)  # VM 2 fills it
        decision = engine.evaluate(fast, 1)
        assert decision == evaluate_naive(engine, allocation, tm, 1)
        assert decision.target_host == 5  # rack-mate of the full host
        assert decision.delta == pytest.approx(100 * (14.0 - 2.0))

    @pytest.mark.parametrize("kwargs", [
        dict(migration_cost=-1),
        dict(bandwidth_threshold=0.0),
        dict(bandwidth_threshold=-0.5),
        dict(bandwidth_threshold=1.5),
        dict(max_candidates=0),
        dict(max_candidates=-2),
    ])
    def test_invalid_engine_params_rejected(self, kwargs):
        topo, cluster, allocation, model = build_env()
        with pytest.raises(ValueError):
            MigrationEngine(model, **kwargs)

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5])
    def test_out_of_range_budget_refused_keeping_the_old_one(self, threshold):
        topo, cluster, allocation, model = build_env()
        engine = MigrationEngine(model, bandwidth_threshold=0.5)
        with pytest.raises(ValueError):
            engine.set_bandwidth_threshold(threshold)
        assert engine.bandwidth_threshold == 0.5

    @both_paths
    def test_budget_change_applies_to_the_next_decision(self, path):
        """Host 4 holds the heavy peer but carries 700 B/s of its own: a
        500 B/s budget sends VM 1 to the peer's rack-mate instead, and
        lifting the budget sends it to the peer again."""
        topo, cluster, allocation, model = build_env(nic_bps=1000)
        for vm_id, host in [(1, 0), (2, 4), (3, 4), (4, 2)]:
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        tm.set_rate(3, 4, 700)
        engine = MigrationEngine(model)
        fast = bind(engine, allocation, tm)

        def evaluate():
            if path == "engine":
                return engine.evaluate(fast, 1)
            return evaluate_naive(engine, allocation, tm, 1)

        assert evaluate().target_host == 4
        engine.set_bandwidth_threshold(0.5)
        squeezed = evaluate()
        assert squeezed.target_host == 5
        assert squeezed.delta == pytest.approx(100 * (14.0 - 2.0))
        engine.set_bandwidth_threshold(None)
        assert evaluate().target_host == 4
        assert allocation.server_of(1) == 0

    @both_paths
    @pytest.mark.parametrize("cap,target", [(1, None), (3, 1), (None, 1)])
    def test_candidate_cap_bounds_the_search(self, path, cap, target):
        """Level-3 peer VM 3 ranks first, but the gain is in joining the
        heavy rack-local peer VM 2 on host 1: a cap that stops before
        host 1 leaves VM 1 where it is."""
        topo, cluster, allocation, model = build_env()
        for vm_id, host in [(1, 0), (2, 1), (3, 4)]:
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1000)
        tm.set_rate(1, 3, 10)
        engine = MigrationEngine(model, max_candidates=cap)
        decision = decide(engine, allocation, tm, 1, path)
        assert decision.target_host == target
        assert decision.migrated == (target is not None)
        assert allocation.server_of(1) == (0 if target is None else target)
        if target is not None:
            assert decision.delta == pytest.approx(1000 * 2.0)
