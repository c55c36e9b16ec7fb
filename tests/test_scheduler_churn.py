"""Tests for VM arrival/departure during S-CORE operation (tenant churn)."""

import numpy as np
import pytest

from repro import (
    CostModel,
    HighestLevelFirstPolicy,
    MigrationEngine,
    RoundRobinPolicy,
    SCOREScheduler,
    VM,
    place_arrivals,
)
from repro.cluster import CapacityError, Cluster, ServerCapacity
from repro.cluster.allocation import Allocation
from repro.sim.eventqueue import EventQueueRunner, Retirement
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


@pytest.fixture
def scheduler_env():
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=4096, cpu=8.0))
    allocation = Allocation(cluster)
    for vm_id, host in [(1, 0), (2, 4), (3, 6)]:
        allocation.add_vm(VM(vm_id, ram_mb=256, cpu=0.25), host)
    traffic = TrafficMatrix()
    traffic.set_rate(1, 2, 100)
    traffic.set_rate(2, 3, 10)
    engine = MigrationEngine(CostModel(topo))
    scheduler = SCOREScheduler(allocation, traffic, RoundRobinPolicy(), engine)
    return scheduler, allocation, traffic


class TestAdmission:
    def test_admitted_vm_joins_token(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        scheduler.admit_vms([VM(4, ram_mb=256, cpu=0.25)], [1])
        assert 4 in scheduler.token
        assert allocation.server_of(4) == 1
        report = scheduler.run(n_iterations=1)
        assert report.iterations[0].visits == 4

    def test_admitted_vm_gets_optimized(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        scheduler.admit_vms([VM(4, ram_mb=256, cpu=0.25)], [7])
        traffic.set_rate(4, 1, 500)  # heavy traffic to VM 1 on host 0
        scheduler.run(n_iterations=2)
        assert allocation.level_between(4, 1) == 0

    def test_admission_respects_capacity(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        for vm_id in (10, 11, 12):
            scheduler.admit_vms([VM(vm_id, ram_mb=256, cpu=0.25)], [0])
        from repro.cluster.allocation import CapacityError

        with pytest.raises(CapacityError):
            scheduler.admit_vms([VM(13, ram_mb=256, cpu=0.25)], [0])
        assert 13 not in scheduler.token


class TestRetirement:
    def test_retired_vm_leaves_everything(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        scheduler.retire_vms([2])
        assert 2 not in scheduler.token
        assert 2 not in allocation
        assert traffic.peers_of(2) == frozenset()
        assert traffic.rate(1, 2) == 0.0

    def test_run_after_retirement(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        scheduler.retire_vms([2])
        report = scheduler.run(n_iterations=1)
        assert report.iterations[0].visits == 2
        allocation.validate()

    def test_churn_sequence_keeps_costs_consistent(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        model = scheduler.cost_model
        scheduler.run(n_iterations=1)
        scheduler.retire_vms([3])
        scheduler.admit_vms([VM(5, ram_mb=256, cpu=0.25)], [6])
        traffic.set_rate(5, 1, 50)
        report = scheduler.run(n_iterations=2)
        assert report.final_cost == pytest.approx(
            model.total_cost(allocation, traffic), rel=1e-9
        )
        allocation.validate()


class TestTokenColumn:
    def test_the_token_circulates_the_allocations_id_column(
        self, scheduler_env
    ):
        """One id column, so a snapshot pickles it once; kept VMs keep
        their level across a batch and arrivals start at level 0."""
        scheduler, allocation, traffic = scheduler_env
        token = scheduler.token

        def shared():
            return np.shares_memory(token.ids, allocation.columns()[0])

        assert shared()
        token.set_levels([1, 3], [2, 1])
        scheduler.admit_vms(
            [VM(4, ram_mb=256, cpu=0.25), VM(9, ram_mb=256, cpu=0.25)], [1, 5]
        )
        assert shared() and token.vm_ids == (1, 2, 3, 4, 9)
        assert token.levels.tolist() == [2, 0, 1, 0, 0]
        scheduler.retire_vms([2, 9])
        assert shared() and token.vm_ids == (1, 3, 4)
        assert token.levels.tolist() == [2, 1, 0]


class TestChurnEdges:
    """The awkward cases: token holders leaving, pending movers vanishing,
    arrivals into full racks, and batch atomicity."""

    def test_retire_the_token_holder(self, scheduler_env):
        """Removing the VM that would hold the token next keeps the loop
        sound: circulation falls to its cyclic successor."""
        scheduler, allocation, traffic = scheduler_env
        holder = scheduler.token.lowest_id
        assert holder == 1
        scheduler.retire_vms([1])
        assert 1 not in scheduler.token
        report = scheduler.run(n_iterations=1)
        assert report.iterations[0].visits == 2
        assert {d.vm_id for d in report.decisions} == {2, 3}
        allocation.validate()

    def test_retire_vm_with_pending_beneficial_move(self, scheduler_env):
        """A VM whose next hold *would* migrate disappears between rounds:
        its pending wave entry must die with it, and its peers' candidate
        state must not dangle."""
        scheduler, allocation, traffic = scheduler_env
        # VM 1 (host 0) <-> VM 2 (host 4) is the heavy pair; a run would
        # migrate one toward the other.  Confirm the pending gain, then
        # retire the mover before the round happens.
        decision = scheduler._engine.evaluate(scheduler.fastcost, 2)
        assert decision.target_host is not None
        scheduler.retire_vms([2])
        report = scheduler.run(n_iterations=2)
        assert all(d.vm_id != 2 for d in report.decisions)
        assert report.final_cost == pytest.approx(
            scheduler.cost_model.total_cost(allocation, traffic), rel=1e-9
        )
        allocation.validate()

    @pytest.mark.parametrize("vm_ids,left", [
        ((2, 2), [1, 3]),
        ((3, 2, 3, 2), [1]),
        ((2, 9, 2), [1, 3]),
        ((1, 1, 1, 2), [3]),
    ])
    def test_retirement_event_retires_each_listed_id_once(
        self, scheduler_env, vm_ids, left
    ):
        """Repeats and ids that never lived are skipped; every other
        listed id leaves exactly once."""
        scheduler, allocation, traffic = scheduler_env
        runner = EventQueueRunner(scheduler)
        runner.schedule(0.0, Retirement(vm_ids=vm_ids))
        assert runner.pump(0.0) is True
        assert sorted(scheduler.token.vm_ids) == left
        assert sorted(allocation.vm_ids()) == left
        assert scheduler.fastcost.in_sync

    def test_retire_all_vms_rejected(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        with pytest.raises(ValueError, match="token needs a holder"):
            scheduler.retire_vms([1, 2, 3])
        # Nothing was mutated by the rejected batch.
        assert sorted(scheduler.token.vm_ids) == [1, 2, 3]
        assert 1 in allocation and 2 in allocation and 3 in allocation

    def test_admit_batch_atomic_on_capacity_failure(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        newcomers = [VM(20 + i, ram_mb=256, cpu=0.25) for i in range(5)]
        with pytest.raises(CapacityError):
            # Host 0 has 3 free slots (holds VM 1 of 4); 5 arrivals exceed it.
            scheduler.admit_vms(newcomers, [0] * 5)
        assert all(vm.vm_id not in allocation for vm in newcomers)
        assert all(vm.vm_id not in scheduler.token for vm in newcomers)
        allocation.validate()

    def test_arrivals_spill_out_of_a_full_rack(self, scheduler_env):
        """place_arrivals fills the preferred rack, then spills to its pod,
        then anywhere — modelling arrivals aimed at a hot rack."""
        scheduler, allocation, traffic = scheduler_env
        topo = allocation.topology
        # Fill rack 0 (hosts 0, 1) completely.
        filler = []
        for host in topo.hosts_in_rack(0):
            for i in range(allocation.free_slots(host)):
                vm = VM(100 + len(filler), ram_mb=256, cpu=0.25)
                allocation.add_vm(vm, host)
                filler.append(vm)
        assert all(
            allocation.free_slots(h) == 0 for h in topo.hosts_in_rack(0)
        )
        arrivals = [VM(200, ram_mb=256, cpu=0.25), VM(201, ram_mb=256, cpu=0.25)]
        hosts = place_arrivals(allocation, arrivals, preferred_rack=0)
        # Spilled out of rack 0 but stayed in its pod (racks 0-1 share
        # the first aggregation domain on this topology).
        pod0 = topo.pod_of(topo.hosts_in_rack(0)[0])
        for host in hosts:
            assert topo.rack_of(host) != 0
            assert topo.pod_of(host) == pod0

    def test_spill_raises_when_cluster_is_full(self, scheduler_env):
        scheduler, allocation, traffic = scheduler_env
        filler_id = 300
        for host in range(allocation.cluster.n_servers):
            while allocation.free_slots(host) > 0:
                allocation.add_vm(VM(filler_id, ram_mb=256, cpu=0.25), host)
                filler_id += 1
        with pytest.raises(CapacityError):
            place_arrivals(
                allocation, [VM(999, ram_mb=256, cpu=0.25)], preferred_rack=0
            )

    def test_hlf_policy_survives_churn_between_rounds(self, scheduler_env):
        """HLF's token buckets rebuild cleanly when churn mutates the
        token between batched rounds."""
        _, allocation, traffic = scheduler_env
        engine = MigrationEngine(CostModel(allocation.topology))
        scheduler = SCOREScheduler(
            allocation, traffic, HighestLevelFirstPolicy(), engine
        )
        scheduler.run(n_iterations=1)
        scheduler.admit_vms([VM(7, ram_mb=256, cpu=0.25)], [5])
        traffic.set_rate(7, 3, 250)
        scheduler.retire_vms([1])
        report = scheduler.run(n_iterations=2)
        assert report.final_cost == pytest.approx(
            scheduler.cost_model.total_cost(allocation, traffic), rel=1e-9
        )
        allocation.validate()


class TestDrain:
    def test_each_vm_takes_the_first_fit_in_locality_order(
        self, scheduler_env
    ):
        scheduler, allocation, _ = scheduler_env
        scheduler.admit_vms(
            [VM(v, ram_mb=256, cpu=0.25) for v in (10, 11, 12, 13)],
            [5, 5, 5, 5],
        )
        # Host 5, the rack mate, is full: VM 2 spills to its pod's other
        # rack (host 6), not to the lower-numbered hosts of the other pod.
        assert scheduler.drain_hosts([4]) == [(2, 6)]
        assert allocation.server_of(2) == 6
        fast = scheduler.fastcost
        assert fast.in_sync
        assert fast.total_cost() == pytest.approx(
            fast.recompute_total_cost(), rel=1e-12
        )

    def test_a_drain_with_nowhere_to_go_raises(self, scheduler_env):
        scheduler, allocation, _ = scheduler_env
        with pytest.raises(CapacityError, match="drain failed"):
            scheduler.drain_hosts(range(8))
        assert allocation.server_of(1) == 0
