"""Tests for link weights and the communication-cost model (Eq. 1-2)."""

import math

import pytest

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.core import CostModel, LinkWeights
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


class TestLinkWeights:
    def test_paper_values(self):
        w = LinkWeights.paper()
        assert w.weight(1) == pytest.approx(1.0)
        assert w.weight(2) == pytest.approx(math.e)
        assert w.weight(3) == pytest.approx(math.e**3)

    def test_exponential(self):
        w = LinkWeights.exponential(3, base=2.0)
        assert w.weights == (1.0, 2.0, 4.0)

    def test_linear(self):
        w = LinkWeights.linear(3, step=2.0)
        assert w.weights == (2.0, 4.0, 6.0)

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            LinkWeights(weights=(1.0, 1.0, 2.0))

    def test_positive_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            LinkWeights(weights=(0.0, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LinkWeights(weights=())

    def test_path_weight_level0_free(self):
        assert LinkWeights.paper().path_weight(0) == 0.0

    def test_path_weight_accumulates(self):
        w = LinkWeights(weights=(1.0, 2.0, 4.0))
        assert w.path_weight(1) == 2.0  # 2 * c1
        assert w.path_weight(2) == 6.0  # 2 * (c1 + c2)
        assert w.path_weight(3) == 14.0

    def test_level_bounds_checked(self):
        w = LinkWeights(weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            w.weight(3)
        with pytest.raises(ValueError):
            w.path_weight(3)


@pytest.fixture
def setup():
    """2 racks x 2 hosts sharing one agg + 2 more racks on another agg."""
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=4096, cpu=8.0))
    allocation = Allocation(cluster)
    for vm_id, host in [(1, 0), (2, 0), (3, 1), (4, 2), (5, 4)]:
        allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
    model = CostModel(topo, LinkWeights(weights=(1.0, 2.0, 4.0)))
    return allocation, model


class TestCostEquations:
    def test_pair_cost_by_level(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 10)  # colocated: level 0
        assert model.total_cost(allocation, tm) == 0.0
        tm.set_rate(1, 3, 10)  # same rack: level 1, path weight 2
        assert model.total_cost(allocation, tm) == 20.0
        tm.set_rate(1, 4, 10)  # same agg: level 2, path weight 6
        assert model.total_cost(allocation, tm) == 80.0
        tm.set_rate(1, 5, 10)  # cross agg: level 3, path weight 14
        assert model.total_cost(allocation, tm) == 220.0

    def test_eq1_eq2_consistency(self, setup):
        """Eq. 2 equals half the sum of Eq. 1 over all VMs."""
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 10)
        tm.set_rate(1, 4, 5)
        tm.set_rate(3, 5, 2)
        per_vm = sum(
            model.vm_cost(allocation, tm, u) for u in [1, 2, 3, 4, 5]
        )
        assert model.total_cost(allocation, tm) == pytest.approx(per_vm / 2)

    def test_vm_cost_counts_both_directions_once(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 10)  # level 1
        assert model.vm_cost(allocation, tm, 1) == 20.0
        assert model.vm_cost(allocation, tm, 3) == 20.0

    def test_highest_level(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1)
        assert model.highest_level(allocation, tm, 1) == 0
        tm.set_rate(1, 3, 1)
        assert model.highest_level(allocation, tm, 1) == 1
        tm.set_rate(1, 5, 1)
        assert model.highest_level(allocation, tm, 1) == 3
        assert model.highest_level(allocation, tm, 4) == 0  # no peers

    def test_weights_must_cover_topology(self):
        topo = CanonicalTree(n_racks=2, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
        with pytest.raises(ValueError, match="levels"):
            CostModel(topo, LinkWeights(weights=(1.0, 2.0)))


class TestMigrationDelta:
    def test_delta_matches_global_recompute(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 10)
        tm.set_rate(1, 5, 4)
        tm.set_rate(3, 4, 2)
        before = model.total_cost(allocation, tm)
        for target in range(allocation.cluster.n_servers):
            delta = model.migration_delta(allocation, tm, 1, target)
            trial = allocation.copy()
            trial.migrate_many([(1, target)])
            after = model.total_cost(trial, tm)
            assert before - after == pytest.approx(delta), f"target={target}"

    def test_delta_to_current_host_zero(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 10)
        assert model.migration_delta(allocation, tm, 1, 0) == 0.0

    def test_should_migrate_threshold(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 5, 10)  # level 3 from host 0; colocating onto host 4 saves 140
        assert model.should_migrate(allocation, tm, 1, 4, migration_cost=0)
        assert model.should_migrate(allocation, tm, 1, 4, migration_cost=139)
        assert not model.should_migrate(allocation, tm, 1, 4, migration_cost=140)

    def test_negative_migration_cost_rejected(self, setup):
        allocation, model = setup
        with pytest.raises(ValueError):
            model.should_migrate(allocation, TrafficMatrix(), 1, 2, migration_cost=-1)


class TestBreakdowns:
    def test_cost_by_level_sums_to_total(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 3)
        tm.set_rate(1, 3, 10)
        tm.set_rate(1, 4, 5)
        tm.set_rate(1, 5, 2)
        breakdown = model.cost_by_level(allocation, tm)
        assert sum(breakdown.values()) == pytest.approx(
            model.total_cost(allocation, tm)
        )
        assert breakdown[0] == 0.0  # colocated traffic is free

    def test_traffic_by_level_accounts_all_rate(self, setup):
        allocation, model = setup
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 3)
        tm.set_rate(1, 5, 2)
        by_level = model.traffic_by_level(allocation, tm)
        assert sum(by_level.values()) == pytest.approx(tm.total_rate())
        assert by_level[0] == 3
        assert by_level[3] == 2
