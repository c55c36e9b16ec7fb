"""Tests for the energy model and energy-derived link weights."""

import pytest

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.sim.energy import EnergyModel, energy_link_weights
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


@pytest.fixture
def env():
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    cluster = Cluster(topo, ServerCapacity(max_vms=4))
    allocation = Allocation(cluster)
    for vm_id, host in [(1, 0), (2, 4), (3, 1)]:
        allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
    return topo, allocation


class TestEnergyLinkWeights:
    def test_strictly_increasing(self):
        weights = energy_link_weights()
        assert weights.weights[0] == 1.0
        assert weights.weights[0] < weights.weights[1] < weights.weights[2]

    def test_usable_in_cost_model(self, env):
        topo, allocation = env
        model = CostModel(topo, energy_link_weights())
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        assert model.total_cost(allocation, tm) > 0

    def test_reference_rate_validated(self):
        with pytest.raises(ValueError):
            energy_link_weights(reference_rate_bps=0)


class TestNetworkPower:
    def test_idle_network_draws_nothing_when_sleeping(self, env):
        topo, allocation = env
        model = EnergyModel()
        assert model.network_power_w(topo, allocation, TrafficMatrix()) == 0.0

    def test_idle_network_draws_floor_without_sleep(self, env):
        topo, allocation = env
        model = EnergyModel()
        power = model.network_power_w(
            topo, allocation, TrafficMatrix(), sleep_idle_links=False
        )
        assert power > 0

    def test_localization_saves_energy(self, env):
        """Moving a cross-core pair into one rack powers the core down."""
        topo, allocation = env
        model = EnergyModel()
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1e6)  # host 0 <-> host 4: crosses the core
        spread = model.network_power_w(topo, allocation, tm)
        allocation.migrate_many([(2, 1)])  # now same rack as VM 1
        local = model.network_power_w(topo, allocation, tm)
        assert local < spread

    def test_sleepable_links_accounting(self, env):
        topo, allocation = env
        model = EnergyModel()
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 1e6)  # same rack: levels 2,3 stay asleep
        sleepable = model.sleepable_links(topo, allocation, tm)
        assert sleepable[2] == len(topo.links_at_level(2))
        assert sleepable[3] == len(topo.links_at_level(3))
        assert sleepable[1] == len(topo.links_at_level(1)) - 2

    def test_custom_power_profile(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1e6)
        cheap = EnergyModel(dynamic_w={3: 1.0}, idle_w={3: 1.0})
        dear = EnergyModel()
        assert cheap.network_power_w(topo, allocation, tm) < dear.network_power_w(
            topo, allocation, tm
        )


class TestEnergyObjectiveEndToEnd:
    def test_score_reduces_network_power(self):
        """Running S-CORE with energy weights cuts modelled network power."""
        from repro.core import MigrationEngine, RoundRobinPolicy, SCOREScheduler
        from repro.cluster import PlacementManager
        from repro.cluster.placement import place_random
        from repro.traffic import DCTrafficGenerator, SPARSE

        topo = CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)
        cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=4096, cpu=8.0))
        manager = PlacementManager(cluster)
        vms = manager.create_vms(96, ram_mb=256, cpu=0.25)
        allocation = place_random(cluster, vms, seed=13)
        traffic = DCTrafficGenerator(
            [v.vm_id for v in vms], SPARSE, seed=13
        ).generate()
        energy = EnergyModel()
        before = energy.network_power_w(topo, allocation, traffic)
        cost_model = CostModel(topo, energy_link_weights())
        SCOREScheduler(
            allocation, traffic, RoundRobinPolicy(), MigrationEngine(cost_model)
        ).run(n_iterations=3)
        after = energy.network_power_w(topo, allocation, traffic)
        assert after < before
