"""Tests for per-link load accounting."""

import pytest

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.reference import loads_reference, vm_contributions_reference
from repro.sim.network import LinkLoadCalculator, _pair_flow_key
from repro.topology import CanonicalTree
from repro.topology.base import host_node, tor_node
from repro.topology.links import canonical_link_id
from repro.traffic import TrafficMatrix


@pytest.fixture
def env():
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=2)
    cluster = Cluster(topo, ServerCapacity(max_vms=4))
    allocation = Allocation(cluster)
    for vm_id, host in [(1, 0), (2, 1), (3, 4)]:
        allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
    return topo, allocation


class TestLoads:
    def test_level1_pair_loads_two_links(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)  # hosts 0 and 1, same rack
        calc = LinkLoadCalculator(topo)
        loads = calc.loads(allocation, tm)
        assert len(loads) == 2
        assert all(rate == 100 for rate in loads.values())
        link = canonical_link_id(host_node(0), tor_node(0))
        assert loads[link] == 100

    def test_cross_agg_pair_loads_six_links(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 50)  # host 0 to host 4: level 3
        calc = LinkLoadCalculator(topo)
        loads = calc.loads(allocation, tm)
        assert len(loads) == 6
        levels = sorted(topo.link_level(link) for link in loads)
        assert levels == [1, 1, 2, 2, 3, 3]

    def test_colocated_traffic_loads_nothing(self, env):
        topo, allocation = env
        allocation.add_vm(VM(4, ram_mb=128, cpu=0.1), 0)
        tm = TrafficMatrix()
        tm.set_rate(1, 4, 100)
        calc = LinkLoadCalculator(topo)
        assert calc.loads(allocation, tm) == {}

    def test_loads_accumulate(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        tm.set_rate(2, 3, 10)
        calc = LinkLoadCalculator(topo)
        loads = calc.loads(allocation, tm)
        host1_link = canonical_link_id(host_node(1), tor_node(0))
        assert loads[host1_link] == 110  # both pairs touch host 1's access link


class TestUtilizations:
    def test_every_link_reported(self, env):
        topo, allocation = env
        calc = LinkLoadCalculator(topo)
        utils = calc.utilizations(allocation, TrafficMatrix())
        assert set(utils) == set(topo.links)
        assert all(value == 0.0 for value in utils.values())

    def test_bits_vs_capacity(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 12.5e6)  # 12.5 MB/s = 100 Mb/s over a 1 Gb/s link
        calc = LinkLoadCalculator(topo)
        utils = calc.utilizations(allocation, tm)
        link = canonical_link_id(host_node(0), tor_node(0))
        assert utils[link] == pytest.approx(0.1)

    def test_by_level_grouping(self, env):
        topo, allocation = env
        calc = LinkLoadCalculator(topo)
        by_level = calc.utilizations_by_level(allocation, TrafficMatrix())
        assert set(by_level) == {1, 2, 3}
        assert len(by_level[1]) == topo.n_hosts

    def test_max_utilization(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 12.5e6)
        calc = LinkLoadCalculator(topo)
        assert calc.max_utilization(allocation, tm) == pytest.approx(0.1)


class TestVectorizedLoadsMatchReference:
    """Differential: numpy path enumeration == the per-pair routing loop."""

    @pytest.mark.parametrize("topo_name", ["canonical", "fattree"])
    @pytest.mark.parametrize("flowlets", [1, 4])
    def test_loads_agree_on_randomized_scenarios(self, topo_name, flowlets):
        import numpy as np

        from repro import (
            Cluster as C,
            DCTrafficGenerator,
            PlacementManager,
            ServerCapacity as SC,
            place_random,
        )
        from repro.topology import FatTree

        seed = 17 + flowlets
        topo = (
            CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)
            if topo_name == "canonical"
            else FatTree(k=4)
        )
        cluster = C(topo, SC(max_vms=4, ram_mb=4096, cpu=8.0))
        manager = PlacementManager(cluster)
        vms = manager.create_vms(
            int(cluster.total_vm_slots * 0.8), ram_mb=512, cpu=0.5
        )
        allocation = place_random(cluster, vms, seed=seed)
        traffic = DCTrafficGenerator(
            [vm.vm_id for vm in vms], seed=seed
        ).generate()
        calc = LinkLoadCalculator(topo, flowlets=flowlets)
        fast = calc.loads(allocation, traffic)
        reference = loads_reference(calc, allocation, traffic)
        assert set(fast) == set(reference)
        for link, load in reference.items():
            assert fast[link] == pytest.approx(load, rel=1e-9, abs=1e-9)

    def test_empty_traffic_yields_no_loads(self, env):
        topo, allocation = env
        assert LinkLoadCalculator(topo).loads(allocation, TrafficMatrix()) == {}

    def test_vectorized_fnv_matches_scalar(self):
        import numpy as np

        from repro.util.rng import stable_hash32, stable_hash32_of_ints

        keys = np.array(
            [0, 1, 9, 10, 42, 12345, 0xFFFFFFFF, 0xFFFFFFFF + 16 * 0x9E3779B9],
            dtype=np.uint64,
        )
        hashed = stable_hash32_of_ints(keys)
        for key, value in zip(keys.tolist(), hashed.tolist()):
            assert value == stable_hash32(str(key))


class TestContributions:
    def test_vm_contributions_on_link(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        tm.set_rate(1, 3, 40)
        calc = LinkLoadCalculator(topo)
        host0_link = canonical_link_id(host_node(0), tor_node(0))
        contributions = calc.vm_contributions_many(
            allocation, tm, [host0_link]
        )[host0_link]
        assert contributions[1] == 140  # VM 1 sends both pairs over its access link
        assert contributions[2] == 100
        assert contributions[3] == 40

    def test_flow_key_stability(self):
        assert _pair_flow_key(3, 9) == _pair_flow_key(9, 3)
        assert _pair_flow_key(1, 2) != _pair_flow_key(1, 3)


class TestContributionsDifferential:
    """Batched vm_contributions_many == the retained per-pair reference."""

    def _random_setup(self, seed, fattree=False):
        import numpy as np

        from repro.topology.fattree import FatTree

        topo = (
            FatTree(k=4)
            if fattree
            else CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)
        )
        cluster = Cluster(topo, ServerCapacity(max_vms=4))
        allocation = Allocation(cluster)
        rng = np.random.default_rng(seed)
        n_vms = 40
        for vm_id in range(n_vms):
            while True:
                host = int(rng.integers(0, topo.n_hosts))
                vm = VM(vm_id, ram_mb=128, cpu=0.1)
                if allocation.can_host(host, vm):
                    allocation.add_vm(vm, host)
                    break
        tm = TrafficMatrix()
        for _ in range(60):
            u, v = rng.integers(0, n_vms, size=2)
            if u != v:
                tm.set_rate(int(u), int(v), float(rng.integers(1, 10_000)))
        return topo, allocation, tm

    @pytest.mark.parametrize("fattree", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_every_link(self, seed, fattree):
        topo, allocation, tm = self._random_setup(seed, fattree)
        calc = LinkLoadCalculator(topo)
        batched = calc.vm_contributions_many(allocation, tm, list(topo.links))
        for link_id in topo.links:
            want = vm_contributions_reference(calc, allocation, tm, link_id)
            got = batched[link_id]
            assert set(got) == set(want)
            for vm_id, rate in want.items():
                assert got[vm_id] == pytest.approx(rate, rel=1e-12)

    def test_unknown_link_yields_empty(self, env):
        topo, allocation = env
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        calc = LinkLoadCalculator(topo)
        bogus = canonical_link_id(host_node(0), tor_node(3))
        assert calc.vm_contributions_many(allocation, tm, [bogus]) == {bogus: {}}
