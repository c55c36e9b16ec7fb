"""Tests for the max-min fair throughput allocator."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.sim.fairshare import MaxMinFairAllocator
from repro.sim.network import LinkLoadCalculator, _pair_flow_key
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


def build(n_racks=2, hosts_per_rack=2, capacity=None):
    topo = CanonicalTree(
        n_racks=n_racks, hosts_per_rack=hosts_per_rack,
        tors_per_agg=n_racks, n_cores=1,
        capacity_bps=capacity,
    )
    cluster = Cluster(topo, ServerCapacity(max_vms=8))
    return topo, Allocation(cluster)


class TestBasics:
    def test_uncongested_everyone_satisfied(self):
        topo, allocation = build()
        allocation.add_vm(VM(1, ram_mb=64, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=64, cpu=0.1), 1)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1000.0)  # trivial vs 1 Gb/s
        result = MaxMinFairAllocator(topo).allocate(allocation, tm)
        assert result.mean_satisfaction == pytest.approx(1.0)
        assert result.fully_satisfied_fraction == 1.0
        assert result.bottleneck_links == []

    def test_colocated_flow_always_satisfied(self):
        topo, allocation = build()
        allocation.add_vm(VM(1, ram_mb=64, cpu=0.1), 0)
        allocation.add_vm(VM(2, ram_mb=64, cpu=0.1), 0)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1e12)  # absurd demand, but no links crossed
        result = MaxMinFairAllocator(topo).allocate(allocation, tm)
        assert result.flows[0].satisfaction == 1.0

    def test_single_bottleneck_split_equally(self):
        # 1 Gb/s host link = 125e6 B/s; two flows from host 0 compete.
        topo, allocation = build()
        for vm_id, host in [(1, 0), (2, 1), (3, 0), (4, 1)]:
            allocation.add_vm(VM(vm_id, ram_mb=64, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100e6)
        tm.set_rate(3, 4, 100e6)  # combined 200e6 > 125e6 capacity
        result = MaxMinFairAllocator(topo).allocate(allocation, tm)
        achieved = sorted(f.achieved for f in result.flows)
        assert achieved[0] == pytest.approx(62.5e6, rel=1e-6)
        assert achieved[1] == pytest.approx(62.5e6, rel=1e-6)
        assert len(result.bottleneck_links) >= 1

    def test_max_min_protects_small_flows(self):
        topo, allocation = build()
        for vm_id, host in [(1, 0), (2, 1), (3, 0), (4, 1)]:
            allocation.add_vm(VM(vm_id, ram_mb=64, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1e6)    # small flow
        tm.set_rate(3, 4, 500e6)  # elephant
        result = MaxMinFairAllocator(topo).allocate(allocation, tm)
        small = next(f for f in result.flows if f.demand == 1e6)
        assert small.satisfaction == pytest.approx(1.0)

    def test_empty_traffic(self):
        topo, allocation = build()
        result = MaxMinFairAllocator(topo).allocate(allocation, TrafficMatrix())
        assert result.flows == []
        assert result.mean_satisfaction == 1.0


class TestInvariants:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 8), st.integers(1, 8), st.floats(1e3, 3e8)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_no_link_oversubscribed_no_flow_overfed(self, raw_pairs):
        topo, allocation = build(n_racks=2, hosts_per_rack=2)
        for vm_id in range(1, 9):
            host = (vm_id - 1) % topo.n_hosts
            allocation.add_vm(VM(vm_id, ram_mb=64, cpu=0.1), host)
        tm = TrafficMatrix()
        for u, v, rate in raw_pairs:
            if u != v:
                tm.add_rate(u, v, rate)
        result = MaxMinFairAllocator(topo).allocate(allocation, tm)
        # No flow exceeds its demand.
        for flow in result.flows:
            assert flow.achieved <= flow.demand * (1 + 1e-9)
            assert flow.achieved >= 0
        # No physical link carries more than its capacity.
        carried = {}
        for flow in result.flows:
            path = topo.path_links(
                allocation.server_of(flow.vm_u),
                allocation.server_of(flow.vm_v),
                flow_key=_pair_flow_key(flow.vm_u, flow.vm_v),
            )
            for link in path:
                carried[link] = carried.get(link, 0.0) + flow.achieved
        for link, load in carried.items():
            capacity = topo.links[link].capacity_bps / 8.0
            assert load <= capacity * (1 + 1e-6)

    def test_localization_improves_satisfaction(self):
        """Moving a VM next to its peer frees the shared bottleneck."""
        topo, allocation = build(capacity={1: 1e9, 2: 1e9, 3: 1e9})
        for vm_id, host in [(1, 0), (2, 2), (3, 1), (4, 3)]:
            allocation.add_vm(VM(vm_id, ram_mb=64, cpu=0.1), host)
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 200e6)  # crosses the rack uplink
        tm.set_rate(3, 4, 200e6)  # also crosses it
        allocator = MaxMinFairAllocator(topo)
        before = allocator.allocate(allocation, tm)
        allocation.migrate_many([(2, 1)])  # colocate rack-wise with VM 1
        allocation.migrate_many([(4, 0)])
        after = allocator.allocate(allocation, tm)
        assert after.total_achieved >= before.total_achieved - 1e-6
        assert after.mean_satisfaction >= before.mean_satisfaction
