"""Tests for the dom0 hypervisor emulation and full testbed deployment.

The deployment drives the *same* S-CORE algorithm as the simulator, but
through wire-encoded tokens and dom0 addressing — these tests pin the two
paths to each other.
"""

import numpy as np
import pytest

from repro import (
    CostModel,
    DCTrafficGenerator,
    HighestLevelFirstPolicy,
    MigrationEngine,
    RoundRobinPolicy,
    SPARSE,
)
from repro.cluster import Cluster, PlacementManager, ServerCapacity
from repro.cluster.placement import place_random
from repro.core.token import Token
from repro.reference import PerHoldScheduler
from repro.testbed import (
    CapacityRequest,
    LocationRequest,
    TestbedDeployment,
)
from repro.topology import CanonicalTree


@pytest.fixture
def deployment():
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=4096, cpu=8.0))
    manager = PlacementManager(cluster)
    vms = manager.create_vms(16, ram_mb=256, cpu=0.25)
    allocation = place_random(cluster, vms, seed=3)
    traffic = DCTrafficGenerator([v.vm_id for v in vms], SPARSE, seed=3).generate()
    engine = MigrationEngine(CostModel(topo))
    return TestbedDeployment(
        allocation, traffic, manager, RoundRobinPolicy(), engine
    )


class TestResponders:
    def test_location_response_names_host_dom0(self, deployment):
        node = deployment.nodes[3]
        request = LocationRequest(
            requester_dom0_ip=deployment.nodes[0].dom0_ip,
            target_vm_ip="10.0.0.5",
        )
        response = node.handle_location_request(request)
        assert response.dom0_ip == deployment.manager.dom0_ip(3)
        assert response.vm_ip == "10.0.0.5"

    def test_capacity_response_reflects_allocation(self, deployment):
        node = deployment.nodes[0]
        request = CapacityRequest(
            requester_dom0_ip=deployment.nodes[1].dom0_ip, ram_mb=256
        )
        response = node.handle_capacity_request(request)
        assert response.free_slots == deployment.allocation.free_slots(0)
        assert response.free_ram_mb == deployment.allocation.free_ram_mb(0)


class TestFlowTables:
    def test_populate_installs_pair_flows(self, deployment):
        deployment.populate_flow_tables(window_s=10.0)
        total_pairs = deployment.traffic.n_pairs
        assert total_pairs > 0
        per_host_flows = sum(
            len(node.flow_table) for node in deployment.nodes.values()
        )
        # Each pair lands in 1 table (colocated) or 2 (split endpoints).
        assert total_pairs <= per_host_flows <= 2 * total_pairs

    def test_flow_rates_recoverable(self, deployment):
        from repro.cluster.manager import vm_ip

        deployment.populate_flow_tables(window_s=10.0)
        u, v, rate = next(iter(deployment.traffic.pairs()))
        host = deployment.allocation.server_of(u)
        table = deployment.nodes[host].flow_table
        assert table.bytes_between(vm_ip(u), vm_ip(v)) == int(rate * 10.0)


class TestTokenRound:
    def test_round_visits_all_vms(self, deployment):
        hops = deployment.run_round()
        assert hops == deployment.allocation.n_vms
        assert len(deployment.decisions) == deployment.allocation.n_vms

    def test_round_reduces_cost(self, deployment):
        model = deployment.cost_model
        before = model.total_cost(deployment.allocation, deployment.traffic)
        deployment.run_round()
        deployment.run_round()
        after = model.total_cost(deployment.allocation, deployment.traffic)
        assert after <= before
        assert deployment.migrations_performed > 0
        deployment.allocation.validate()

    def test_matches_simulator_exactly(self, deployment):
        """Message-passing deployment == in-process scheduler, step for step."""
        sim_allocation = deployment.allocation.copy()
        sim_engine = MigrationEngine(deployment.cost_model)
        # A store binds to one allocation: the twin gets its own copy.
        scheduler = PerHoldScheduler(
            sim_allocation, deployment.traffic.copy(), RoundRobinPolicy(),
            sim_engine,
        )
        # The deployment executes hold by hold, so the apples-to-apples
        # simulator run is the per-hold oracle (wave-batched rounds are
        # pinned against it separately in test_wave_rounds).
        report = scheduler.run(n_iterations=1)

        deployment.run_round()
        assert deployment.allocation.as_dict() == sim_allocation.as_dict()
        performed = [d for d in deployment.decisions if d.migrated]
        simulated = [d for d in report.decisions if d.migrated]
        assert [(d.vm_id, d.target_host) for d in performed] == [
            (d.vm_id, d.target_host) for d in simulated
        ]

    def test_each_hop_carries_what_its_holder_wrote(
        self, deployment, monkeypatch
    ):
        """The wire token is the one its holder received: after HLF's
        first round end, every payload carries the levels ``end_round``
        wrote, which the second round's order was built from."""
        policy = HighestLevelFirstPolicy()
        deployment.policy = policy
        written = []
        end_round = policy.end_round

        def spy_end_round(token, order, fast):
            holder = end_round(token, order, fast)
            written.append(token.levels.copy())
            return holder

        payloads = []
        send_token = deployment.network.send_token

        def spy_send_token(token, dest_dom0_ip):
            payloads.append(token.encode())
            return send_token(token, dest_dom0_ip)

        monkeypatch.setattr(policy, "end_round", spy_end_round)
        monkeypatch.setattr(deployment.network, "send_token", spy_send_token)
        n = deployment.allocation.n_vms
        assert deployment.run_round(n_holds=2 * n) == 2 * n
        assert len(written) == 2 and written[0].any()
        levels = [Token.decode(payload).levels for payload in payloads]
        assert not any(level.any() for level in levels[:n])
        for level in levels[n:]:
            assert np.array_equal(level, written[0])

    def test_rounds_write_through_the_engine(self, deployment):
        deployment.run_round()
        deployment.run_round()
        assert deployment.migrations_performed > 0
        fast = deployment.fast
        assert fast.in_sync
        assert fast.total_cost() == pytest.approx(
            fast.recompute_total_cost(), rel=1e-9
        )

    def test_a_cost_model_on_another_topology_is_refused(self, deployment):
        twin = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
        with pytest.raises(ValueError, match="topology instance"):
            TestbedDeployment(
                deployment.allocation, deployment.traffic.copy(),
                deployment.manager, RoundRobinPolicy(),
                MigrationEngine(CostModel(twin)),
            )

    def test_partial_round(self, deployment):
        hops = deployment.run_round(n_holds=5)
        assert hops == 5
        assert len(deployment.decisions) == 5

    def test_token_bytes_on_wire(self, deployment):
        deployment.run_round()
        expected_entry_bytes = 5 * deployment.allocation.n_vms
        assert deployment.network.bytes_sent >= expected_entry_bytes
