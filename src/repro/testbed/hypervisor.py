"""dom0 hypervisor node and a full testbed deployment (paper §V-B).

:class:`HypervisorNode` emulates what runs in dom0: the flow table, the
location/capacity responders, and the token-hold decision procedure made on
behalf of locally hosted VMs.  :class:`TestbedDeployment` wires one node
per host to a :class:`repro.testbed.tokenserver.TokenNetwork` and drives a
whole distributed S-CORE round purely through message passing — the same
algorithm the simulator runs, but exercised through the §V-B implementation
path (wire-encoded tokens, dom0 addressing, capacity probes).  The token
visits the VMs in the policy's round order, fixed at round start; a
regenerated token therefore does not change a round's order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.manager import PlacementManager, vm_ip
from repro.core.migration import MigrationDecision, MigrationEngine
from repro.core.policies import TokenPolicy
from repro.core.token import Token
from repro.testbed.flowtable import FlowKey, FlowTable
from repro.testbed.tokenserver import (
    CapacityRequest,
    CapacityResponse,
    LocationRequest,
    LocationResponse,
    TokenLostError,
    TokenNetwork,
    TokenServer,
)
from repro.traffic.matrix import TrafficMatrix


class HypervisorNode:
    """One physical host's dom0."""

    def __init__(self, host: int, deployment: "TestbedDeployment") -> None:
        self._host = host
        self._deployment = deployment
        self._dom0_ip = deployment.manager.dom0_ip(host)
        self.flow_table = FlowTable()

    @property
    def host(self) -> int:
        """Topology host index."""
        return self._host

    @property
    def dom0_ip(self) -> str:
        """This node's control-plane address."""
        return self._dom0_ip

    def local_vm_ids(self) -> List[int]:
        """VMs currently hosted here (ascending ID)."""
        return sorted(self._deployment.allocation.vms_on(self._host))

    # -- §V-B4 / §V-B5 responders --------------------------------------------

    def handle_location_request(self, request: LocationRequest) -> LocationResponse:
        """Answer: which dom0 hosts the requested VM? (NAT-redirected)."""
        return LocationResponse(
            vm_ip=request.target_vm_ip,
            dom0_ip=self._dom0_ip,
        )

    def handle_capacity_request(self, request: CapacityRequest) -> CapacityResponse:
        """Report free slots and RAM (the §V-B5 capacity response)."""
        allocation = self._deployment.allocation
        return CapacityResponse(
            responder_dom0_ip=self._dom0_ip,
            free_slots=allocation.free_slots(self._host),
            free_ram_mb=allocation.free_ram_mb(self._host),
        )

    # -- token handling ----------------------------------------------------------

    def hold_token_for(self, token: Token, vm_id: int) -> Optional[str]:
        """Run the S-CORE decision for a hosted VM, then name the next hop.

        Returns the dom0 IP hosting the next token holder, or ``None`` when
        the hop budget is exhausted (deployment-controlled).
        """
        deployment = self._deployment
        if vm_id not in deployment.allocation.vms_on(self._host):
            raise ValueError(
                f"dom0 {self._dom0_ip} received token for VM {vm_id} it does "
                f"not host"
            )
        decision = deployment.engine.decide_and_migrate(deployment.fast, vm_id)
        deployment.decisions.append(decision)
        return deployment.pass_token(token)


class TestbedDeployment:
    """A cluster-wide S-CORE deployment driven purely by token messages.

    Construction binds a :class:`~repro.core.fastcost.FastCostEngine` to
    the allocation and traffic (the matrix's store binds to this
    allocation alone; hand a simulator twin a ``traffic.copy()``).  Each
    dom0 decides on it and moves VMs through it — the per-hold
    scheduler's decision and write, message-passed.  The deployment
    walks the policy's round order and closes each completed round with
    the policy's ``end_round``, as the per-hold scheduler does.
    """

    # Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        manager: PlacementManager,
        policy: TokenPolicy,
        engine: MigrationEngine,
        network: Optional[TokenNetwork] = None,
    ) -> None:
        self.allocation = allocation
        self.traffic = traffic
        self.manager = manager
        self.policy = policy
        self.engine = engine
        self.cost_model = engine.cost_model
        self.fast = engine.bind(allocation, traffic)
        self.decisions: List[MigrationDecision] = []
        self.network = network if network is not None else TokenNetwork()
        self.token_regenerations = 0
        self.nodes: Dict[int, HypervisorNode] = {}
        self._hops_remaining = 0
        self._pending_vm: Optional[int] = None
        self._order = np.empty(0, dtype=np.int64)
        self._cursor = 0
        for host in allocation.cluster.topology.hosts:
            node = HypervisorNode(host, self)
            self.nodes[host] = node
            self.network.register(
                TokenServer(node.dom0_ip, self._make_handler(node))
            )

    def _make_handler(self, node: HypervisorNode):
        def on_token(token: Token) -> Optional[str]:
            vm_id = self._pending_vm
            if vm_id is None:
                raise RuntimeError("token delivered with no designated holder")
            return node.hold_token_for(token, vm_id)

        return on_token

    def _begin_round(self, token: Token, holder: int) -> None:
        self._order = self.policy.round_order(token, holder)
        self._cursor = 0
        self._pending_vm = int(self._order[0])

    def pass_token(self, token: Token) -> Optional[str]:
        """Step the round's walk past the current holder.

        A completed round is closed with the policy's ``end_round``,
        which names the next round's first holder.  Returns the next
        holder's dom0 IP, or ``None`` when out of hops.
        """
        self._hops_remaining -= 1
        self._cursor += 1
        if self._cursor == len(self._order):
            holder = self.policy.end_round(token, self._order, self.fast)
            if self._hops_remaining > 0:
                self._begin_round(token, holder)
        if self._hops_remaining <= 0:
            self._pending_vm = None
            return None
        self._pending_vm = int(self._order[self._cursor])
        return self.manager.dom0_ip(self.allocation.server_of(self._pending_vm))

    def populate_flow_tables(self, window_s: float = 10.0) -> None:
        """Install the traffic matrix into each dom0 flow table.

        Models the Open vSwitch polling step: each pair's rate becomes a
        flow with the corresponding byte count over the window.
        """
        for u, v, rate in self.traffic.pairs():
            host_u = self.allocation.server_of(u)
            host_v = self.allocation.server_of(v)
            key = FlowKey(src_ip=vm_ip(u), dst_ip=vm_ip(v))
            for host in {host_u, host_v}:
                table = self.nodes[host].flow_table
                table.upsert_flow(key, int(rate * window_s), timestamp=window_s)

    def run_round(self, n_holds: Optional[int] = None) -> int:
        """Circulate the token for ``n_holds`` decisions (default |V|).

        Returns the number of hops actually performed.
        """
        vm_ids = sorted(self.allocation.vm_ids())
        if not vm_ids:
            raise ValueError("deployment has no VMs to circulate a token over")
        token = Token(vm_ids)
        self._hops_remaining = n_holds if n_holds is not None else len(vm_ids)
        self._begin_round(token, token.lowest_id)
        start_ip = self.manager.dom0_ip(
            self.allocation.server_of(self._pending_vm)
        )
        return self.network.circulate(
            token, start_ip, max_hops=self._hops_remaining
        )

    def run_resilient_round(
        self,
        n_holds: Optional[int] = None,
        max_regenerations: int = 10,
    ) -> int:
        """Like :meth:`run_round`, but survives in-flight token loss.

        When the network drops the token, the (centralized) placement
        manager regenerates a fresh one, all level estimates zero, and
        delivery resumes at the VM the lost token was addressed to.  The
        round's order was fixed at its start, so the regenerated token
        does not change it, and HLF's round end rewrites every level from
        the measured placement.  Gives up after ``max_regenerations``
        losses.  Returns the number of successful hops.
        """
        if max_regenerations < 0:
            raise ValueError(
                f"max_regenerations must be >= 0, got {max_regenerations}"
            )
        vm_ids = sorted(self.allocation.vm_ids())
        if not vm_ids:
            raise ValueError("deployment has no VMs to circulate a token over")
        token = Token(vm_ids)
        budget = n_holds if n_holds is not None else len(vm_ids)
        self._hops_remaining = budget
        self._begin_round(token, token.lowest_id)
        regenerations = 0
        while self._pending_vm is not None and self._hops_remaining > 0:
            dest = self.manager.dom0_ip(
                self.allocation.server_of(self._pending_vm)
            )
            try:
                self.network.circulate(token, dest, max_hops=self._hops_remaining)
                break  # circulation ran to completion (hold or budget)
            except TokenLostError:
                regenerations += 1
                self.token_regenerations += 1
                if regenerations > max_regenerations:
                    raise
                # The manager mints a fresh token over the current VM set;
                # the destined holder keeps its turn.
                token = Token(sorted(self.allocation.vm_ids()))
        # Holds performed = budget consumed by pass_token.
        return budget - max(self._hops_remaining, 0)

    @property
    def migrations_performed(self) -> int:
        """Total migrations executed across all rounds so far."""
        return sum(1 for d in self.decisions if d.migrated)
