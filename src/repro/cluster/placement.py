"""Initial placement strategies.

The paper notes (§III) that VMs "are initially allocated either at random or
in a load-balanced manner"; S-CORE then improves whatever it is handed.
Four strategies are provided:

``place_random``
    Each VM goes to a uniformly random feasible server.
``place_round_robin``
    Load-balanced: VMs are dealt one per server cyclically.
``place_packed``
    Servers are filled to capacity in host order (dense packing; this is
    also how the GA baseline seeds its population, §VI-A).
``place_striped``
    Consecutive VM IDs are spread across *racks*, maximizing initial
    communication cost for locality-structured workloads — a worst-case
    stress start for S-CORE.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cluster.allocation import Allocation, CapacityError
from repro.cluster.cluster import Cluster
from repro.cluster.vm import VM
from repro.util.rng import SeedLike, make_rng


def _require_capacity(cluster: Cluster, vms: Sequence[VM]) -> None:
    if len(vms) > cluster.total_vm_slots:
        raise CapacityError(
            f"{len(vms)} VMs exceed the cluster's {cluster.total_vm_slots} slots"
        )


class _Fill:
    """Headroom of a fresh allocation while a strategy picks hosts.

    Free slots and RAM per host, and CPU used, compared as ``cap - used``
    with usage accumulated in placement order — :meth:`Allocation.can_host`
    bit for bit, so every pick is feasible and the seeded feasible sets
    match.  The chosen hosts land in one :meth:`Allocation.from_placement`.
    """

    def __init__(self, cluster: Cluster) -> None:
        cap_slots, cap_ram, self.cap_cpu, _nic = cluster.capacity_arrays()
        self.free_slots = cap_slots.copy()
        self.free_ram = cap_ram.copy()
        self.used_cpu = np.zeros(len(cap_slots))
        self.hosts: List[int] = []

    def feasible(self, vm: VM) -> np.ndarray:
        """Every host with headroom for ``vm``, ascending."""
        return np.nonzero(
            (self.free_slots >= 1)
            & (self.free_ram >= vm.ram_mb)
            & (self.cap_cpu - self.used_cpu >= vm.cpu)
        )[0]

    def can_host(self, host: int, vm: VM) -> bool:
        return bool(
            self.free_slots[host] >= 1
            and self.free_ram[host] >= vm.ram_mb
            and self.cap_cpu[host] - self.used_cpu[host] >= vm.cpu
        )

    def add_vm(self, vm: VM, host: int) -> None:
        self.free_slots[host] -= 1
        self.free_ram[host] -= vm.ram_mb
        self.used_cpu[host] += vm.cpu
        self.hosts.append(host)


def place_packed(cluster: Cluster, vms: Iterable[VM]) -> Allocation:
    """Fill servers to capacity in host order."""
    vms = list(vms)
    _require_capacity(cluster, vms)
    fill = _Fill(cluster)
    host = 0
    for vm in vms:
        while host < cluster.n_servers and not fill.can_host(host, vm):
            host += 1
        if host >= cluster.n_servers:
            raise CapacityError(f"ran out of servers placing VM {vm.vm_id}")
        fill.add_vm(vm, host)
    return Allocation.from_placement(cluster, vms, fill.hosts)


def place_round_robin(cluster: Cluster, vms: Iterable[VM]) -> Allocation:
    """Deal VMs one per server cyclically (load-balanced placement)."""
    vms = list(vms)
    _require_capacity(cluster, vms)
    fill = _Fill(cluster)
    n = cluster.n_servers
    cursor = 0
    for vm in vms:
        for offset in range(n):
            host = (cursor + offset) % n
            if fill.can_host(host, vm):
                break
        else:
            raise CapacityError(f"no server can accommodate VM {vm.vm_id}")
        fill.add_vm(vm, host)
        cursor = (host + 1) % n
    return Allocation.from_placement(cluster, vms, fill.hosts)


def place_random(cluster: Cluster, vms: Iterable[VM], seed: SeedLike = None) -> Allocation:
    """Place each VM on a uniformly random feasible server.

    Headroom is tracked in flat numpy arrays (:class:`_Fill`) so the
    per-VM feasibility scan is one vectorized mask instead of O(hosts)
    ``can_host`` calls — at the paper's full scale (2560 hosts x ~35k VMs)
    this is the difference between sub-second and a minute of placement.
    The candidate list (and hence the consumed RNG stream) is identical to
    the per-host scan's, so seeded placements are unchanged.  The chosen
    hosts land in one bulk :meth:`Allocation.from_placement`.
    """
    vms = list(vms)
    _require_capacity(cluster, vms)
    rng = make_rng(seed)
    fill = _Fill(cluster)
    for vm in vms:
        feasible = fill.feasible(vm)
        if feasible.size == 0:
            raise CapacityError(f"no server can accommodate VM {vm.vm_id}")
        fill.add_vm(vm, int(rng.choice(feasible)))
    return Allocation.from_placement(cluster, vms, fill.hosts)


def place_striped(cluster: Cluster, vms: Iterable[VM]) -> Allocation:
    """Spread consecutive VMs across racks (adversarial locality).

    VM i goes to rack ``i mod n_racks``, to the first feasible host there;
    falls back to any feasible host when the target rack is full.
    """
    vms = list(vms)
    _require_capacity(cluster, vms)
    fill = _Fill(cluster)
    topology = cluster.topology
    for index, vm in enumerate(vms):
        in_rack = topology.hosts_in_rack(index % topology.n_racks)
        for host in chain(in_rack, range(cluster.n_servers)):
            if fill.can_host(host, vm):
                break
        else:
            raise CapacityError(f"no server can accommodate VM {vm.vm_id}")
        fill.add_vm(vm, host)
    return Allocation.from_placement(cluster, vms, fill.hosts)


def locality_probe_order(topology, preferred_rack: Optional[int] = None) -> List[int]:
    """Hosts in rack → same-pod → anywhere preference order from a rack.

    The shared spill order of arrival placement (:func:`place_arrivals`)
    and maintenance drains (``SCOREScheduler.drain_hosts``): the
    preferred rack's hosts first (ascending), then the other racks of its
    pod, then the rest of the topology.  ``None`` degrades to plain
    ascending host order.
    """
    if preferred_rack is None:
        return list(topology.hosts)
    order: List[int] = list(topology.hosts_in_rack(preferred_rack))
    pod = topology.pod_of(order[0])
    for rack in range(topology.n_racks):
        if rack == preferred_rack:
            continue
        hosts = topology.hosts_in_rack(rack)
        if topology.pod_of(hosts[0]) == pod:
            order.extend(hosts)
    in_order = set(order)
    order.extend(h for h in topology.hosts if h not in in_order)
    return order


def place_arrivals(
    allocation: Allocation,
    vms: Sequence[VM],
    preferred_rack: Optional[int] = None,
) -> List[int]:
    """Choose hosts for a batch of arriving VMs on a *live* allocation.

    Models tenant arrivals into a running data centre: each VM lands on
    the first feasible host of ``preferred_rack`` (ascending host order);
    when that rack is full the VM *spills* to the other racks of the same
    pod, then anywhere (:func:`locality_probe_order`).  Without a
    preferred rack, hosts are probed in ascending order directly.
    Returns the chosen host per VM (the VMs are NOT placed; pair with
    :meth:`Allocation.add_vms`) and raises :class:`CapacityError` when
    any VM fits nowhere.
    """
    topology = allocation.topology
    probe_order = locality_probe_order(topology, preferred_rack)

    # Track headroom consumed by earlier arrivals of this same batch so
    # the chosen hosts stay feasible when the batch lands together.  A
    # host's headroom is read on its first probe: a batch usually lands
    # within the first few hosts of the order.
    headroom: Dict[int, List] = {}
    chosen: List[int] = []
    for vm in vms:
        for host in probe_order:
            free = headroom.get(host)
            if free is None:
                free = headroom[host] = [
                    allocation.free_slots(host),
                    allocation.free_ram_mb(host),
                    allocation.free_cpu(host),
                ]
            if free[0] >= 1 and free[1] >= vm.ram_mb and free[2] >= vm.cpu:
                chosen.append(host)
                free[0] -= 1
                free[1] -= vm.ram_mb
                free[2] -= vm.cpu
                break
        else:
            raise CapacityError(f"no server can accommodate VM {vm.vm_id}")
    return chosen


PLACEMENT_STRATEGIES = {
    "packed": place_packed,
    "round_robin": place_round_robin,
    "striped": place_striped,
}


def place_by_name(
    name: str, cluster: Cluster, vms: Iterable[VM], seed: SeedLike = None
) -> Allocation:
    """Dispatch a placement strategy by name (``random`` accepts a seed)."""
    if name == "random":
        return place_random(cluster, vms, seed)
    try:
        strategy = PLACEMENT_STRATEGIES[name]
    except KeyError:
        known = ["random", *sorted(PLACEMENT_STRATEGIES)]
        raise ValueError(f"unknown placement strategy {name!r}; known: {known}")
    return strategy(cluster, vms)
