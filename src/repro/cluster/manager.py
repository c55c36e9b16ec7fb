"""Centralized VM instance placement manager (paper §V-A).

The manager hands out unique 32-bit VM IDs ("capable of representing over
4 billion IDs before recycling") and renders them as IPv4 addresses — the
paper uses the VM's IPv4 address *as* its token ID (§V-B2).  It also owns
the per-rack server addressing scheme used for location identification
(§V-B4): servers get IPs from a subnet associated with each rack, so a VM
can infer the communication level to a peer from the two dom0 addresses
alone.
"""

from __future__ import annotations

import ipaddress
from typing import List, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.vm import MAX_VM_ID, VM
from repro.topology.base import Topology

#: VM tenant address space; VM id N maps to 10.0.0.0/8 + N.
_VM_NET = int(ipaddress.IPv4Address("10.0.0.0"))
#: Server (dom0) address space; rack r, position p maps to 172.16.r.p
#: style addressing generalized to wide racks.
_DOM0_NET = int(ipaddress.IPv4Address("172.16.0.0"))


def vm_ip(vm_id: int) -> str:
    """IPv4 address rendering of a VM ID (10.0.0.0/8 offset by the ID)."""
    if not 0 <= vm_id <= MAX_VM_ID:
        raise ValueError(f"vm_id out of 32-bit range: {vm_id}")
    # Only ~16.7M VMs fit in 10/8 without wrapping; plenty for any instance.
    return str(ipaddress.IPv4Address(_VM_NET + (vm_id % 2**24)))


def vm_id_from_ip(ip: str) -> int:
    """Inverse of :func:`vm_ip` for addresses inside 10.0.0.0/8."""
    addr = int(ipaddress.IPv4Address(ip))
    if not _VM_NET <= addr < _VM_NET + 2**24:
        raise ValueError(f"{ip} is not a VM tenant address")
    return addr - _VM_NET


class PlacementManager:
    """Allocates VM IDs, renders addresses, and answers location queries."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._next_id = 1  # ID 0 is reserved (paper's v0 is "lowest ID")
        # What was minted, as (first id, count, ram_mb, cpu) runs: one
        # per create_vms call, never one object per VM.
        self._issued: List[Tuple[int, int, int, float]] = []

    @property
    def cluster(self) -> Cluster:
        """The managed cluster."""
        return self._cluster

    # -- ID allocation ---------------------------------------------------------

    def create_vm(self, ram_mb: int = 1024, cpu: float = 1.0) -> VM:
        """Mint a VM with the next unique ID."""
        return self.create_vms(1, ram_mb=ram_mb, cpu=cpu)[0]

    def create_vms(self, count: int, ram_mb: int = 1024, cpu: float = 1.0) -> List[VM]:
        """Mint ``count`` VMs with consecutive unique IDs."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        first = self._next_id
        if first + count - 1 > MAX_VM_ID:
            raise RuntimeError("VM ID space exhausted")
        vms = [VM(vm_id, ram_mb, cpu) for vm_id in range(first, first + count)]
        if count:
            self._issued.append((first, count, ram_mb, cpu))
        self._next_id += count
        return vms

    def issued_vms(self) -> List[VM]:
        """All VMs ever minted by this manager, in ID order."""
        return [
            VM(vm_id, ram_mb, cpu)
            for first, count, ram_mb, cpu in self._issued
            for vm_id in range(first, first + count)
        ]

    # -- addressing --------------------------------------------------------------

    def dom0_ip(self, host: int) -> str:
        """Server (dom0) address, drawn from the subnet of the host's rack.

        Racks can be wider than 254 hosts; the layout packs rack index into
        the upper bits and the host's position within the rack into the
        lower bits, so two servers share a /24-style prefix iff they share
        a rack.
        """
        topology = self._cluster.topology
        rack = topology.rack_of(host)
        per_rack = topology.n_hosts // topology.n_racks
        position = host - rack * per_rack
        return str(ipaddress.IPv4Address(_DOM0_NET + rack * 256 + position + 1))

    def host_from_dom0_ip(self, ip: str) -> int:
        """Inverse of :func:`dom0_ip`."""
        topology = self._cluster.topology
        offset = int(ipaddress.IPv4Address(ip)) - _DOM0_NET
        if offset <= 0:
            raise ValueError(f"{ip} is not a dom0 address")
        rack, position = divmod(offset - 1, 256)
        per_rack = topology.n_hosts // topology.n_racks
        host = rack * per_rack + position
        if not (0 <= host < topology.n_hosts and topology.rack_of(host) == rack):
            raise ValueError(f"{ip} does not map to a valid host")
        return host

    def rack_from_dom0_ip(self, ip: str) -> int:
        """Rack inferred from a dom0 address alone (the §V-B4 property)."""
        offset = int(ipaddress.IPv4Address(ip)) - _DOM0_NET
        if offset <= 0:
            raise ValueError(f"{ip} is not a dom0 address")
        return (offset - 1) // 256

    def level_between_dom0(self, ip_a: str, ip_b: str) -> int:
        """Communication level between two servers given their dom0 IPs.

        This is the "precomputed location cost mapping" of §V-B4: the token
        holder resolves peer dom0 addresses and looks levels up locally.
        """
        host_a = self.host_from_dom0_ip(ip_a)
        host_b = self.host_from_dom0_ip(ip_b)
        return self._cluster.topology.level_between(host_a, host_b)
