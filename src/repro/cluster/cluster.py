"""A cluster couples a topology with one server per host."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.server import Server, ServerCapacity
from repro.topology.base import Topology


class Cluster:
    """All servers of a data center, one per topology host.

    The cluster owns the :class:`Server` objects; what runs where is
    :class:`repro.cluster.allocation.Allocation`'s, which keeps placement
    and per-host usage as columns.
    """

    def __init__(
        self,
        topology: Topology,
        capacity: ServerCapacity = ServerCapacity(),
        per_host_capacity: Optional[Dict[int, ServerCapacity]] = None,
    ) -> None:
        self._topology = topology
        overrides = per_host_capacity or {}
        self._servers: List[Server] = [
            Server(host, overrides.get(host, capacity))
            for host in topology.hosts
        ]
        self._total_slots = sum(s.capacity.max_vms for s in self._servers)

    @property
    def topology(self) -> Topology:
        """The network topology the servers attach to."""
        return self._topology

    @property
    def n_servers(self) -> int:
        """Number of physical servers."""
        return len(self._servers)

    @property
    def total_vm_slots(self) -> int:
        """Aggregate VM capacity across all servers."""
        return self._total_slots

    def server(self, host: int) -> Server:
        """The server on topology host ``host``."""
        return self._servers[host]

    def capacity_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-host (max_vms, ram_mb, cpu, nic_bps) capacity as flat arrays.

        The single source the vectorized feasibility checks (fast-cost
        engine, ``place_random``) build their mirrors from, so a new
        capacity dimension only needs wiring here.  Arrays are cached and
        read-only for callers; :meth:`set_host_capacity` is the one
        writer, patching them in place so every holder of a reference
        (live views by design) sees a resize immediately.
        """
        if not hasattr(self, "_capacity_arrays"):
            n = len(self._servers)
            slots = np.fromiter(
                (s.capacity.max_vms for s in self._servers), dtype=np.int64, count=n
            )
            ram = np.fromiter(
                (s.capacity.ram_mb for s in self._servers), dtype=np.int64, count=n
            )
            cpu = np.fromiter(
                (s.capacity.cpu for s in self._servers), dtype=float, count=n
            )
            nic = np.fromiter(
                (s.capacity.nic_bps for s in self._servers), dtype=float, count=n
            )
            for array in (slots, ram, cpu, nic):
                array.setflags(write=False)
            self._capacity_arrays = (slots, ram, cpu, nic)
        return self._capacity_arrays

    def set_host_capacity(self, host: int, capacity: ServerCapacity) -> None:
        """Resize one server in place and patch the cached capacity arrays.

        The ROADMAP capacity-gap fix: per-host capacity changes (server
        resize, heterogeneous upgrades, maintenance offlining via
        ``max_vms=0``) no longer require rebuilding every consumer —
        the cached arrays are shared views, so the fast-cost engine's
        feasibility probes see the change without a rebuild.  Whether an
        allocation's usage still fits is checked by
        :meth:`repro.cluster.allocation.Allocation.set_host_capacity`,
        the one caller that knows it.
        """
        if not 0 <= host < len(self._servers):
            raise ValueError(f"host index {host} out of range")
        old_slots = self._servers[host].capacity.max_vms
        self._servers[host].set_capacity(capacity)
        self._total_slots += capacity.max_vms - old_slots
        if hasattr(self, "_capacity_arrays"):
            slots, ram, cpu, nic = self._capacity_arrays
            for array, value in (
                (slots, capacity.max_vms),
                (ram, capacity.ram_mb),
                (cpu, capacity.cpu),
                (nic, capacity.nic_bps),
            ):
                array.setflags(write=True)
                array[host] = value
                array.setflags(write=False)

    def __getstate__(self):
        # The capacity arrays and the slot total are caches of the
        # servers' capacities.  Rebuilt after a restore, the arrays are
        # owned ones that set_host_capacity can patch (unpickled read-only
        # arrays sit on immutable bytes and refuse the write flag).
        state = self.__dict__.copy()
        state.pop("_capacity_arrays", None)
        state.pop("_total_slots", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._total_slots = sum(s.capacity.max_vms for s in self._servers)

    def __repr__(self) -> str:
        return (
            f"Cluster(servers={self.n_servers}, "
            f"slots={self.total_vm_slots})"
        )
