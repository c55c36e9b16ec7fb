"""A cluster couples a topology with one capacity record per host.

Capacity lives in four per-host columns — VM slots, RAM, CPU and NIC
line rate (the §V-B5 capacity response plus the §V-C link budget) — and
nowhere else: :meth:`Cluster.capacity` reads one host's record from
them, and :meth:`Cluster.set_host_capacity` replaces the columns.  What
runs where is :class:`repro.cluster.allocation.Allocation`'s.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cluster.server import ServerCapacity
from repro.topology.base import Topology


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Cluster:
    """All servers of a data center, one per topology host.

    The four capacity columns are read-only and replaced, never written:
    a resize builds new arrays, so a holder of the old ones keeps a
    consistent (stale) view and a cluster unpickled over immutable bytes
    resizes like a live one.
    """

    def __init__(
        self, topology: Topology, capacity: ServerCapacity = ServerCapacity()
    ) -> None:
        n = topology.n_hosts
        self._topology = topology
        self._columns = (
            _frozen(np.full(n, capacity.max_vms, dtype=np.int64)),
            _frozen(np.full(n, capacity.ram_mb, dtype=np.int64)),
            _frozen(np.full(n, capacity.cpu, dtype=float)),
            _frozen(np.full(n, capacity.nic_bps, dtype=float)),
        )

    def subset(self, topology: Topology, hosts: np.ndarray) -> "Cluster":
        """A cluster over ``topology`` whose host ``i`` has this cluster's
        capacity of ``hosts[i]`` (a shard domain's sub-cluster)."""
        cluster = Cluster.__new__(Cluster)
        cluster._topology = topology
        cluster._columns = tuple(
            _frozen(column[hosts]) for column in self._columns
        )
        return cluster

    @property
    def topology(self) -> Topology:
        """The network topology the servers attach to."""
        return self._topology

    @property
    def n_servers(self) -> int:
        """Number of physical servers."""
        return len(self._columns[0])

    @property
    def total_vm_slots(self) -> int:
        """Aggregate VM capacity across all servers."""
        return int(self._columns[0].sum())

    def capacity(self, host: int) -> ServerCapacity:
        """The capacity of topology host ``host``; ``ValueError`` when
        ``host`` is out of range (the one range check of every capacity
        path)."""
        if not 0 <= host < self.n_servers:
            raise ValueError(f"host index {host} out of range")
        slots, ram, cpu, nic = self._columns
        return ServerCapacity(
            max_vms=int(slots[host]),
            ram_mb=int(ram[host]),
            cpu=float(cpu[host]),
            nic_bps=float(nic[host]),
        )

    def capacity_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-host (max_vms, ram_mb, cpu, nic_bps) capacity as flat arrays.

        The state of record itself, read-only: the single source every
        vectorized feasibility check (allocation, fast-cost engine,
        ``place_random``) reads, so a new capacity dimension only needs
        wiring here.  A resize replaces the arrays, so callers fetch them
        again rather than keep them.
        """
        return self._columns

    def set_host_capacity(self, host: int, capacity: ServerCapacity) -> None:
        """Resize one server (upgrade, maintenance offlining via
        ``max_vms=0``): copy-on-write of the four columns.

        Whether an allocation's usage still fits is checked by
        :meth:`repro.cluster.allocation.Allocation.set_host_capacity`,
        the one caller that knows it.
        """
        self.capacity(host)
        values = (capacity.max_vms, capacity.ram_mb, capacity.cpu, capacity.nic_bps)
        columns = []
        for column, value in zip(self._columns, values):
            column = column.copy()
            column[host] = value
            columns.append(_frozen(column))
        self._columns = tuple(columns)

    def __repr__(self) -> str:
        return (
            f"Cluster(servers={self.n_servers}, "
            f"slots={self.total_vm_slots})"
        )
