"""Allocation of VMs to servers (the paper's ``A`` and ``sigma_A``).

An :class:`Allocation` is the single source of truth for *where every VM
runs*.  It enforces server capacity (slots, RAM, CPU) on every placement and
migration, supports cheap copying (the GA baseline evaluates thousands of
candidate allocations), and exposes the queries the cost model needs:
``server_of`` (the paper's ``sigma_A(u)``) and ``level_between``.

State is columnar, and placement lives once: the placed VM ids
ascending, with their host, RAM and CPU in aligned columns, plus per-host
slot/RAM/CPU usage arrays kept in step with them (``vms_on`` scans the
host column).  :class:`VM` objects are built on read.  Every mutation is
a batch of a handful of array ops whose cost scales with the batch, not
the cluster: a single migration is a one-move
:meth:`~Allocation.migrate_many` wave, and a single arrival or departure
a one-element batch.  A pickle holds every attribute as it is; capacity
is the cluster's.  Per-host CPU usage accumulates
element by element in operation order (``ufunc.at``), so its float bits —
and every ``free_cpu`` comparison — do not depend on how the operations
were batched.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.server import ServerCapacity
from repro.cluster.vm import VM


class CapacityError(Exception):
    """Raised when a placement or migration would exceed server capacity."""


def _vm_columns(vms: Sequence[VM]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, ram_mb, cpu) arrays of a list of VM objects, in order."""
    n = len(vms)
    return (
        np.fromiter(map(attrgetter("vm_id"), vms), dtype=np.int64, count=n),
        np.fromiter(map(attrgetter("ram_mb"), vms), dtype=np.int64, count=n),
        np.fromiter(map(attrgetter("cpu"), vms), dtype=float, count=n),
    )


class Allocation:
    """A capacity-checked mapping of VMs to servers."""

    def __init__(self, cluster: Cluster) -> None:
        n = cluster.n_servers
        self._cluster = cluster
        self._ids = np.empty(0, dtype=np.int64)
        self._host = np.empty(0, dtype=np.int64)
        self._ram = np.empty(0, dtype=np.int64)
        self._cpu = np.empty(0)
        self._used_slots = np.zeros(n, dtype=np.int64)
        self._used_ram = np.zeros(n, dtype=np.int64)
        self._used_cpu = np.zeros(n)
        self._version = 0

    @property
    def version(self) -> int:
        """Counter bumped on every mutation (placement or membership).

        The fast cost engine records the version its Eq. 2 and egress
        caches describe; a mismatch at the next run means some writer
        bypassed the engine's update path and a full resync is needed.
        Batch operations bump it once.
        """
        return self._version

    # -- basic accessors ------------------------------------------------------

    @property
    def cluster(self) -> Cluster:
        """The cluster this allocation places VMs on."""
        return self._cluster

    @property
    def topology(self):
        """Shortcut to the cluster's network topology."""
        return self._cluster.topology

    @property
    def n_vms(self) -> int:
        """Number of placed VMs."""
        return len(self._ids)

    def _at(self, vm_id: int) -> int:
        """Column position of one placed VM (KeyError on misses)."""
        i = int(self._ids.searchsorted(vm_id))
        if i == len(self._ids) or self._ids[i] != vm_id:
            raise KeyError(vm_id)
        return i

    def _index(self, vm_ids) -> np.ndarray:
        """Column positions of placed VMs, in order (KeyError on the
        first miss)."""
        ids = np.asarray(vm_ids, dtype=np.int64).reshape(-1)
        at = self._ids.searchsorted(ids)
        if len(self._ids):
            at = at.clip(max=len(self._ids) - 1)
            hit = self._ids[at] == ids
        else:
            hit = np.zeros(len(ids), dtype=bool)
        if not hit.all():
            raise KeyError(int(ids[np.argmin(hit)]))
        return at

    def vm(self, vm_id: int) -> VM:
        """The VM with the given ID (built from the columns)."""
        i = self._at(vm_id)
        return VM(int(self._ids[i]), int(self._ram[i]), float(self._cpu[i]))

    def vms(self) -> Iterator[VM]:
        """Iterate over all placed VMs (ascending id)."""
        return map(
            VM, self._ids.tolist(), self._ram.tolist(), self._cpu.tolist()
        )

    def vms_of(self, vm_ids: Sequence[int]) -> List[VM]:
        """The VMs with the given ids, in order (KeyError on misses)."""
        at = self._index(list(vm_ids))
        return list(
            map(VM, self._ids[at].tolist(), self._ram[at].tolist(),
                self._cpu[at].tolist())
        )

    def vm_ids(self) -> Iterator[int]:
        """Iterate over all placed VM IDs (ascending)."""
        return iter(self._ids.tolist())

    def __contains__(self, vm_id: int) -> bool:
        try:
            self._at(vm_id)
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def server_of(self, vm_id: int) -> int:
        """Host index currently running ``vm_id`` (the paper's sigma_A)."""
        return int(self._host[self._at(vm_id)])

    def vms_on(self, host: int) -> FrozenSet[int]:
        """IDs of the VMs currently on ``host`` (a scan of the host
        column)."""
        return frozenset(self._ids[self._host == host].tolist())

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The live ``(ids, host, ram_mb, cpu)`` columns, ascending by id.

        The state of record itself, not a copy: callers only read, and
        fetch again after a mutation (arrivals and departures replace the
        arrays; a migration writes ``host`` in place).
        """
        return self._ids, self._host, self._ram, self._cpu

    def usage(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live per-host ``(slots, ram_mb, cpu)`` usage arrays, read
        under the same rules as :meth:`columns`."""
        return self._used_slots, self._used_ram, self._used_cpu

    def level_between(self, vm_u: int, vm_v: int) -> int:
        """Communication level l_A(u, v) between two VMs (paper §II)."""
        return self.topology.level_between(
            self.server_of(vm_u), self.server_of(vm_v)
        )

    # -- capacity --------------------------------------------------------------

    def free_slots(self, host: int) -> int:
        """Remaining VM slots on ``host``."""
        cap = self._cluster.capacity_arrays()[0]
        return int(cap[host] - self._used_slots[host])

    def free_ram_mb(self, host: int) -> int:
        """Remaining guest RAM on ``host``."""
        cap = self._cluster.capacity_arrays()[1]
        return int(cap[host] - self._used_ram[host])

    def free_cpu(self, host: int) -> float:
        """Remaining CPU cores on ``host``."""
        cap = self._cluster.capacity_arrays()[2]
        return float(cap[host] - self._used_cpu[host])

    def can_host(self, host: int, vm: VM) -> bool:
        """Whether ``host`` has slot/RAM/CPU headroom for ``vm``."""
        return bool(self.fits(vm, host))

    def fits(self, vm: VM, hosts=slice(None)) -> np.ndarray:
        """Whether each host of ``hosts`` (an index into the host axis;
        every host by default) has slot/RAM/CPU headroom for ``vm``."""
        cap_slots, cap_ram, cap_cpu, _nic = self._cluster.capacity_arrays()
        return (
            (cap_slots[hosts] - self._used_slots[hosts] >= 1)
            & (cap_ram[hosts] - self._used_ram[hosts] >= vm.ram_mb)
            & (cap_cpu[hosts] - self._used_cpu[hosts] >= vm.cpu)
        )

    def set_host_capacity(
        self,
        host: int,
        max_vms: Optional[int] = None,
        nic_bps: Optional[float] = None,
        ram_mb: Optional[int] = None,
        cpu: Optional[float] = None,
    ) -> None:
        """Resize one host in place (server upgrade, maintenance offline).

        Values left ``None`` keep their current setting.  A size below
        the host's current slot, RAM or CPU usage raises ``ValueError``
        and changes nothing (drain the host first).  The cluster then
        replaces its capacity columns, which every feasibility probe
        reads at each use, so no engine rebuilds.  An out-of-range host
        raises ``ValueError`` before any write.
        """
        current = self._cluster.capacity(host)
        new = ServerCapacity(
            max_vms=current.max_vms if max_vms is None else int(max_vms),
            ram_mb=current.ram_mb if ram_mb is None else int(ram_mb),
            cpu=current.cpu if cpu is None else float(cpu),
            nic_bps=current.nic_bps if nic_bps is None else float(nic_bps),
        )
        in_use = int(self._used_slots[host])
        if new.max_vms < in_use:
            raise ValueError(
                f"host {host} runs {in_use} VMs; cannot shrink to "
                f"{new.max_vms} slots (drain it first)"
            )
        if new.ram_mb < self._used_ram[host] or new.cpu < self._used_cpu[host]:
            raise ValueError(
                f"host {host} usage exceeds the requested RAM/CPU capacity "
                f"(drain it first)"
            )
        self._cluster.set_host_capacity(host, new)

    def _headroom(self, host: int) -> str:
        return (
            f"slots={self.free_slots(host)}, "
            f"ram={self.free_ram_mb(host)}MiB, cpu={self.free_cpu(host)}"
        )

    # -- mutation -----------------------------------------------------------------

    def add_vm(self, vm: VM, host: int) -> None:
        """Place a new VM on ``host``; raises :class:`CapacityError` if full."""
        self.add_vms([vm], [host])

    def add_vms(self, vms: Sequence[VM], hosts: Sequence[int]) -> None:
        """Place one batch of arriving VMs: validate all, then place.

        The first-class tenant-arrival API: capacity is checked for the
        whole batch *before* any mutation — including several arrivals
        landing on the same host — so a rejected batch raises
        :class:`CapacityError` and leaves the allocation untouched.  The
        version counter bumps once for the batch.
        """
        self._add(*_vm_columns(list(vms)), np.asarray(hosts, dtype=np.int64))

    def _add(
        self, ids: np.ndarray, ram: np.ndarray, cpu: np.ndarray,
        hosts: np.ndarray,
    ) -> None:
        hosts = hosts.reshape(-1)
        if len(ids) != len(hosts):
            raise ValueError(
                f"{len(ids)} VMs but {len(hosts)} hosts in the arrival batch"
            )
        if not len(ids):
            return
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
            raise ValueError("duplicate VM IDs in the arrival batch")
        pos = self._ids.searchsorted(sorted_ids)
        already = np.zeros(len(ids), dtype=bool)
        if len(self._ids):
            already[order] = self._ids[pos.clip(max=len(self._ids) - 1)] == sorted_ids
        if already.any():
            raise ValueError(f"VM {int(ids[np.argmax(already)])} is already placed")
        n = self._cluster.n_servers
        outside = (hosts < 0) | (hosts >= n)
        if outside.any():
            raise ValueError(
                f"host index {int(hosts[np.argmax(outside)])} out of range"
            )
        need_slots = np.bincount(hosts, minlength=n)
        need_ram = np.bincount(hosts, weights=ram, minlength=n)
        need_cpu = np.bincount(hosts, weights=cpu, minlength=n)
        cap_slots, cap_ram, cap_cpu, _nic = self._cluster.capacity_arrays()
        short = (need_slots > 0) & (
            (cap_slots - self._used_slots < need_slots)
            | (cap_ram - self._used_ram < need_ram)
            | (cap_cpu - self._used_cpu < need_cpu)
        )
        if short.any():
            # The first host of the batch, in arrival order, that is short.
            host = int(hosts[np.argmax(short[hosts])])
            raise CapacityError(
                f"arrival batch rejected: host {host} lacks headroom for "
                f"{int(need_slots[host])} VM(s): {self._headroom(host)}"
            )
        if pos[0] == len(self._ids):  # freshly minted ids append
            splice = lambda column, values: np.concatenate((column, values))
        else:
            splice = lambda column, values: np.insert(column, pos, values)
        self._ids = splice(self._ids, sorted_ids)
        self._host = splice(self._host, hosts[order])
        self._ram = splice(self._ram, ram[order])
        self._cpu = splice(self._cpu, cpu[order])
        self._used_slots += need_slots
        self._used_ram += need_ram.astype(np.int64)
        np.add.at(self._used_cpu, hosts, cpu)
        self._version += 1

    @classmethod
    def from_placement(
        cls, cluster: Cluster, vms: Sequence[VM], hosts: Sequence[int]
    ) -> "Allocation":
        """Bulk-construct an allocation mirroring a known placement."""
        allocation = cls(cluster)
        allocation.add_vms(vms, hosts)
        return allocation

    def subset(
        self, cluster: Cluster, vm_ids: Sequence[int], hosts: np.ndarray
    ) -> "Allocation":
        """An allocation over ``cluster`` holding the given VMs of this one
        (same RAM and CPU) on ``hosts`` (a shard domain's sub-allocation):
        :meth:`from_placement` straight from the columns."""
        at = self._index(vm_ids)
        allocation = Allocation(cluster)
        allocation._add(
            self._ids[at], self._ram[at], self._cpu[at],
            np.asarray(hosts, dtype=np.int64),
        )
        return allocation

    def remove_vm(self, vm_id: int) -> VM:
        """Remove a VM from the allocation entirely and return it."""
        return self.remove_vms([vm_id])[0]

    def remove_vms(self, vm_ids: Sequence[int]) -> List[VM]:
        """Remove one batch of departing VMs; all-or-nothing.

        Unknown (or duplicate) IDs raise before any removal happens; the
        version counter bumps once for the batch.  Returns the removed
        VM objects in input order.
        """
        ids = np.asarray(list(vm_ids), dtype=np.int64)
        if len(np.unique(ids)) != len(ids):
            raise ValueError("duplicate VM IDs in the departure batch")
        removed = self.vms_of(ids)
        if removed:
            self._remove(ids)
        return removed

    def _remove(self, ids: np.ndarray) -> None:
        at = self._index(ids)
        hosts = self._host[at]
        np.subtract.at(self._used_slots, hosts, 1)
        n = self._cluster.n_servers
        self._used_ram -= np.bincount(
            hosts, weights=self._ram[at], minlength=n
        ).astype(np.int64)
        np.subtract.at(self._used_cpu, hosts, self._cpu[at])
        keep = np.ones(len(self._ids), dtype=bool)
        keep[at] = False
        self._ids = self._ids[keep]
        self._host = self._host[keep]
        self._ram = self._ram[keep]
        self._cpu = self._cpu[keep]
        self._version += 1

    def migrate_many(self, moves: Iterable[tuple]) -> None:
        """Apply one wave of migrations as a batch: validate all, then move.

        ``moves`` is an iterable of ``(vm_id, target_host)`` (or an
        ``(m, 2)`` integer array) over distinct VMs.  Capacity is checked
        for every move *before* any mutation, so a rejected wave raises
        :class:`CapacityError` (naming the first misfit in wave order) and
        leaves the allocation untouched.  The pre-check treats moves as
        independent, which is sound when target hosts are pairwise
        distinct — the contract of the wave planner that produces these
        batches (``repro.core.migration.plan_wave``), and of a wave of
        one, which is how a single VM moves.  Moves to a VM's current
        host are no-ops.
        """
        if not isinstance(moves, np.ndarray):
            moves = list(moves)
        moves = np.asarray(moves, dtype=np.int64).reshape(-1, 2)
        at = self._index(moves[:, 0])
        target = moves[:, 1]
        real = self._host[at] != target
        at, target = at[real], target[real]
        if not len(at):
            return
        if len(np.unique(at)) != len(at):
            raise ValueError("a wave moves each VM at most once")
        cap_slots, cap_ram, cap_cpu, _nic = self._cluster.capacity_arrays()
        misfit = (
            (cap_slots[target] - self._used_slots[target] < 1)
            | (cap_ram[target] - self._used_ram[target] < self._ram[at])
            | (cap_cpu[target] - self._used_cpu[target] < self._cpu[at])
        )
        if misfit.any():
            first = int(np.argmax(misfit))
            host = int(target[first])
            raise CapacityError(
                f"wave rejected: VM {int(self._ids[at[first]])} does not fit "
                f"host {host}: {self._headroom(host)}"
            )
        source = self._host[at]
        self._host[at] = target
        # Source and target updates interleave per move, in wave order.
        hosts = np.column_stack((source, target)).reshape(-1)
        ram = self._ram[at]
        cpu = self._cpu[at]
        np.add.at(self._used_slots, hosts, np.tile((-1, 1), len(at)))
        np.add.at(self._used_ram, hosts, np.column_stack((-ram, ram)).reshape(-1))
        np.add.at(self._used_cpu, hosts, np.column_stack((-cpu, cpu)).reshape(-1))
        self._version += 1

    # -- bulk / copy -----------------------------------------------------------------

    def copy(self) -> "Allocation":
        """An independent copy sharing the (immutable) cluster."""
        clone = Allocation.__new__(Allocation)
        clone.__dict__.update(
            {
                name: value.copy() if isinstance(value, np.ndarray) else value
                for name, value in self.__dict__.items()
            }
        )
        clone._version = 0
        return clone

    def as_dict(self) -> Dict[int, int]:
        """Snapshot of the VM → host mapping (ascending id)."""
        return dict(zip(self._ids.tolist(), self._host.tolist()))

    def mapping_arrays(
        self, vm_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(host, ram_mb, cpu) arrays for the given VM ids, in order.

        A gather from the columns (fresh arrays the caller may mutate);
        raises ``KeyError`` on unknown ids.
        """
        at = self._index(vm_ids)
        return self._host[at], self._ram[at], self._cpu[at]

    def apply_mapping(self, mapping: Dict[int, int]) -> None:
        """Re-place already-known VMs according to ``mapping``.

        Used by centralized baselines (GA) to install a computed
        allocation.  All VM IDs must already exist in this allocation.
        Every mapped VM leaves, then every one lands, in mapping order, as
        one validated batch: a mapping that overfills a receiving host
        raises :class:`CapacityError` and leaves the allocation untouched.
        """
        if not mapping:
            return
        ids = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
        try:
            at = self._index(ids)
        except KeyError:
            unknown = sorted(set(mapping) - set(self._ids.tolist()))
            raise ValueError(
                f"mapping contains unknown VM IDs: {unknown[:5]}"
            ) from None
        targets = np.fromiter(mapping.values(), dtype=np.int64, count=len(ids))
        trial = self.copy()
        trial._remove(ids)
        trial._add(ids, self._ram[at], self._cpu[at], targets)
        trial._version = self._version + 1
        self.__dict__.update(trial.__dict__)

    def mapping_is_feasible(self, mapping: Dict[int, int]) -> bool:
        """Whether the mapped VMs alone respect every server's capacity."""
        at = self._index(list(mapping))
        hosts = np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping))
        n = self._cluster.n_servers
        cap_slots, cap_ram, cap_cpu, _nic = self._cluster.capacity_arrays()
        return not (
            (np.bincount(hosts, minlength=n) > cap_slots)
            | (np.bincount(hosts, weights=self._ram[at], minlength=n) > cap_ram)
            | (np.bincount(hosts, weights=self._cpu[at], minlength=n) > cap_cpu)
        ).any()

    def validate(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Internal-consistency check; raises AssertionError on corruption.

        Array compares only: ids strictly ascending, hosts in range, and
        per host (ascending, first failure reported) slots, slot/RAM/CPU
        accounting and RAM capacity hold.

        Returns :meth:`columns`, so a caller that goes on to compare the
        token or the engine's index against the placement reads them
        without another call.
        """
        ids, host, ram, cpu = self._ids, self._host, self._ram, self._cpu
        n_hosts = self._cluster.n_servers
        if (ids[1:] <= ids[:-1]).any():
            raise AssertionError("VM ids are not strictly ascending")
        if len(host) and (host.min() < 0 or host.max() >= n_hosts):
            raise AssertionError("host column out of range")
        count = np.bincount(host, minlength=n_hosts)
        cap_slots, cap_ram, _cap_cpu, _nic = self._cluster.capacity_arrays()
        ram_sum = np.bincount(host, weights=ram, minlength=n_hosts).astype(np.int64)
        cpu_sum = np.bincount(host, weights=cpu, minlength=n_hosts)
        checks = (
            (self._used_slots > cap_slots, "over slot capacity"),
            (self._used_slots != count, "slot accounting drift"),
            (ram_sum != self._used_ram, "RAM accounting drift"),
            (~(np.abs(cpu_sum - self._used_cpu) < 1e-9), "CPU accounting drift"),
            (self._used_ram > cap_ram, "over RAM capacity"),
        )
        bad = np.logical_or.reduce([failed for failed, _ in checks])
        if bad.any():
            host_id = int(np.argmax(bad))
            what = next(text for failed, text in checks if failed[host_id])
            raise AssertionError(f"host {host_id} {what}")
        return ids, host, ram, cpu

    def __repr__(self) -> str:
        return f"Allocation(vms={len(self._ids)}, servers={self._cluster.n_servers})"
