"""Allocation of VMs to servers (the paper's ``A`` and ``sigma_A``).

An :class:`Allocation` is the single source of truth for *where every VM
runs*.  It enforces server capacity (slots, RAM, CPU) on every placement and
migration, supports cheap copying (the GA baseline evaluates thousands of
candidate allocations), and exposes the queries the cost model needs:
``server_of`` (the paper's ``sigma_A(u)``) and ``level_between``.

State is kept in flat dictionaries/lists rather than in the stateful
:class:`repro.cluster.server.Server` objects so that ``copy()`` is O(|V|);
the ``Server`` class models a live machine for the testbed emulation layer.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter, contains, itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.vm import VM


class CapacityError(Exception):
    """Raised when a placement or migration would exceed server capacity."""


class Allocation:
    """A capacity-checked mapping of VMs to servers."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._vms: Dict[int, VM] = {}
        self._host_of: Dict[int, int] = {}
        n = cluster.n_servers
        self._vms_on: List[Set[int]] = [set() for _ in range(n)]
        self._used_ram: List[int] = [0] * n
        self._used_cpu: List[float] = [0.0] * n
        self._version = 0

    @property
    def version(self) -> int:
        """Counter bumped on every mutation (placement or membership).

        The fast cost engine records the version it mirrored; a mismatch
        at the next run means some writer bypassed the engine's
        incremental update path and a full resync is needed.  Batch
        operations bump it once.
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
        return len(self._vms)

    def vm(self, vm_id: int) -> VM:
        """The VM object with the given ID."""
        return self._vms[vm_id]

    def vms(self) -> Iterator[VM]:
        """Iterate over all placed VMs (unspecified order)."""
        return iter(self._vms.values())

    def vms_of(self, vm_ids: Sequence[int]) -> List[VM]:
        """The VM objects with the given ids, in order (KeyError on misses).

        Bulk sibling of :meth:`vm` — one ``itemgetter`` probe instead of
        a Python-level lookup per id.
        """
        ids = list(vm_ids)
        if not ids:
            return []
        if len(ids) == 1:
            return [self._vms[ids[0]]]
        return list(itemgetter(*ids)(self._vms))

    def vm_ids(self) -> Iterator[int]:
        """Iterate over all placed VM IDs."""
        return iter(self._vms.keys())

    def __contains__(self, vm_id: int) -> bool:
        return vm_id in self._vms

    def server_of(self, vm_id: int) -> int:
        """Host index currently running ``vm_id`` (the paper's sigma_A)."""
        return self._host_of[vm_id]

    def vms_on(self, host: int) -> FrozenSet[int]:
        """IDs of the VMs currently on ``host``."""
        return frozenset(self._vms_on[host])

    def level_between(self, vm_u: int, vm_v: int) -> int:
        """Communication level l_A(u, v) between two VMs (paper §II)."""
        return self.topology.level_between(
            self._host_of[vm_u], self._host_of[vm_v]
        )

    # -- capacity --------------------------------------------------------------

    def free_slots(self, host: int) -> int:
        """Remaining VM slots on ``host``."""
        cap = self._cluster.server(host).capacity
        return cap.max_vms - len(self._vms_on[host])

    def free_ram_mb(self, host: int) -> int:
        """Remaining guest RAM on ``host``."""
        cap = self._cluster.server(host).capacity
        return cap.ram_mb - self._used_ram[host]

    def free_cpu(self, host: int) -> float:
        """Remaining CPU cores on ``host``."""
        cap = self._cluster.server(host).capacity
        return cap.cpu - self._used_cpu[host]

    def can_host(self, host: int, vm: VM) -> bool:
        """Whether ``host`` has slot/RAM/CPU headroom for ``vm``."""
        return (
            self.free_slots(host) >= 1
            and self.free_ram_mb(host) >= vm.ram_mb
            and self.free_cpu(host) >= vm.cpu
        )

    # -- mutation -----------------------------------------------------------------

    def add_vm(self, vm: VM, host: int) -> None:
        """Place a new VM on ``host``; raises :class:`CapacityError` if full."""
        if vm.vm_id in self._vms:
            raise ValueError(f"VM {vm.vm_id} is already placed")
        if not 0 <= host < self._cluster.n_servers:
            raise ValueError(f"host index {host} out of range")
        if not self.can_host(host, vm):
            raise CapacityError(
                f"host {host} cannot accommodate VM {vm.vm_id}: "
                f"slots={self.free_slots(host)}, "
                f"ram={self.free_ram_mb(host)}MiB, cpu={self.free_cpu(host)}"
            )
        self._vms[vm.vm_id] = vm
        self._host_of[vm.vm_id] = host
        self._vms_on[host].add(vm.vm_id)
        self._used_ram[host] += vm.ram_mb
        self._used_cpu[host] += vm.cpu
        self._version += 1

    def add_vms(self, vms: Sequence[VM], hosts: Sequence[int]) -> None:
        """Place one batch of arriving VMs: validate all, then place.

        The first-class tenant-arrival API: capacity is checked for the
        whole batch *before* any mutation — including several arrivals
        landing on the same host — so a rejected batch raises
        :class:`CapacityError` and leaves the allocation untouched.  The
        version counter bumps once for the batch.
        """
        vms = list(vms)
        hosts = [int(h) for h in hosts]
        if len(vms) != len(hosts):
            raise ValueError(
                f"{len(vms)} VMs but {len(hosts)} hosts in the arrival batch"
            )
        ids = [vm.vm_id for vm in vms]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate VM IDs in the arrival batch")
        already = [vm_id for vm_id in ids if vm_id in self._vms]
        if already:
            raise ValueError(f"VM {already[0]} is already placed")
        need_slots: Dict[int, int] = {}
        need_ram: Dict[int, int] = {}
        need_cpu: Dict[int, float] = {}
        for vm, host in zip(vms, hosts):
            if not 0 <= host < self._cluster.n_servers:
                raise ValueError(f"host index {host} out of range")
            need_slots[host] = need_slots.get(host, 0) + 1
            need_ram[host] = need_ram.get(host, 0) + vm.ram_mb
            need_cpu[host] = need_cpu.get(host, 0.0) + vm.cpu
        for host, slots in need_slots.items():
            if (
                self.free_slots(host) < slots
                or self.free_ram_mb(host) < need_ram[host]
                or self.free_cpu(host) < need_cpu[host]
            ):
                raise CapacityError(
                    f"arrival batch rejected: host {host} lacks headroom for "
                    f"{slots} VM(s): slots={self.free_slots(host)}, "
                    f"ram={self.free_ram_mb(host)}MiB, cpu={self.free_cpu(host)}"
                )
        for vm, host in zip(vms, hosts):
            self._vms[vm.vm_id] = vm
            self._host_of[vm.vm_id] = host
            self._vms_on[host].add(vm.vm_id)
            self._used_ram[host] += vm.ram_mb
            self._used_cpu[host] += vm.cpu
        if vms:
            self._version += 1

    @classmethod
    def from_placement(
        cls, cluster: Cluster, vms: Sequence[VM], hosts: Sequence[int]
    ) -> "Allocation":
        """Bulk-construct an allocation mirroring a known placement.

        The replica path for sharded domain construction: every
        ``(vm, host)`` pair is copied from an allocation that already
        passed admission, so the per-VM bookkeeping of :meth:`add_vms`
        collapses into C-speed ``dict(zip(...))`` builds and per-host
        ``bincount`` reductions (summed in the same element order as the
        sequential loop, so the accounting is bit-identical), followed by
        one vectorized per-host capacity audit.  A placement that does
        violate capacity still raises :class:`CapacityError`.
        """
        allocation = cls(cluster)
        vms = list(vms)
        host_arr = np.asarray(hosts, dtype=np.int64)
        if len(vms) != len(host_arr):
            raise ValueError(
                f"{len(vms)} VMs but {len(host_arr)} hosts in the placement"
            )
        if not vms:
            return allocation
        n = cluster.n_servers
        if int(host_arr.min()) < 0 or int(host_arr.max()) >= n:
            bad = host_arr[(host_arr < 0) | (host_arr >= n)][0]
            raise ValueError(f"host index {int(bad)} out of range")
        ids = [vm.vm_id for vm in vms]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate VM IDs in the placement")
        host_list = host_arr.tolist()
        allocation._vms = dict(zip(ids, vms))
        allocation._host_of = dict(zip(ids, host_list))
        count = len(vms)
        ram = np.fromiter((vm.ram_mb for vm in vms), dtype=np.int64, count=count)
        cpu = np.fromiter((vm.cpu for vm in vms), dtype=float, count=count)
        used_slots = np.bincount(host_arr, minlength=n)
        used_ram = np.bincount(host_arr, weights=ram, minlength=n).astype(
            np.int64
        )
        used_cpu = np.bincount(host_arr, weights=cpu, minlength=n)
        cap_slots, cap_ram, cap_cpu, _nic = cluster.capacity_arrays()
        over = np.flatnonzero(
            (used_slots > cap_slots)
            | (used_ram > cap_ram)
            | (used_cpu > cap_cpu)
        )
        if over.size:
            host = int(over[0])
            raise CapacityError(
                f"placement rejected: host {host} over capacity "
                f"(slots {int(used_slots[host])}/{int(cap_slots[host])}, "
                f"ram {int(used_ram[host])}/{int(cap_ram[host])}MiB, "
                f"cpu {float(used_cpu[host])}/{float(cap_cpu[host])})"
            )
        order = np.argsort(host_arr, kind="stable")
        sorted_hosts = host_arr[order]
        sorted_ids = np.asarray(ids, dtype=np.int64)[order]
        uniq, starts = np.unique(sorted_hosts, return_index=True)
        bounds = np.append(starts, sorted_hosts.size).tolist()
        id_list = sorted_ids.tolist()
        vms_on = allocation._vms_on
        for i, host in enumerate(uniq.tolist()):
            vms_on[host] = set(id_list[bounds[i]:bounds[i + 1]])
        allocation._used_ram = used_ram.tolist()
        allocation._used_cpu = used_cpu.tolist()
        allocation._version = 1
        return allocation

    def remove_vm(self, vm_id: int) -> VM:
        """Remove a VM from the allocation entirely and return it."""
        vm = self._vms.pop(vm_id)
        host = self._host_of.pop(vm_id)
        self._vms_on[host].discard(vm_id)
        self._used_ram[host] -= vm.ram_mb
        self._used_cpu[host] -= vm.cpu
        self._version += 1
        return vm

    def remove_vms(self, vm_ids: Sequence[int]) -> List[VM]:
        """Remove one batch of departing VMs; all-or-nothing.

        Unknown (or duplicate) IDs raise before any removal happens; the
        version counter bumps once for the batch.  Returns the removed
        VM objects in input order.
        """
        ids = [int(v) for v in vm_ids]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate VM IDs in the departure batch")
        missing = [vm_id for vm_id in ids if vm_id not in self._vms]
        if missing:
            raise KeyError(f"VM {missing[0]} is not placed")
        removed: List[VM] = []
        for vm_id in ids:
            vm = self._vms.pop(vm_id)
            host = self._host_of.pop(vm_id)
            self._vms_on[host].discard(vm_id)
            self._used_ram[host] -= vm.ram_mb
            self._used_cpu[host] -= vm.cpu
            removed.append(vm)
        if ids:
            self._version += 1
        return removed

    def migrate(self, vm_id: int, target_host: int) -> None:
        """Move a VM to ``target_host`` (the paper's ``u -> x``).

        Raises :class:`CapacityError` when the target lacks headroom; a
        migration to the current host is a no-op.
        """
        current = self._host_of[vm_id]
        if current == target_host:
            return
        vm = self._vms[vm_id]
        if not self.can_host(target_host, vm):
            raise CapacityError(
                f"migration of VM {vm_id} to host {target_host} rejected: "
                f"slots={self.free_slots(target_host)}, "
                f"ram={self.free_ram_mb(target_host)}MiB, "
                f"cpu={self.free_cpu(target_host)}"
            )
        self._vms_on[current].discard(vm_id)
        self._used_ram[current] -= vm.ram_mb
        self._used_cpu[current] -= vm.cpu
        self._host_of[vm_id] = target_host
        self._vms_on[target_host].add(vm_id)
        self._used_ram[target_host] += vm.ram_mb
        self._used_cpu[target_host] += vm.cpu
        self._version += 1

    def migrate_many(self, moves: Iterable[tuple]) -> None:
        """Apply one wave of migrations as a batch: validate all, then move.

        ``moves`` is an iterable of ``(vm_id, target_host)``.  Capacity is
        checked for every move *before* any mutation, so a rejected wave
        raises :class:`CapacityError` and leaves the allocation untouched.
        The pre-check treats moves as independent, which is sound when
        target hosts are pairwise distinct — the contract of the wave
        planner that produces these batches
        (``repro.core.rounds.BatchedRoundEngine._plan_wave``).
        """
        host_of = self._host_of
        vms_on = self._vms_on
        used_ram = self._used_ram
        used_cpu = self._used_cpu
        moves = [
            (vm_id, target)
            for vm_id, target in moves
            if host_of[vm_id] != target
        ]
        if not moves:
            return
        vm_ids, targets = zip(*moves)
        movers = self.vms_of(vm_ids)
        at = np.array(targets, dtype=np.int64)
        slots, ram_mb, cpu, _ = self._cluster.capacity_arrays()
        for vm_id, target, vm, max_vms, cap_ram, cap_cpu in zip(
            vm_ids,
            targets,
            movers,
            slots[at].tolist(),
            ram_mb[at].tolist(),
            cpu[at].tolist(),
        ):
            if (
                max_vms - len(vms_on[target]) < 1
                or cap_ram - used_ram[target] < vm.ram_mb
                or cap_cpu - used_cpu[target] < vm.cpu
            ):
                raise CapacityError(
                    f"wave rejected: VM {vm_id} does not fit host {target}: "
                    f"slots={self.free_slots(target)}, "
                    f"ram={self.free_ram_mb(target)}MiB, "
                    f"cpu={self.free_cpu(target)}"
                )
        for vm_id, target, vm in zip(vm_ids, targets, movers):
            current = host_of[vm_id]
            vms_on[current].discard(vm_id)
            used_ram[current] -= vm.ram_mb
            used_cpu[current] -= vm.cpu
            host_of[vm_id] = target
            vms_on[target].add(vm_id)
            used_ram[target] += vm.ram_mb
            used_cpu[target] += vm.cpu
        self._version += 1

    # -- bulk / copy -----------------------------------------------------------------

    def copy(self) -> "Allocation":
        """An independent copy sharing the (immutable) cluster."""
        clone = Allocation(self._cluster)
        clone._vms = dict(self._vms)
        clone._host_of = dict(self._host_of)
        clone._vms_on = [set(s) for s in self._vms_on]
        clone._used_ram = list(self._used_ram)
        clone._used_cpu = list(self._used_cpu)
        return clone

    def as_dict(self) -> Dict[int, int]:
        """Snapshot of the VM → host mapping."""
        return dict(self._host_of)

    def mapping_arrays(
        self, vm_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(host, ram_mb, cpu) arrays for the given VM ids, in order.

        C-speed bulk extraction (``itemgetter``) of what the fast engine
        mirrors at rebuild time; raises ``KeyError`` on unknown ids.
        """
        ids = list(vm_ids)
        if not ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0)
        if len(ids) == 1:
            vm = self._vms[ids[0]]
            return (
                np.array([self._host_of[ids[0]]], dtype=np.int64),
                np.array([vm.ram_mb], dtype=np.int64),
                np.array([vm.cpu]),
            )
        hosts = np.array(itemgetter(*ids)(self._host_of), dtype=np.int64)
        vms = itemgetter(*ids)(self._vms)
        ram = np.fromiter(
            map(attrgetter("ram_mb"), vms), dtype=np.int64, count=len(ids)
        )
        cpu = np.fromiter(map(attrgetter("cpu"), vms), dtype=float, count=len(ids))
        return hosts, ram, cpu

    def apply_mapping(self, mapping: Dict[int, int]) -> None:
        """Re-place already-known VMs according to ``mapping``.

        Used by centralized baselines (GA) to install a computed allocation.
        All VM IDs must already exist in this allocation; capacity is
        enforced by removing every VM first and re-adding them, so a
        mapping that violates capacity raises :class:`CapacityError` and
        leaves the allocation in a *partially rebuilt* state — callers
        should validate candidate mappings beforehand (see
        :meth:`mapping_is_feasible`).
        """
        unknown = set(mapping) - set(self._vms)
        if unknown:
            raise ValueError(f"mapping contains unknown VM IDs: {sorted(unknown)[:5]}")
        vms = {vm_id: self._vms[vm_id] for vm_id in mapping}
        for vm_id in mapping:
            self.remove_vm(vm_id)
        for vm_id, host in mapping.items():
            self.add_vm(vms[vm_id], host)

    def mapping_is_feasible(self, mapping: Dict[int, int]) -> bool:
        """Whether ``mapping`` respects every server's capacity."""
        slots: Dict[int, int] = {}
        ram: Dict[int, int] = {}
        cpu: Dict[int, float] = {}
        for vm_id, host in mapping.items():
            vm = self._vms[vm_id]
            slots[host] = slots.get(host, 0) + 1
            ram[host] = ram.get(host, 0) + vm.ram_mb
            cpu[host] = cpu.get(host, 0.0) + vm.cpu
        for host, used in slots.items():
            cap = self._cluster.server(host).capacity
            if used > cap.max_vms or ram[host] > cap.ram_mb or cpu[host] > cap.cpu:
                return False
        return True

    def validate(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Internal-consistency check; raises AssertionError on corruption.

        C-speed passes over the mapping and the per-host sets, then array
        compares: every VM sits in its mapped host's set, and per host
        (ascending, first failure reported) slots, RAM accounting, CPU
        accounting and RAM capacity hold.

        Returns the per-VM ``(ids, hosts, ram_mb, cpu)`` arrays the check
        extracted, ascending by id (:meth:`mapping_arrays` of every
        placed VM), so a caller that goes on to compare its own mirrors
        against the allocation need not walk the VM objects again.
        """
        n_hosts = self._cluster.n_servers
        in_its_set = np.fromiter(
            map(
                contains,
                map(self._vms_on.__getitem__, self._host_of.values()),
                self._host_of.keys(),
            ),
            dtype=bool,
            count=len(self._host_of),
        )
        if not in_its_set.all():
            lost = int(np.argmin(in_its_set))
            vm_id, host = next(islice(self._host_of.items(), lost, None))
            raise AssertionError(
                f"VM {vm_id} mapped to host {host} but missing from its set"
            )
        ids = np.array(sorted(self._vms), dtype=np.int64)
        hosts, vm_ram, vm_cpu = self.mapping_arrays(ids.tolist())
        lens = np.fromiter(map(len, self._vms_on), dtype=np.int64, count=n_hosts)
        members = np.fromiter(
            chain.from_iterable(self._vms_on),
            dtype=np.int64,
            count=int(lens.sum()),
        )
        # Per-host sums run over the sets' members; sorting them first
        # turns the id lookup into one sequential merge.
        order = np.argsort(members)
        members = members[order]
        member_host = np.repeat(np.arange(n_hosts), lens)[order]
        at = np.searchsorted(ids, members).clip(max=len(ids) - 1)
        stray = members[ids[at] != members] if len(ids) else members
        if stray.size:
            raise KeyError(int(stray[0]))
        ram = np.bincount(
            member_host, weights=vm_ram[at], minlength=n_hosts
        ).astype(np.int64)
        cpu = np.bincount(member_host, weights=vm_cpu[at], minlength=n_hosts)
        cap_slots, cap_ram, _cap_cpu, _nic = self._cluster.capacity_arrays()
        checks = (
            (lens > cap_slots, "over slot capacity"),
            (ram != np.asarray(self._used_ram), "RAM accounting drift"),
            (
                ~(np.abs(cpu - np.asarray(self._used_cpu)) < 1e-9),
                "CPU accounting drift",
            ),
            (ram > cap_ram, "over RAM capacity"),
        )
        bad = np.logical_or.reduce([failed for failed, _ in checks])
        if bad.any():
            host = int(np.argmax(bad))
            what = next(text for failed, text in checks if failed[host])
            raise AssertionError(f"host {host} {what}")
        return ids, hosts, vm_ram, vm_cpu

    def __repr__(self) -> str:
        return f"Allocation(vms={len(self._vms)}, servers={self._cluster.n_servers})"
