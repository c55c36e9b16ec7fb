"""One vocabulary for changes to the live state.

VMs arrive and leave, λ is re-estimated every measurement window (§IV),
hosts are resized and the §V-C budget moves.  Each change is one frozen,
picklable :class:`Mutation` that owns its behaviour:

* ``apply`` writes it to a :class:`Stack` — the scheduler's own or a
  ``repro.shard.ShardDomain`` (its own stack), through the same code;
* ``route`` slices it over a shard partition's maps (the domain of each
  VM id and of each host, ``-1`` = none) into ``(domain_id, mutation)``
  pairs, or returns ``None`` when no domain can absorb it (the fleet is
  then stale and rebuilt); ``relabel`` keeps the VM map in step;
* ``localized`` renumbers a routed mutation's hosts for one domain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from itertools import compress
from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

Routed = Optional[List[Tuple[int, "Mutation"]]]


class Stack(NamedTuple):
    """What a mutation writes to."""

    #: The fast engine, bound to the allocation and matrix it writes
    #: through (``fast.allocation``, ``fast.traffic``).
    fast: Any
    engine: Any
    token: Any


def lookup(table: np.ndarray, keys) -> np.ndarray:
    """``table[keys]``, with ``-1`` for keys outside the table."""
    keys = np.asarray(keys, dtype=np.int64)
    inside = (keys >= 0) & (keys < len(table))
    return np.where(inside, table[np.clip(keys, 0, len(table) - 1)], -1)


def _split(domains: np.ndarray, keep=True):
    """``(domain, mask)`` per distinct domain among ``keep``, ascending."""
    keep = np.broadcast_to(keep, domains.shape)
    for d in np.unique(domains[keep]).tolist():
        yield d, keep & (domains == d)


class Mutation(ABC):
    """One change to the live state."""

    @abstractmethod
    def apply(self, stack: Stack):
        """Write this change; a refused change raises before any write."""

    @abstractmethod
    def route(self, domain_of_vm: np.ndarray, domain_of_host: np.ndarray) -> Routed:
        """The per-domain mutations a live fleet applies, or ``None``."""

    def localized(self, local) -> "Mutation":
        """This mutation with host ids mapped through ``local``."""
        return self

    def relabel(self, domain_of_vm: np.ndarray, domain_of_host) -> np.ndarray:
        """The VM → domain map once applied (churn kinds change it)."""
        return domain_of_vm


@dataclass(frozen=True, eq=False)
class TrafficDelta(Mutation):
    """Absolute new λ for a batch of pairs (a rate of 0 removes one)."""

    us: np.ndarray
    vs: np.ndarray
    rates: np.ndarray

    def apply(self, stack: Stack) -> int:
        """One λ write through the engine, which splices the store it
        binds and shifts its caches (a VM it does not place raises
        ``KeyError`` first).  Returns the number of pair changes applied."""
        return stack.fast.apply_traffic_delta((self.us, self.vs, self.rates))

    def route(self, domain_of_vm, domain_of_host) -> Routed:
        du, dv = lookup(domain_of_vm, self.us), lookup(domain_of_vm, self.vs)
        if bool(((du < 0) | (dv < 0)).any()):
            return None
        # Cross-domain pairs are left out on purpose: no domain matrix
        # holds them, and reconciliation re-reads the live global traffic.
        return [
            (d, TrafficDelta(self.us[at], self.vs[at], self.rates[at]))
            for d, at in _split(du, du == dv)
        ]


@dataclass(frozen=True, eq=False)
class Admit(Mutation):
    """Arriving VMs, each placed on its host; they join with no traffic."""

    vms: tuple
    hosts: np.ndarray

    def apply(self, stack: Stack) -> None:
        """Place the batch (validated whole before any write), then add
        the token entries."""
        token, allocation = stack.token, stack.fast.allocation
        # A domain whose whole population retired still holds one token
        # entry (a token cannot be emptied); it leaves once arrivals join.
        stale = token.vm_ids if self.vms and not allocation.n_vms else ()
        stack.fast.add_vms(self.vms, self.hosts)
        for vm in self.vms:
            if vm.vm_id not in token:
                token.add_vm(vm.vm_id)
        for vm_id in stale:
            if vm_id not in allocation:
                token.remove_vm(vm_id)

    def route(self, domain_of_vm, domain_of_host) -> Routed:
        domains = lookup(domain_of_host, self.hosts)
        if bool((domains < 0).any()):
            return None
        return [
            (d, Admit(tuple(compress(self.vms, at)), self.hosts[at]))
            for d, at in _split(domains)
        ]

    def localized(self, local) -> "Admit":
        return replace(self, hosts=local(self.hosts))

    def relabel(self, domain_of_vm, domain_of_host) -> np.ndarray:
        ids = np.array([vm.vm_id for vm in self.vms], dtype=np.int64)
        if ids.size and ids.max() >= len(domain_of_vm):
            grown = np.full(ids.max() + 1, -1, dtype=np.int64)
            grown[: len(domain_of_vm)] = domain_of_vm
            domain_of_vm = grown
        domain_of_vm[ids] = domain_of_host[self.hosts]
        return domain_of_vm


@dataclass(frozen=True, eq=False)
class Retire(Mutation):
    """Departing VMs leave the allocation and the token; a
    :class:`TrafficDelta` applied first has zeroed their flows."""

    vm_ids: Tuple[int, ...]

    def apply(self, stack: Stack) -> None:
        stack.fast.remove_vms(self.vm_ids)
        for vm_id in self.vm_ids:
            # A token keeps its last entry even when the population is
            # gone: a domain round skips an empty allocation, and the next
            # Admit evicts the stale entry.
            if len(stack.token) > 1:
                stack.token.remove_vm(vm_id)

    def route(self, domain_of_vm, domain_of_host) -> Routed:
        domains = lookup(domain_of_vm, self.vm_ids)
        if bool((domains < 0).any()):
            return None
        return [
            (d, Retire(tuple(compress(self.vm_ids, at))))
            for d, at in _split(domains)
        ]

    def relabel(self, domain_of_vm, domain_of_host) -> np.ndarray:
        domain_of_vm[list(self.vm_ids)] = -1
        return domain_of_vm


@dataclass(frozen=True)
class Capacity(Mutation):
    """Resize one host in place; values left ``None`` keep their setting."""

    host: int
    max_vms: Optional[int] = None
    nic_bps: Optional[float] = None
    ram_mb: Optional[int] = None
    cpu: Optional[float] = None

    def apply(self, stack: Stack) -> None:
        stack.fast.allocation.set_host_capacity(
            self.host, max_vms=self.max_vms, nic_bps=self.nic_bps,
            ram_mb=self.ram_mb, cpu=self.cpu,
        )

    def route(self, domain_of_vm, domain_of_host) -> Routed:
        d = int(lookup(domain_of_host, self.host))
        return None if d < 0 else [(d, self)]

    def localized(self, local) -> "Capacity":
        return replace(self, host=int(local(self.host)))


@dataclass(frozen=True)
class Threshold(Mutation):
    """A new §V-C migration-bandwidth budget (``None`` lifts it)."""

    threshold: Optional[float]

    def apply(self, stack: Stack) -> None:
        # Decisions the round cache carries were made under the old
        # budget; its budget-independent scored deltas stay.
        stack.engine.set_bandwidth_threshold(self.threshold)
        stack.fast.invalidate_round_decisions()

    def route(self, domain_of_vm, domain_of_host) -> Routed:
        # Every domain owns at least one pod, so ids run 0..max.
        return [(d, self) for d in range(int(domain_of_host.max()) + 1)]


@dataclass(frozen=True)
class Migrate(Mutation):
    """Move one VM to ``target`` (a drain or a reconciliation move)."""

    vm_id: int
    target: int

    def apply(self, stack: Stack) -> None:
        stack.fast.apply_migration(self.vm_id, self.target)

    def route(self, domain_of_vm, domain_of_host) -> Routed:
        d = int(lookup(domain_of_vm, self.vm_id))
        if d < 0 or d != int(lookup(domain_of_host, self.target)):
            return None  # a cross-domain move outdates the partition
        return [(d, self)]

    def localized(self, local) -> "Migrate":
        return replace(self, target=int(local(self.target)))
