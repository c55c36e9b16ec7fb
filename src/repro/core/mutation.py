"""One vocabulary for changes to the live state.

VMs arrive and leave, λ is re-estimated every measurement window (§IV),
hosts are resized and the §V-C budget moves.  Each change is one frozen,
picklable :class:`Mutation` that owns its behaviour: ``apply`` writes it
to the scheduler's :class:`Stack`.  A sharded scheduler's domain fleet
never sees a mutation: any one retires the fleet, and the next run
rebuilds it from the global state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Tuple

import numpy as np


class Stack(NamedTuple):
    """What a mutation writes to."""

    #: The fast engine, bound to the allocation and matrix it writes
    #: through (``fast.allocation``, ``fast.traffic``).
    fast: Any
    engine: Any
    token: Any


class Mutation(ABC):
    """One change to the live state."""

    @abstractmethod
    def apply(self, stack: Stack):
        """Write this change; a refused change raises before any write."""


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


@dataclass(frozen=True, eq=False)
class Admit(Mutation):
    """Arriving VMs, each placed on its host; they join with no traffic."""

    vms: tuple
    hosts: np.ndarray

    def apply(self, stack: Stack) -> None:
        """Place the batch (validated whole before any write), then add
        the token entries."""
        stack.fast.add_vms(self.vms, self.hosts)
        for vm in self.vms:
            stack.token.add_vm(vm.vm_id)


@dataclass(frozen=True, eq=False)
class Retire(Mutation):
    """Departing VMs leave the allocation and the token; a
    :class:`TrafficDelta` applied first has zeroed their flows."""

    vm_ids: Tuple[int, ...]

    def apply(self, stack: Stack) -> None:
        stack.fast.remove_vms(self.vm_ids)
        for vm_id in self.vm_ids:
            stack.token.remove_vm(vm_id)


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


@dataclass(frozen=True)
class Threshold(Mutation):
    """A new §V-C migration-bandwidth budget (``None`` lifts it)."""

    threshold: Optional[float]

    def apply(self, stack: Stack) -> None:
        stack.engine.set_bandwidth_threshold(self.threshold)


@dataclass(frozen=True)
class Migrate(Mutation):
    """Move one VM to ``target`` (a drain move, or a per-hold oracle's decision)."""

    vm_id: int
    target: int

    def apply(self, stack: Stack) -> None:
        stack.fast.apply_migration(self.vm_id, self.target)
