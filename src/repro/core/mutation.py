"""One vocabulary for changes to the live state.

VMs arrive and leave, λ is re-estimated every measurement window (§IV),
hosts are resized, the §V-C budget moves and drains move VMs.  Each
change is one frozen, picklable record of what changes; the records
carry no behaviour.  :meth:`SCOREScheduler._apply
<repro.core.scheduler.SCOREScheduler._apply>` writes them, one arm per
kind, in one place.  A sharded scheduler's domain fleet never sees a
change: any one retires the fleet, and the next run rebuilds it from
the global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class TrafficDelta:
    """Absolute new λ for a batch of pairs (a rate of 0 removes one)."""

    us: np.ndarray
    vs: np.ndarray
    rates: np.ndarray


@dataclass(frozen=True, eq=False)
class Admit:
    """Arriving VMs, each placed on its host; they join with no traffic."""

    vms: tuple
    hosts: np.ndarray


@dataclass(frozen=True, eq=False)
class Retire:
    """Departing VMs leave the allocation and the token; a
    :class:`TrafficDelta` applied first has zeroed their flows."""

    vm_ids: Tuple[int, ...]


@dataclass(frozen=True)
class Capacity:
    """Resize one host in place; values left ``None`` keep their setting."""

    host: int
    max_vms: Optional[int] = None
    nic_bps: Optional[float] = None
    ram_mb: Optional[int] = None
    cpu: Optional[float] = None


@dataclass(frozen=True)
class Threshold:
    """A new §V-C migration-bandwidth budget (``None`` lifts it)."""

    threshold: Optional[float]


@dataclass(frozen=True)
class Migrate:
    """Move one VM to ``target`` (a drain move, or a per-hold oracle's decision)."""

    vm_id: int
    target: int
