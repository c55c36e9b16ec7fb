"""The migration token and its wire format (paper §V-A, §V-B2).

A token is "a message formed as an array of entries … a 32-bit VM ID
capable of representing over 4 billion IDs before recycling, and an 8-bit
communication level.  Entries are stored in ascending order by VM ID."
The wire encoding packs each entry as an unsigned 32-bit big-endian ID
followed by one level byte, which is exactly how the Xen implementation
ships it between dom0 token servers.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.vm import MAX_VM_ID

#: Highest communication level representable in the 8-bit entry field.
MAX_LEVEL_VALUE = 255

_ENTRY = struct.Struct("!IB")  # 32-bit VM ID + 8-bit level


@dataclass(frozen=True)
class TokenEntry:
    """One token entry: a VM ID and its recorded highest level estimate."""

    vm_id: int
    level: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.vm_id <= MAX_VM_ID:
            raise ValueError(f"vm_id must fit in 32 bits, got {self.vm_id}")
        if not 0 <= self.level <= MAX_LEVEL_VALUE:
            raise ValueError(f"level must fit in 8 bits, got {self.level}")


class Token:
    """The circulating migration token.

    Maintains the per-VM highest-communication-level estimates that the
    Highest-Level-First policy consults, keeps IDs in ascending order, and
    supports cyclic successor queries (the paper's ``u ⊕ 1``).
    """

    def __init__(self, vm_ids: Iterable[int]) -> None:
        ids = sorted(set(vm_ids))
        if not ids:
            raise ValueError("a token must carry at least one VM entry")
        for vm_id in (ids[0], ids[-1]):
            if not 0 <= vm_id <= MAX_VM_ID:
                raise ValueError(f"vm_id must fit in 32 bits, got {vm_id}")
        self._ids: List[int] = ids
        self._levels: Dict[int, int] = {vm_id: 0 for vm_id in ids}
        # Per-level sorted ID buckets (levels with no VMs are absent) plus a
        # mutation counter; what lets the Highest-Level-First policy find
        # level successors in O(log n) instead of scanning all IDs.
        self._buckets: Dict[int, List[int]] = {0: list(ids)}
        self._version = 0

    # -- entry access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, vm_id: int) -> bool:
        return vm_id in self._levels

    @property
    def vm_ids(self) -> Tuple[int, ...]:
        """All VM IDs in ascending order."""
        return tuple(self._ids)

    @property
    def lowest_id(self) -> int:
        """The paper's v0: the VM with the lowest ID."""
        return self._ids[0]

    def entries(self) -> Iterator[TokenEntry]:
        """Iterate entries in ascending ID order."""
        for vm_id in self._ids:
            yield TokenEntry(vm_id=vm_id, level=self._levels[vm_id])

    def level_of(self, vm_id: int) -> int:
        """Recorded highest-level estimate l_v for a VM."""
        return self._levels[vm_id]

    def levels_of(self, vm_ids: Iterable[int]) -> np.ndarray:
        """Recorded level estimates of many VMs, in order (KeyError on
        ids outside the token) — the bulk sibling of :meth:`level_of`."""
        return np.fromiter(
            map(self._levels.__getitem__, vm_ids), dtype=np.int64
        )

    @property
    def version(self) -> int:
        """Counter bumped on every mutation (levels or membership).

        Policies maintaining derived indexes (e.g. the HLF unchecked
        buckets) compare it to detect out-of-band token mutations and
        rebuild instead of drifting.
        """
        return self._version

    def set_level(self, vm_id: int, level: int) -> None:
        """Overwrite a VM's recorded level (bounds-checked)."""
        if vm_id not in self._levels:
            raise KeyError(f"VM {vm_id} is not in the token")
        if not 0 <= level <= MAX_LEVEL_VALUE:
            raise ValueError(f"level must fit in 8 bits, got {level}")
        old = self._levels[vm_id]
        if old == level:
            return
        self._bucket_remove(old, vm_id)
        self._bucket_add(level, vm_id)
        self._levels[vm_id] = level
        self._version += 1

    def raise_level(self, vm_id: int, level: int) -> bool:
        """Record ``level`` only if it exceeds the stored estimate.

        This is Algorithm 1's update rule (`l_v ← l(u,v)` only when larger);
        returns whether an update happened.
        """
        if self._levels[vm_id] < level:
            self.set_level(vm_id, level)
            return True
        return False

    # -- membership management ---------------------------------------------------

    def add_vm(self, vm_id: int, level: int = 0) -> None:
        """Insert a (new) VM entry keeping ascending ID order."""
        if vm_id in self._levels:
            raise ValueError(f"VM {vm_id} is already in the token")
        if not 0 <= vm_id <= MAX_VM_ID:
            raise ValueError(f"vm_id must fit in 32 bits, got {vm_id}")
        if not 0 <= level <= MAX_LEVEL_VALUE:
            raise ValueError(f"level must fit in 8 bits, got {level}")
        insort(self._ids, vm_id)
        self._levels[vm_id] = level
        self._bucket_add(level, vm_id)
        self._version += 1

    def remove_vm(self, vm_id: int) -> None:
        """Drop a VM entry (e.g. the VM terminated)."""
        if vm_id not in self._levels:
            raise KeyError(f"VM {vm_id} is not in the token")
        if len(self._ids) == 1:
            raise ValueError("cannot remove the last entry of a token")
        index = bisect_left(self._ids, vm_id)
        del self._ids[index]
        self._bucket_remove(self._levels[vm_id], vm_id)
        del self._levels[vm_id]
        self._version += 1

    # -- circulation ----------------------------------------------------------------

    def successor(self, vm_id: int) -> int:
        """The paper's ``vm_id ⊕ 1``: next ID in ascending cyclic order.

        ``vm_id`` need not itself be in the token (the scan is by value),
        so the query remains valid right after an entry is removed.
        """
        index = bisect_right(self._ids, vm_id)
        if index == len(self._ids):
            index = 0
        return self._ids[index]

    def rotation_from(self, vm_id: int) -> List[int]:
        """The full token round starting at ``vm_id``, in visit order.

        This is the round-order *snapshot* the wave-batched scheduler
        consumes: the cyclic ascending-ID sequence a Round-Robin token
        would traverse over one iteration (``vm_id`` itself first when it
        is in the token, else its successor).  O(|V|) and allocation-free
        beyond the result list.
        """
        index = bisect_left(self._ids, vm_id)
        if index == len(self._ids):
            index = 0
        return self._ids[index:] + self._ids[:index]

    def set_levels(self, levels: Dict[int, int]) -> None:
        """Bulk-overwrite recorded level estimates (one version bump).

        The wave-batched HLF round uses this to refresh every entry from
        the measured highest levels at the end of a round instead of |V|
        single :meth:`set_level` calls; buckets are rebuilt wholesale.
        Unknown VM ids and out-of-range levels raise, leaving the token
        unchanged.
        """
        for vm_id, level in levels.items():
            if vm_id not in self._levels:
                raise KeyError(f"VM {vm_id} is not in the token")
            if not 0 <= level <= MAX_LEVEL_VALUE:
                raise ValueError(f"level must fit in 8 bits, got {level}")
        changed = False
        for vm_id, level in levels.items():
            if self._levels[vm_id] != level:
                self._levels[vm_id] = level
                changed = True
        if not changed:
            return
        buckets: Dict[int, List[int]] = {}
        for vm_id in self._ids:
            buckets.setdefault(self._levels[vm_id], []).append(vm_id)
        self._buckets = buckets
        self._version += 1

    def raise_levels(self, levels: Dict[int, int]) -> int:
        """Bulk raise-only update: Algorithm 1's rule over many entries.

        Each entry is raised to its given level only when that exceeds the
        stored estimate (``l_v ← l(u,v)`` only when larger) — what the
        wave-batched HLF round applies per wave instead of |settled| single
        :meth:`raise_level` calls.  One version bump when anything changed;
        unknown VM ids and out-of-range levels raise, leaving the token
        unchanged.  Returns the number of entries raised.
        """
        for vm_id, level in levels.items():
            if vm_id not in self._levels:
                raise KeyError(f"VM {vm_id} is not in the token")
            if not 0 <= level <= MAX_LEVEL_VALUE:
                raise ValueError(f"level must fit in 8 bits, got {level}")
        raised = 0
        for vm_id, level in levels.items():
            old = self._levels[vm_id]
            if old < level:
                self._bucket_remove(old, vm_id)
                self._bucket_add(level, vm_id)
                self._levels[vm_id] = level
                raised += 1
        if raised:
            self._version += 1
        return raised

    def vms_at_level(self, level: int) -> List[int]:
        """All VM IDs whose recorded estimate equals ``level`` (ascending).

        Served from the per-level bucket: O(bucket size), not O(|V|).
        """
        return list(self._buckets.get(level, ()))

    def max_recorded_level(self) -> int:
        """Highest level estimate currently recorded in the token."""
        return max(self._buckets)

    def levels_present(self) -> List[int]:
        """Levels that currently have at least one VM recorded (ascending)."""
        return sorted(self._buckets)

    # -- bucket maintenance -----------------------------------------------------

    def _bucket_add(self, level: int, vm_id: int) -> None:
        bucket = self._buckets.get(level)
        if bucket is None:
            self._buckets[level] = [vm_id]
        else:
            insort(bucket, vm_id)

    def _bucket_remove(self, level: int, vm_id: int) -> None:
        bucket = self._buckets[level]
        if len(bucket) == 1:
            del self._buckets[level]
        else:
            del bucket[bisect_left(bucket, vm_id)]

    # -- wire format --------------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to the §V-B2 wire format (per entry: u32 ID + u8 level)."""
        return b"".join(
            _ENTRY.pack(vm_id, self._levels[vm_id]) for vm_id in self._ids
        )

    @classmethod
    def decode(cls, payload: bytes) -> "Token":
        """Parse a token message; validates size and ascending ID order."""
        if len(payload) == 0 or len(payload) % _ENTRY.size != 0:
            raise ValueError(
                f"token payload must be a positive multiple of {_ENTRY.size} "
                f"bytes, got {len(payload)}"
            )
        token = cls.__new__(cls)
        token._ids = []
        token._levels = {}
        token._buckets = {}
        token._version = 0
        previous = -1
        for offset in range(0, len(payload), _ENTRY.size):
            vm_id, level = _ENTRY.unpack_from(payload, offset)
            if vm_id <= previous:
                raise ValueError(
                    "token entries must be in strictly ascending ID order"
                )
            previous = vm_id
            token._ids.append(vm_id)
            token._levels[vm_id] = level
            token._buckets.setdefault(level, []).append(vm_id)
        return token

    @property
    def wire_size(self) -> int:
        """Size in bytes of the encoded token (5 bytes per VM)."""
        return len(self._ids) * _ENTRY.size

    def __repr__(self) -> str:
        return f"Token(vms={len(self._ids)}, wire_size={self.wire_size}B)"
