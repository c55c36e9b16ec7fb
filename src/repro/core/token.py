"""The migration token and its wire format (paper §V-A, §V-B2).

A token is "a message formed as an array of entries … a 32-bit VM ID
capable of representing over 4 billion IDs before recycling, and an 8-bit
communication level.  Entries are stored in ascending order by VM ID."
The in-memory token is exactly that: two aligned arrays, sorted ``int64``
ids and ``uint8`` levels.  Per-hold queries are one binary search; the
wave-batched scheduler reads and writes the arrays whole.  The wire
encoding packs each entry as an unsigned 32-bit big-endian ID followed by
one level byte, which is exactly how the Xen implementation ships it
between dom0 token servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.cluster.vm import MAX_VM_ID

#: Highest communication level representable in the 8-bit entry field.
MAX_LEVEL_VALUE = 255

#: One wire entry: 32-bit big-endian VM ID + 8-bit level (5 bytes, packed).
_WIRE = np.dtype([("id", ">u4"), ("level", "u1")])


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


def _check_level(level: int) -> None:
    if not 0 <= level <= MAX_LEVEL_VALUE:
        raise ValueError(f"level must fit in 8 bits, got {level}")


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Token:
    """The circulating migration token.

    Maintains the per-VM highest-communication-level estimates that the
    Highest-Level-First policy consults, keeps IDs in ascending order, and
    supports cyclic successor queries (the paper's ``u ⊕ 1``).
    """

    def __init__(self, vm_ids: Iterable[int]) -> None:
        ids = np.unique(np.fromiter(vm_ids, dtype=np.int64))
        if not ids.size:
            raise ValueError("a token must carry at least one VM entry")
        for vm_id in (ids[0], ids[-1]):
            if not 0 <= vm_id <= MAX_VM_ID:
                raise ValueError(f"vm_id must fit in 32 bits, got {vm_id}")
        self._ids = ids
        self._levels = np.zeros(len(ids), dtype=np.uint8)
        self._version = 0

    # -- entry access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def _find(self, vm_id: int) -> int:
        """Index of ``vm_id``'s entry, or -1 when it is not in the token."""
        ids = self._ids
        index = ids.searchsorted(vm_id)
        if index < len(ids) and ids.item(index) == vm_id:
            return index
        return -1

    def _index(self, vm_id: int) -> int:
        index = self._find(vm_id)
        if index < 0:
            raise KeyError(f"VM {vm_id} is not in the token")
        return index

    def __contains__(self, vm_id: int) -> bool:
        return self._find(vm_id) >= 0

    @property
    def vm_ids(self) -> Tuple[int, ...]:
        """All VM IDs in ascending order."""
        return tuple(self._ids.tolist())

    @property
    def ids(self) -> np.ndarray:
        """All VM IDs in ascending order, as a read-only ``int64`` view."""
        return _read_only(self._ids)

    @property
    def levels(self) -> np.ndarray:
        """Recorded levels aligned with :attr:`ids` (read-only ``uint8``)."""
        return _read_only(self._levels)

    @property
    def lowest_id(self) -> int:
        """The paper's v0: the VM with the lowest ID."""
        return int(self._ids[0])

    def entries(self) -> Iterator[TokenEntry]:
        """Iterate entries in ascending ID order."""
        for vm_id, level in zip(self._ids.tolist(), self._levels.tolist()):
            yield TokenEntry(vm_id=vm_id, level=level)

    def level_of(self, vm_id: int) -> int:
        """Recorded highest-level estimate l_v for a VM."""
        return self._levels.item(self._index(vm_id))

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
        index = self._index(vm_id)
        _check_level(level)
        if self._levels.item(index) != level:
            self._levels[index] = level
            self._version += 1

    def raise_level(self, vm_id: int, level: int) -> bool:
        """Record ``level`` only if it exceeds the stored estimate.

        This is Algorithm 1's update rule (`l_v ← l(u,v)` only when larger);
        returns whether an update happened.
        """
        index = self._index(vm_id)
        if self._levels.item(index) >= level:
            return False
        _check_level(level)
        self._levels[index] = level
        self._version += 1
        return True

    def set_levels(self, vm_ids, levels) -> None:
        """Bulk-overwrite recorded level estimates (one version bump).

        ``vm_ids`` and ``levels`` are aligned arrays (or sequences).  The
        wave-batched HLF round uses this to write every entry's measured
        highest level at the end of a round.  Unknown VM ids and
        out-of-range levels raise, leaving the token unchanged.
        """
        vm_ids = np.asarray(vm_ids, dtype=np.int64)
        levels = np.asarray(levels, dtype=np.int64)
        if vm_ids.shape != levels.shape:
            raise ValueError("vm_ids and levels must be aligned")
        if not vm_ids.size:
            return
        at = np.searchsorted(self._ids, vm_ids).clip(max=len(self._ids) - 1)
        missing = np.nonzero(self._ids[at] != vm_ids)[0]
        if missing.size:
            raise KeyError(f"VM {vm_ids[missing[0]]} is not in the token")
        bad = np.nonzero((levels < 0) | (levels > MAX_LEVEL_VALUE))[0]
        if bad.size:
            raise ValueError(f"level must fit in 8 bits, got {levels[bad[0]]}")
        if np.array_equal(self._levels[at], levels):
            return
        self._levels[at] = levels
        self._version += 1

    # -- membership management ---------------------------------------------------

    def add_vm(self, vm_id: int, level: int = 0) -> None:
        """Insert a (new) VM entry keeping ascending ID order."""
        if vm_id in self:
            raise ValueError(f"VM {vm_id} is already in the token")
        if not 0 <= vm_id <= MAX_VM_ID:
            raise ValueError(f"vm_id must fit in 32 bits, got {vm_id}")
        _check_level(level)
        index = int(np.searchsorted(self._ids, vm_id))
        self._ids = np.insert(self._ids, index, vm_id)
        self._levels = np.insert(self._levels, index, level)
        self._version += 1

    def remove_vm(self, vm_id: int) -> None:
        """Drop a VM entry (e.g. the VM terminated)."""
        index = self._index(vm_id)
        if len(self._ids) == 1:
            raise ValueError("cannot remove the last entry of a token")
        self._ids = np.delete(self._ids, index)
        self._levels = np.delete(self._levels, index)
        self._version += 1

    # -- circulation ----------------------------------------------------------------

    def successor(self, vm_id: int) -> int:
        """The paper's ``vm_id ⊕ 1``: next ID in ascending cyclic order.

        ``vm_id`` need not itself be in the token (the scan is by value),
        so the query remains valid right after an entry is removed.
        """
        index = int(np.searchsorted(self._ids, vm_id, side="right"))
        if index == len(self._ids):
            index = 0
        return int(self._ids[index])

    def rotation_from(self, vm_id: int) -> List[int]:
        """The full token round starting at ``vm_id``, in visit order.

        This is the round-order *snapshot* the wave-batched scheduler
        consumes: the cyclic ascending-ID sequence a Round-Robin token
        would traverse over one iteration (``vm_id`` itself first when it
        is in the token, else its successor).
        """
        index = int(np.searchsorted(self._ids, vm_id))
        return np.roll(self._ids, -index).tolist()

    def vms_at_level(self, level: int) -> List[int]:
        """All VM IDs whose recorded estimate equals ``level`` (ascending)."""
        if not 0 <= level <= MAX_LEVEL_VALUE:
            return []
        return self._ids[self._levels == level].tolist()

    def max_recorded_level(self) -> int:
        """Highest level estimate currently recorded in the token."""
        return int(self._levels.max())

    def levels_present(self) -> List[int]:
        """Levels that currently have at least one VM recorded (ascending)."""
        return np.flatnonzero(np.bincount(self._levels)).tolist()

    # -- wire format --------------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to the §V-B2 wire format (per entry: u32 ID + u8 level)."""
        wire = np.empty(len(self._ids), dtype=_WIRE)
        wire["id"] = self._ids
        wire["level"] = self._levels
        return wire.tobytes()

    @classmethod
    def decode(cls, payload: bytes) -> "Token":
        """Parse a token message; validates size and ascending ID order."""
        if len(payload) == 0 or len(payload) % _WIRE.itemsize != 0:
            raise ValueError(
                f"token payload must be a positive multiple of "
                f"{_WIRE.itemsize} bytes, got {len(payload)}"
            )
        wire = np.frombuffer(payload, dtype=_WIRE)
        ids = wire["id"].astype(np.int64)
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError(
                "token entries must be in strictly ascending ID order"
            )
        token = cls.__new__(cls)
        token._ids = ids
        token._levels = wire["level"].copy()
        token._version = 0
        return token

    @property
    def wire_size(self) -> int:
        """Size in bytes of the encoded token (5 bytes per VM)."""
        return len(self._ids) * _WIRE.itemsize

    def __repr__(self) -> str:
        return f"Token(vms={len(self._ids)}, wire_size={self.wire_size}B)"
