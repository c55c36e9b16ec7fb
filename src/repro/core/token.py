"""The migration token and its wire format (paper §V-A, §V-B2).

A token is "a message formed as an array of entries … a 32-bit VM ID
capable of representing over 4 billion IDs before recycling, and an 8-bit
communication level.  Entries are stored in ascending order by VM ID."
The in-memory token is exactly that: two aligned arrays, sorted ``int64``
ids and ``uint8`` levels.  Membership and successor queries are one
binary search; a policy's round order and round end read and write the
arrays whole.  The wire encoding packs each entry as an unsigned 32-bit
big-endian ID followed by one level byte, which is exactly how the Xen
implementation ships it between dom0 token servers.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.cluster.vm import MAX_VM_ID

#: Highest communication level representable in the 8-bit entry field.
MAX_LEVEL_VALUE = 255

#: One wire entry: 32-bit big-endian VM ID + 8-bit level (5 bytes, packed).
_WIRE = np.dtype([("id", ">u4"), ("level", "u1")])


def _is_id_column(vm_ids) -> bool:
    """Whether ``vm_ids`` is a strictly ascending ``int64`` array."""
    return (
        isinstance(vm_ids, np.ndarray)
        and vm_ids.dtype == np.int64
        and vm_ids.ndim == 1
        and not (vm_ids[1:] <= vm_ids[:-1]).any()
    )


def _check_ids(ids: np.ndarray) -> None:
    """Refuse an empty population or an id outside the 32-bit field."""
    if not ids.size:
        raise ValueError("a token must carry at least one VM entry")
    for vm_id in (ids[0], ids[-1]):
        if not 0 <= vm_id <= MAX_VM_ID:
            raise ValueError(f"vm_id must fit in 32 bits, got {vm_id}")


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
        """Entries for ``vm_ids`` (any order, duplicates dropped), all at
        level 0.  An ascending ``int64`` array — an allocation's id
        column — is kept by reference, not copied."""
        if not _is_id_column(vm_ids):
            vm_ids = np.unique(np.fromiter(vm_ids, dtype=np.int64))
        _check_ids(vm_ids)
        self._ids = vm_ids
        self._levels = np.zeros(len(vm_ids), dtype=np.uint8)

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

    def set_levels(self, vm_ids, levels) -> None:
        """Bulk-overwrite recorded level estimates.

        ``vm_ids`` and ``levels`` are aligned arrays (or sequences).  HLF
        uses this to write every entry's measured highest level at the
        end of a round.  Unknown VM ids and out-of-range levels raise,
        leaving the token unchanged.
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
        self._levels[at] = levels

    # -- membership management ---------------------------------------------------

    def admit(self, vm_ids, column: np.ndarray) -> None:
        """Add one batch of arrivals at level 0.

        ``column`` is the population's ascending ``int64`` id column once
        ``vm_ids`` have joined (an allocation's own, kept by reference);
        entries already in the token keep their level.  An id already in
        the token, or one outside the 32-bit field, raises and leaves the
        token unchanged.
        """
        vm_ids = np.asarray(vm_ids, dtype=np.int64).reshape(-1)
        at = self._ids.searchsorted(vm_ids)
        taken = self._ids[at.clip(max=len(self._ids) - 1)] == vm_ids
        if taken.any():
            raise ValueError(f"VM {vm_ids[taken][0]} is already in the token")
        self._rebase(column, np.insert(self._levels, at, 0))

    def retire(self, vm_ids, column: np.ndarray) -> None:
        """Drop one batch of departures.

        ``column`` is the population's id column once ``vm_ids`` have
        left; the remaining entries keep their level.  An id not in the
        token raises ``KeyError``, and emptying the token ``ValueError``,
        leaving it unchanged.
        """
        vm_ids = np.asarray(vm_ids, dtype=np.int64).reshape(-1)
        at = self._ids.searchsorted(vm_ids).clip(max=len(self._ids) - 1)
        missing = self._ids[at] != vm_ids
        if missing.any():
            raise KeyError(f"VM {vm_ids[missing][0]} is not in the token")
        self._rebase(column, np.delete(self._levels, at))

    def _rebase(self, column: np.ndarray, levels: np.ndarray) -> None:
        """Point the token at ``column`` with ``levels`` aligned to it."""
        if not _is_id_column(column) or len(column) != len(levels):
            raise ValueError(
                "the token's ids must be the population's ascending int64 "
                "id column"
            )
        _check_ids(column)
        self._ids = column
        self._levels = levels

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

    def rotation_from(self, vm_id: int) -> np.ndarray:
        """The full token round starting at ``vm_id``, in visit order.

        This is the round-order *snapshot* the wave-batched scheduler
        consumes: the cyclic ascending-ID sequence a Round-Robin token
        would traverse over one iteration (``vm_id`` itself first when it
        is in the token, else its successor), as a fresh ``int64`` array.
        """
        index = int(np.searchsorted(self._ids, vm_id))
        return np.roll(self._ids, -index)

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
        return token

    @property
    def wire_size(self) -> int:
        """Size in bytes of the encoded token (5 bytes per VM)."""
        return len(self._ids) * _WIRE.itemsize
