"""Zero-copy slab transport for sharded round outcomes.

Pickling every :class:`~repro.shard.domain.DomainRoundOutcome` — six
decision columns per domain — through a pipe each round serializes
megabytes per iteration through the pickle machinery on both ends at
hyperscale.  This module replaces the payload path with preallocated
``multiprocessing.shared_memory`` slabs:

* The parent creates **one slab per worker** before forking, sized from
  the worker's owned populations (a round mints exactly one decision
  per VM, so the bound is static).  Workers inherit the
  open mapping through ``fork`` — no re-attach, so the segment is
  registered with the resource tracker exactly once, in the parent.
* Each slab is split into **two buffers**; round ``k`` lands in buffer
  ``k % 2``.  A worker may therefore start round ``k+1`` while the
  parent still reads round ``k`` (the one-round-ahead pipelining
  contract — see ``docs/sharding.md``); buffer ``k % 2`` is not reused
  before round ``k+2``, which the parent only commands after fully
  decoding round ``k``.
* A domain outcome is packed as one contiguous **frame** of aligned
  decision columns — vm / source / target / wave ``int32``, delta
  ``float64``, reason ``int8``: 25 bytes per hold — and the pipe
  carries only a tiny header tuple (offset, count, scalar stats).  The
  migrated rows' ``wave`` column carries the round's moves, so no
  separate move list travels.  Decoding copies the columns out of the
  slab into fresh arrays, so the buffer is free for reuse the moment
  the header is processed.

Frames fall back to the pickled pipe path (a ``bulk`` header) when a
round outgrows its buffer — churn can grow a domain past its build-time
bound — or when an id exceeds the int32 range; correctness never
depends on the fast path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.rounds import DecisionColumns
from repro.shard.domain import DomainRoundOutcome

#: int32 bound for ids shipped through a slab (vm ids and global hosts).
_I32_MAX = 2**31 - 1

#: Pipe header tags (first element of every worker -> parent message).
FRAME = "frame"
BULK = "bulk"

#: Slack multiplier over the build-time population when sizing a slab,
#: so moderate churn does not immediately force the bulk fallback.
_CAPACITY_SLACK = 1.25
#: Fixed per-buffer headroom (bytes) for tiny domains and empty rounds.
_CAPACITY_FLOOR = 4096


def _align(offset: int) -> int:
    """Next 8-byte-aligned offset (float64 views need natural alignment)."""
    return (offset + 7) & ~7


def frame_bytes(n_decisions: int) -> int:
    """Bytes one packed outcome frame of ``n_decisions`` holds occupies."""
    total = 4 * _align(4 * n_decisions)  # vm / source / target / wave, int32
    total += _align(8 * n_decisions)  # delta, float64
    total += _align(n_decisions)  # reason, int8
    return total


def buffer_bytes(n_vms_of_domains: List[int]) -> int:
    """Per-buffer capacity for a worker owning the given populations.

    A wave-batched round visits every VM once, so per domain a round
    emits exactly ``n_vms`` decision rows.  Slack covers post-build
    churn.
    """
    total = 0
    for n_vms in n_vms_of_domains:
        bound = int(n_vms * _CAPACITY_SLACK) + 64
        total += frame_bytes(bound) + _CAPACITY_FLOOR
    return max(total, _CAPACITY_FLOOR)


def _put(buf: memoryview, offset: int, array: np.ndarray) -> int:
    """Copy ``array`` into the slab at ``offset``; return the end."""
    raw = array.tobytes()
    end = offset + len(raw)
    buf[offset:end] = raw
    return _align(end)


def _take(
    buf: memoryview, offset: int, count: int, dtype
) -> Tuple[np.ndarray, int]:
    """Copy ``count`` items of ``dtype`` out of the slab at ``offset``."""
    nbytes = count * np.dtype(dtype).itemsize
    array = np.frombuffer(buf, dtype=dtype, count=count, offset=offset).copy()
    return array, _align(offset + nbytes)


def pack_outcome(
    buf: memoryview,
    offset: int,
    capacity_end: int,
    outcome: DomainRoundOutcome,
    round_index: int,
    solve_s: float,
) -> Optional[Tuple[tuple, int]]:
    """Pack one outcome into the slab; ``(header, end_offset)`` or ``None``.

    ``None`` means the frame does not fit (or an id overflows int32) and
    the caller must ship the outcome through the pickled ``bulk`` path.
    """
    decisions = outcome.decisions
    n_dec = len(decisions)
    if offset + frame_bytes(n_dec) > capacity_end:
        return None
    ids = (decisions.vm, decisions.source, decisions.target)
    if n_dec and max(int(column.max()) for column in ids) > _I32_MAX:
        return None

    start = offset
    for column in (*ids, decisions.wave):
        offset = _put(buf, offset, column.astype(np.int32))
    offset = _put(buf, offset, np.ascontiguousarray(decisions.delta))
    offset = _put(buf, offset, np.ascontiguousarray(decisions.reason))
    header = (
        FRAME,
        round_index,
        outcome.domain_id,
        outcome.migrations,
        outcome.waves,
        solve_s,
        start,
        n_dec,
    )
    return header, offset


def unpack_outcome(buf: memoryview, header: tuple) -> DomainRoundOutcome:
    """Decode (and copy) one packed frame back into a round outcome."""
    (
        _tag,
        _round_index,
        domain_id,
        migrations,
        waves,
        _solve_s,
        offset,
        n_dec,
    ) = header
    decisions = DecisionColumns(n_dec)
    for name in ("vm", "source", "target"):
        column, offset = _take(buf, offset, n_dec, np.int32)
        setattr(decisions, name, column.astype(np.int64))
    decisions.wave, offset = _take(buf, offset, n_dec, np.int32)
    decisions.delta, offset = _take(buf, offset, n_dec, np.float64)
    decisions.reason, _ = _take(buf, offset, n_dec, np.int8)
    return DomainRoundOutcome(
        domain_id=domain_id,
        decisions=decisions,
        migrations=migrations,
        waves=waves,
    )


class SlabWriter:
    """Worker-side cursor over an inherited double-buffered slab."""

    def __init__(self, shm, n_buffers: int = 2) -> None:
        self._shm = shm
        self._n_buffers = n_buffers
        self._capacity = shm.size // n_buffers
        self._cursor = [0] * n_buffers

    def begin_round(self, round_index: int) -> None:
        """Reset the cursor of the buffer round ``round_index`` targets."""
        self._cursor[round_index % self._n_buffers] = 0

    def pack(
        self, round_index: int, outcome: DomainRoundOutcome, solve_s: float
    ) -> Optional[tuple]:
        """Pack one outcome; the pipe header, or ``None`` on overflow."""
        slot = round_index % self._n_buffers
        base = slot * self._capacity
        packed = pack_outcome(
            self._shm.buf,
            base + self._cursor[slot],
            base + self._capacity,
            outcome,
            round_index,
            solve_s,
        )
        if packed is None:
            return None
        header, end = packed
        self._cursor[slot] = end - base
        return header


class SlabReader:
    """Parent-side decoder over the same slab."""

    def __init__(self, shm) -> None:
        self._shm = shm

    def unpack(self, header: tuple) -> DomainRoundOutcome:
        return unpack_outcome(self._shm.buf, header)
