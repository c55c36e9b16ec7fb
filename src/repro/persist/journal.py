"""The commit journal: every committed step on disk before the next.

One journal is an append-only text file of newline-delimited JSON
records::

    {"seq": 17, "kind": "round", "data": {...}, "crc": "9f2a11c3"}

``seq`` increases by exactly 1 per record; ``crc`` is the CRC-32 of the
record's canonical JSON (sorted keys, no spaces) *without* the ``crc``
field.  Appends are flushed and fsynced before the caller proceeds:
once a step's commit record is appended, that step survives any crash.

Record kinds (the schema recovery interprets — see
``docs/persistence.md``):

``begin``
    The run's self-contained spec (scenario, epochs, iterations,
    checkpoint cadence).  Always record 1; the cold-rebuild rung of the
    recovery ladder reconstructs the whole environment from it.
``transition``, ``round``, ``epoch``
    Commit records: an epoch transition, token round or epoch finished
    with the recorded outcome (cost, migrations, decision digest, next
    holder).  Replay re-executes deterministically and *verifies*
    against these.
``compact``
    A compaction rewrite dropped every record between the ``begin``
    record and this marker's ``seq`` (they were older than every
    surviving snapshot generation, so no recovery path could need
    them).  The marker bridges the sequence chain: the scan accepts a
    forward jump exactly here, nowhere else.

Older versions also wrote ``op``, ``event`` and ``snapshot`` records
between commits.  Nothing reads them; replay selects commit kinds, so
such a journal still resumes.

Torn tails: a crash mid-append leaves a final record that is truncated
or fails its CRC.  :meth:`Journal.open` scans the file, keeps the
longest valid prefix, truncates the torn tail in place and resumes
appending after it — exactly the uncommitted work deterministic replay
regenerates.  A corrupt record *followed by valid ones* (mid-file bit
rot rather than a torn append) cannot be safely bridged, so everything
from the first bad record on is dropped too; the commit verification
pass catches any resulting divergence.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

from repro.persist.snapshot import StorageIO

JOURNAL_NAME = "journal.wal"


class JournalError(Exception):
    """Structural journal failure (bad seq chain on append, closed file)."""


class JournalRecord(NamedTuple):
    """One decoded journal record."""

    seq: int
    kind: str
    data: Dict[str, Any]


def _canonical(body: Dict[str, Any]) -> bytes:
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _crc(body: Dict[str, Any]) -> str:
    return f"{zlib.crc32(_canonical(body)) & 0xFFFFFFFF:08x}"


def _decode_line(line: bytes) -> Optional[JournalRecord]:
    """One line -> record, or None for anything torn/corrupt."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    crc = obj.pop("crc", None)
    if (
        crc != _crc(obj)
        or not isinstance(obj.get("seq"), int)
        or not isinstance(obj.get("kind"), str)
        or not isinstance(obj.get("data"), dict)
    ):
        return None
    return JournalRecord(seq=obj["seq"], kind=obj["kind"], data=obj["data"])


class Journal:
    """Append-only journal over one file, with torn-tail repair on open.

    ``sync=False`` drops the per-append fsync (tests that hammer the
    journal thousands of times; production recovery guarantees need the
    default).  All writes go through the injectable :class:`StorageIO`.
    """

    def __init__(
        self,
        path: str,
        *,
        io: Optional[StorageIO] = None,
        sync: bool = True,
    ) -> None:
        self.path = str(path)
        self._io = io or StorageIO()
        self._sync = sync
        self._records: List[JournalRecord] = []
        #: Bytes of torn/corrupt tail dropped by the open-time scan.
        self.repaired_bytes = 0
        self._scan_and_repair()
        self._handle = open(self.path, "ab")

    # -- open-time scan ------------------------------------------------

    def _scan_and_repair(self) -> None:
        if not os.path.exists(self.path):
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            with open(self.path, "ab"):
                pass
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        pos = 0
        expected_seq = 1
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            if newline == -1:
                break  # unterminated tail: torn append
            record = _decode_line(raw[pos:newline])
            if record is None:
                break  # corrupt record; everything after is unreachable
            if record.seq != expected_seq and not (
                record.kind == "compact" and record.seq > expected_seq
            ):
                break  # broken chain (a compact marker may jump forward)
            self._records.append(record)
            expected_seq = record.seq + 1
            pos = newline + 1
        if pos < len(raw):
            self.repaired_bytes = len(raw) - pos
            with open(self.path, "rb+") as handle:
                handle.truncate(pos)

    # -- API -----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._records[-1].seq if self._records else 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self._records)

    def append(self, kind: str, data: Dict[str, Any]) -> int:
        """Write one record durably; returns its sequence number."""
        if self._handle is None:
            raise JournalError("journal is closed")
        body = {"seq": self.last_seq + 1, "kind": str(kind), "data": data}
        line = _canonical({**body, "crc": _crc(body)}) + b"\n"
        if self._sync:
            self._io.append_record(self.path, self._handle, line)
        else:
            self._handle.write(line)
            self._handle.flush()
        record = JournalRecord(seq=body["seq"], kind=body["kind"], data=data)
        self._records.append(record)
        return record.seq

    def records(
        self, after_seq: int = 0, kinds: Optional[tuple] = None
    ) -> List[JournalRecord]:
        """Durable records with ``seq > after_seq`` (optionally filtered)."""
        return [
            r
            for r in self._records
            if r.seq > after_seq and (kinds is None or r.kind in kinds)
        ]

    def compact(self, up_to_seq: int) -> int:
        """Drop committed records with ``seq <= up_to_seq``; return count.

        The head record (the ``begin`` spec — resumes always need it)
        survives, and a ``compact`` marker at ``seq == up_to_seq``
        bridges the chain so the open-time scan still verifies.  The
        rewrite is atomic (temp file + rename via :class:`StorageIO`),
        so a crash mid-compaction leaves either the old journal or the
        new one — both recover.  Sequence numbers are preserved:
        snapshot headers referencing ``journal_seq`` positions after
        ``up_to_seq`` stay valid.  Callers must pick ``up_to_seq`` no
        newer than the oldest surviving snapshot's journal position —
        compaction removes the cold-rebuild rung for the dropped span.
        """
        if self._handle is None:
            raise JournalError("journal is closed")
        if not self._records:
            return 0
        head = self._records[0]
        suffix = [r for r in self._records if r.seq > max(up_to_seq, head.seq)]
        dropped = len(self._records) - 1 - len(suffix)
        if dropped <= 0:
            return 0
        marker = JournalRecord(
            seq=int(up_to_seq),
            kind="compact",
            data={"first_kept": int(up_to_seq) + 1, "dropped": dropped},
        )
        lines = []
        for record in (head, marker, *suffix):
            body = {
                "seq": record.seq,
                "kind": record.kind,
                "data": record.data,
            }
            lines.append(_canonical({**body, "crc": _crc(body)}) + b"\n")
        self._handle.close()
        self._handle = None
        try:
            self._io.write_file_atomic(self.path, b"".join(lines))
        finally:
            # Reopen even if the rewrite died short of the rename — the
            # old file is then still the journal and stays appendable.
            self._handle = open(self.path, "ab")
        self._records = [head, marker, *suffix]
        return dropped

    def find_first(self, kind: str) -> Optional[JournalRecord]:
        """The earliest record of one kind (the ``begin`` lookup)."""
        for record in self._records:
            if record.kind == kind:
                return record
        return None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
