"""Durable scheduler state: snapshots, commit journal, recovery.

Three layers, bottom up:

* :mod:`repro.persist.snapshot` — versioned, checksummed, atomically
  written snapshot generations plus the :class:`StorageIO` seam every
  disk touch goes through (bounded retry/backoff, fault injection);
* :mod:`repro.persist.journal` — an append-only, CRC-framed,
  torn-tail-repairing journal of commit records;
* :mod:`repro.persist.durable` — :class:`DurableCore`, the one
  durable core both drivers (the scenario run of
  :mod:`repro.scenarios.runner` and the service of
  :mod:`repro.service`) share: directory open and format check, the
  recovery ladder with verified replay, commit records and
  checkpointing, under the one format tag :data:`JOURNAL_FORMAT`.

:mod:`repro.persist.faults` supplies the simulated-crash harness
(:class:`FaultPlan` / :class:`FaultyIO`) the recovery tests drive.
"""

from repro.persist.durable import (
    JOURNAL_FORMAT,
    REPLAY_RELTOL,
    DurableCore,
    RecoveryError,
)
from repro.persist.faults import FaultPlan, FaultyIO, SimulatedCrash
from repro.persist.journal import JOURNAL_NAME, Journal, JournalRecord
from repro.persist.snapshot import (
    NoSnapshotError,
    SnapshotCorruptError,
    SnapshotError,
    StorageIO,
    list_snapshots,
    load_latest_good,
    prune_snapshots,
    read_header,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "DurableCore",
    "JOURNAL_FORMAT",
    "REPLAY_RELTOL",
    "RecoveryError",
    "FaultPlan",
    "FaultyIO",
    "SimulatedCrash",
    "Journal",
    "JournalRecord",
    "JOURNAL_NAME",
    "SnapshotError",
    "SnapshotCorruptError",
    "NoSnapshotError",
    "StorageIO",
    "list_snapshots",
    "load_latest_good",
    "prune_snapshots",
    "read_header",
    "read_snapshot",
    "write_snapshot",
]
