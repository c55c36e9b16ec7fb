"""The durable core: journal, recovery ladder, verified replay, checkpoints.

Both long-running drivers — the scenario run
(:class:`repro.scenarios.runner.DurableScenarioRun`) and the daemon
(:class:`repro.service.SchedulerService`) — are durable through one
implementation, :class:`DurableCore`.  A state directory holds a
commit :class:`~repro.persist.journal.Journal` whose ``begin``
record carries the one format tag (:data:`JOURNAL_FORMAT`) and the
driver's spec under the driver's own key (``scenario`` or
``experiment``), so each driver refuses an older directory and the
other's.  Every committed step — an epoch transition, a token round,
an epoch — appends one commit record, and snapshot generations of the
whole runtime land on the cadence set at creation.  Nothing else is
journaled: the scheduler calls and events between two commits are a
pure function of the state before them, so recovery regenerates them
instead of reading them back.

Recovery model (redo by deterministic re-execution)
---------------------------------------------------
Everything the trajectory depends on lives in the snapshot, so the
mutations between snapshots are a *pure function* of it.  Recovery
loads the newest snapshot generation that verifies (corrupt files fall
back a generation; none at all falls back to a cold rebuild from the
``begin`` spec — the degradation ladder), then re-executes the
committed records after its position as *verification*: each step must
reproduce the recorded cost, migration count, decision digest and next
holder, or recovery aborts with :class:`RecoveryError`.  The work in
flight after the last commit left no record; re-execution regenerates
it.  Only commit kinds are re-executed; any other record between two
commits is skipped.

Without a directory nothing is journaled or snapshotted; the loop is
the same either way.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.rounds import DecisionColumns
from repro.persist.faults import FaultPlan
from repro.persist.journal import JOURNAL_NAME, Journal, JournalRecord
from repro.persist.snapshot import (
    NoSnapshotError,
    SnapshotCorruptError,
    StorageIO,
    _quick_verify,
    list_snapshots,
    load_latest_good,
    prune_snapshots,
    read_header,
    write_snapshot,
)
from repro.sim.eventqueue import EventQueueRunner

#: The one format tag of every state directory, scenario run and
#: service alike.  v2: round commits carry the column-wise decision
#: digest; v3: the experiment spec lost its path switches; v4: snapshots
#: pickle the token as two arrays; v5: the scenario run and the service
#: share one tag and one core (v4 had ``score-journal/v4`` and
#: ``score-service/v4``); v6: snapshots load only the current pickle
#: layout (no restore hook converts an older one); v7: capacity and
#: placement pickle once, as columns (no ``Server`` objects, no restore
#: hook at all); v8: hold reasons are gain-first (an owner with no
#: candidate of delta > 0 is ``no_gain`` whatever the masks say), which
#: changes the hashed reason code of a gainless owner that does not fit.
#: Any other tag is refused at resume, before a snapshot is unpickled.
JOURNAL_FORMAT = "score-journal/v8"

#: Commit-record keys whose recorded and re-executed values are floats,
#: compared with :data:`REPLAY_RELTOL` instead of exactly (JSON
#: round-trips doubles exactly, so this is belt and braces, not slack).
COST_KEYS = ("cost", "cost_after", "clock")
REPLAY_RELTOL = 1e-9


class RecoveryError(Exception):
    """A state directory cannot be recovered, or replay diverged from it."""


def compact_journal_to_snapshots(directory: str, journal: Journal) -> int:
    """Drop journal records no surviving snapshot generation needs.

    The cutoff is the *oldest* surviving generation's journal position
    (screened cheaply for integrity): every rung the recovery ladder can
    still take replays from a seq at or after it.  Generations without a
    readable position — foreign files, torn headers — veto nothing but
    contribute nothing either; with no usable position at all,
    compaction is skipped.  Returns the number of records dropped.
    """
    positions = []
    for _, path in list_snapshots(directory):
        if not _quick_verify(path):
            continue
        try:
            seq = read_header(path).get("meta", {}).get("journal_seq")
        except SnapshotCorruptError:
            continue
        if isinstance(seq, int):
            positions.append(seq)
    if not positions:
        return 0
    return journal.compact(min(positions))


def _decisions_digest(columns: DecisionColumns) -> str:
    """Order-sensitive digest of one round's full decision sequence.

    Hashed column-wise, no per-hold python: the hold count, then per
    hold the VM id, source host, target host (−1 unless migrated), the
    reason code — which also says whether it migrated — and the delta.
    Every column has a fixed little-endian width, so the byte stream
    decodes uniquely: any changed field, and any two swapped holds,
    change the digest.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(len(columns)).astype("<i8").tobytes())
    target = np.where(columns.reason == 3, columns.target, -1)
    for column, dtype in (
        (columns.vm, "<i8"),
        (columns.source, "<i8"),
        (target, "<i8"),
        (columns.reason, "i1"),
        (columns.delta, "<f8"),
    ):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()[:16]


class DurableCore:
    """What every durable driver shares: open, recover, journal, checkpoint.

    A driver names its ``begin`` spec key (:attr:`SPEC_KEY`) and the
    commit kinds recovery re-executes (:attr:`COMMIT_KINDS`), and
    supplies ``_boot_fresh()`` (build the runtime through
    :meth:`_attach`), ``_state_dict()`` / ``_install_state(state)`` (its
    snapshot payload over :meth:`_runtime_state` /
    :meth:`_install_runtime`) and ``_redo(record)`` (re-execute one
    commit record, verifying it).  With no directory and no journal,
    nothing touches disk.
    """

    #: The ``begin`` record key holding this driver's spec.
    SPEC_KEY = ""
    #: Journal record kinds recovery re-executes and verifies, in order.
    COMMIT_KINDS: Tuple[str, ...] = ()
    #: Whether the event runner validates engine invariants per event.
    _validate = False

    def __init__(
        self,
        directory: Optional[str],
        journal: Optional[Journal],
        io: StorageIO,
        fault: Optional[FaultPlan],
        keep_generations: int,
        compact_journal: bool,
    ) -> None:
        self._directory = None if directory is None else str(directory)
        self._journal = journal
        self._io = io
        self._fault = fault
        self._keep_generations = int(keep_generations)
        self._compact_journal = bool(compact_journal)
        self._replaying = False
        self._recovered_from: Optional[str] = None
        # Runtime state: _boot_fresh or _install_state fills these in.
        self._environment = None
        self._scheduler = None
        self._runner: Optional[EventQueueRunner] = None
        self._next_holder: Optional[int] = None

    # -- opening a directory -------------------------------------------

    @classmethod
    def _open_fresh(cls, directory: str, io: StorageIO) -> Journal:
        """The journal of an empty ``directory`` (created if absent)."""
        os.makedirs(directory, exist_ok=True)
        journal = Journal(os.path.join(directory, JOURNAL_NAME), io=io)
        if journal.last_seq:
            journal.close()
            raise ValueError(
                f"{directory!r} already holds a journaled run; "
                f"use {cls.__name__}.resume"
            )
        return journal

    @classmethod
    def _open_existing(
        cls, directory: str, io: StorageIO
    ) -> Tuple[Journal, JournalRecord]:
        """The journal and ``begin`` record of this driver's directory.

        Refused, typed and with the journal closed: no ``begin`` record,
        another format tag, or another driver's spec.
        """
        journal = Journal(os.path.join(directory, JOURNAL_NAME), io=io)
        begin = journal.find_first("begin")
        problem = None
        if begin is None:
            problem = "has no usable journal begin record"
        elif begin.data.get("format") != JOURNAL_FORMAT:
            problem = (
                f"is not a {JOURNAL_FORMAT} directory "
                f"(begin format {begin.data.get('format')!r})"
            )
        elif cls.SPEC_KEY not in begin.data:
            problem = (
                f"is not a {cls.__name__} directory (its begin record "
                f"has no {cls.SPEC_KEY!r} spec)"
            )
        if problem is not None:
            journal.close()
            raise RecoveryError(f"{directory!r} {problem}")
        return journal, begin

    # -- runtime wiring ------------------------------------------------

    def _attach(self, environment, scheduler) -> None:
        """Make ``scheduler`` the live one, driven by a fresh event runner.

        The scheduler it replaces (a safe-mode recovery swaps in the
        snapshot's) is closed, so its worker fleet and shared-memory
        slabs do not outlive it.
        """
        if self._scheduler is not None and self._scheduler is not scheduler:
            self._scheduler.close()
        self._environment = environment
        self._scheduler = scheduler
        self._runner = EventQueueRunner(
            scheduler,
            environment=environment,
            validate=self._validate,
            fault=self._fault,
        )

    def _runtime_state(self) -> Dict[str, Any]:
        """The snapshot payload every driver shares."""
        return {
            "environment": self._environment,
            "scheduler": self._scheduler,
            "heap": self._runner._heap,
            "heap_seq": self._runner._seq,
            "round_seconds": self._runner.round_seconds,
        }

    def _install_runtime(self, state: Dict[str, Any]) -> None:
        self._attach(state["environment"], state["scheduler"])
        self._runner._heap = state["heap"]
        self._runner._seq = state["heap_seq"]
        self._runner.round_seconds = state["round_seconds"]

    # -- journal seams -------------------------------------------------

    def _append(self, kind: str, data: Dict[str, Any]) -> Optional[int]:
        if self._replaying or self._journal is None:
            return None
        return self._journal_append(kind, data)

    def _journal_append(
        self, kind: str, data: Dict[str, Any]
    ) -> Optional[int]:
        return self._journal.append(kind, data)

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        """The degradation ladder, then verified re-execution.

        Newest good snapshot generation → older generations → cold
        rebuild from the ``begin`` spec (refused, e.g. once the journal
        was compacted: the dropped records made that rung unreachable).
        Then every committed record after the rung's position is
        re-executed through ``_redo`` and verified against the journal.
        """
        try:
            loaded = load_latest_good(self._directory)
            base_seq = int(loaded.header["meta"]["journal_seq"])
            label = f"{os.path.basename(loaded.path)}@seq{base_seq}"
            self._install_state(loaded.state)
        except NoSnapshotError as exc:
            refusal = self._cold_rebuild_refusal()
            if refusal is not None:
                raise RecoveryError(
                    f"{self._directory!r} has no usable snapshot and "
                    f"{refusal} ({exc})"
                ) from exc
            self._boot_fresh()
            base_seq = self._journal.find_first("begin").seq
            label = f"cold-rebuild@seq{base_seq}"
        self._recovered_from = label
        self._scheduler._recovered_from = label
        self._replaying = True
        try:
            for record in self._journal.records(
                after_seq=base_seq, kinds=self.COMMIT_KINDS
            ):
                self._redo(record)
        finally:
            self._replaying = False

    def _cold_rebuild_refusal(self) -> Optional[str]:
        """Why the ladder's last rung is out of reach (None: it is not)."""
        if self._journal.find_first("compact") is not None:
            return (
                "its journal was compacted — the cold-rebuild rung is "
                "unreachable"
            )
        return None

    def _verify(
        self, kind: str, expected: Dict[str, Any], actual: Dict[str, Any]
    ) -> None:
        """Demand a re-executed commit reproduce its journal record."""
        for key, want in expected.items():
            got = actual.get(key)
            if key in COST_KEYS:
                scale = max(1.0, abs(float(want)))
                ok = abs(float(got) - float(want)) <= REPLAY_RELTOL * scale
            else:
                ok = got == want
            if not ok:
                where = ", ".join(
                    f"{k} {expected[k]}"
                    for k in ("epoch", "round")
                    if k in expected
                )
                raise RecoveryError(
                    f"replay diverged at {kind} commit ({where}): "
                    f"{key} recorded {want!r}, re-executed {got!r}"
                )

    def _commit_round(
        self, report, expected: Optional[Dict[str, Any]], **position
    ) -> DecisionColumns:
        """Verify (on replay) and journal one round's commit record; the
        next round starts from the holder this one handed on.  Without a
        journal there is nothing to record or verify, so no digest."""
        columns = report.decisions.columns()
        self._next_holder = report.next_holder
        if self._journal is None and expected is None:
            return columns
        data = {
            **position,
            "cost": float(report.final_cost),
            "migrations": int(report.total_migrations),
            "clock": float(self._scheduler.clock),
            "next_holder": report.next_holder,
            "digest": _decisions_digest(columns),
        }
        if expected is not None:
            self._verify("round", expected, data)
        self._append("round", data)
        return columns

    # -- checkpointing -------------------------------------------------

    def _write_checkpoint(self) -> Optional[str]:
        """Snapshot generation + prune (+ compact).

        A no-op while replaying (the generation on disk already covers
        it) and without a directory.
        """
        if self._replaying or self._journal is None:
            return None
        meta = {
            "kind": self.SPEC_KEY,
            "journal_seq": self._journal.last_seq,
            "clock": float(self._scheduler.clock),
        }
        path = write_snapshot(
            self._directory, self._state_dict(), meta, io=self._io
        )
        prune_snapshots(self._directory, keep=self._keep_generations)
        if self._compact_journal:
            compact_journal_to_snapshots(self._directory, self._journal)
        return path

    # -- public surface ------------------------------------------------

    @property
    def directory(self) -> Optional[str]:
        return self._directory

    @property
    def environment(self):
        return self._environment

    @property
    def scheduler(self):
        return self._scheduler

    @property
    def recovered_from(self) -> Optional[str]:
        """Provenance label when this driver came through ``resume``."""
        return self._recovered_from

    def close(self) -> None:
        if self._scheduler is not None:
            self._scheduler.close()
        if self._journal is not None:
            self._journal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
