"""Commit journal: framing, torn-tail repair, compaction.

The journal's contract is narrow and absolute: records append with
``seq`` increasing by exactly one, every record is CRC-framed, and a
crash mid-append leaves a tail that :class:`Journal`'s open-time scan
drops *in place* (so the file and the in-memory view never disagree).
The journal is kind-agnostic; which kinds recovery reads is the durable
core's business (``tests/test_crash_recovery.py``).
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist.faults import FaultPlan, FaultyIO, SimulatedCrash
from repro.persist.journal import (
    Journal,
    JournalError,
    JournalRecord,
    _crc,
)


def make_journal(tmp_path, name="journal.wal", **kwargs):
    return Journal(str(tmp_path / name), **kwargs)


class TestFraming:
    def test_append_read_round_trip(self, tmp_path):
        with make_journal(tmp_path) as journal:
            assert journal.last_seq == 0
            assert journal.append("begin", {"spec": [1, 2]}) == 1
            assert journal.append("op", {"op": "retire_vms"}) == 2
            assert journal.append("round", {"cost": 1.5}) == 3
            assert list(journal) == [
                JournalRecord(1, "begin", {"spec": [1, 2]}),
                JournalRecord(2, "op", {"op": "retire_vms"}),
                JournalRecord(3, "round", {"cost": 1.5}),
            ]
        # Reopen: everything durable, seq chain continues.
        with make_journal(tmp_path) as journal:
            assert journal.last_seq == 3
            assert journal.repaired_bytes == 0
            assert journal.append("epoch", {}) == 4

    def test_records_filters_by_seq_and_kind(self, tmp_path):
        with make_journal(tmp_path) as journal:
            for i in range(6):
                journal.append("op" if i % 2 else "round", {"i": i})
            assert [r.seq for r in journal.records(after_seq=3)] == [4, 5, 6]
            assert [
                r.data["i"] for r in journal.records(kinds=("round",))
            ] == [0, 2, 4]
            assert journal.find_first("op").data == {"i": 1}
            assert journal.find_first("begin") is None

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.close()
        with pytest.raises(JournalError):
            journal.append("op", {})

    def test_non_finite_payloads_are_rejected(self, tmp_path):
        # allow_nan=False: NaN would not survive a JSON round trip, so it
        # must fail loudly at append time, not at recovery time.
        with make_journal(tmp_path) as journal:
            with pytest.raises(ValueError):
                journal.append("round", {"cost": float("nan")})


class TestTornTailRepair:
    @settings(max_examples=25, deadline=None)
    @given(fraction=st.floats(min_value=0.01, max_value=0.99))
    def test_torn_final_record_is_dropped_and_truncated(
        self, tmp_path_factory, fraction
    ):
        tmp_path = tmp_path_factory.mktemp("wal")
        path = str(tmp_path / "journal.wal")
        with Journal(path) as journal:
            for i in range(4):
                journal.append("op", {"i": i})
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.splitlines(keepends=True)
        cut = max(1, int(len(lines[3]) * fraction))
        torn = b"".join(lines[:3]) + lines[3][:cut]
        with open(path, "wb") as fh:
            fh.write(torn)

        with Journal(path) as journal:
            assert journal.last_seq == 3
            assert journal.repaired_bytes > 0
            # The tail is gone from the *file*, not just the view, and
            # appending continues the chain where the good prefix ended.
            assert journal.append("op", {"i": "new"}) == 4
        with Journal(path) as journal:
            assert [r.data["i"] for r in journal] == [0, 1, 2, "new"]

    def test_mid_file_corruption_drops_the_suffix(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        with Journal(path) as journal:
            for i in range(5):
                journal.append("op", {"i": i})
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"i":2', b'"i":7')  # breaks the CRC
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        with Journal(path) as journal:
            assert [r.data["i"] for r in journal] == [0, 1]
            assert os.path.getsize(path) == sum(len(l) for l in lines[:2])

    def test_seq_gap_is_treated_as_corruption(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        with Journal(path) as journal:
            journal.append("op", {"i": 0})
        body = {"seq": 5, "kind": "op", "data": {"i": 9}}
        line = json.dumps(
            {**body, "crc": _crc(body)}, sort_keys=True, separators=(",", ":")
        )
        with open(path, "ab") as fh:
            fh.write(line.encode() + b"\n")
        with Journal(path) as journal:
            assert journal.last_seq == 1

    def test_crashed_append_leaves_repairable_tail(self, tmp_path):
        """The fault harness tears a real append exactly like a kill."""
        path = str(tmp_path / "journal.wal")
        plan = FaultPlan(crash_on_journal_append=3, tear_fraction=0.4)
        journal = Journal(path, io=FaultyIO(plan))
        journal.append("op", {"i": 0})
        journal.append("op", {"i": 1})
        with pytest.raises(SimulatedCrash):
            journal.append("op", {"i": 2})
        with Journal(path) as reopened:
            assert [r.data["i"] for r in reopened] == [0, 1]
            assert reopened.repaired_bytes > 0


class TestCompaction:
    """``Journal.compact``: bounded daemons without losing the chain."""

    def _filled(self, tmp_path, n=8):
        journal = make_journal(tmp_path)
        journal.append("begin", {"spec": "head"})
        for i in range(n):
            journal.append("op" if i % 2 else "round", {"i": i})
        return journal

    def test_drops_span_and_bridges_with_a_marker(self, tmp_path):
        with self._filled(tmp_path) as journal:
            assert journal.compact(up_to_seq=5) == 4
            records = list(journal)
            assert [r.seq for r in records] == [1, 5, 6, 7, 8, 9]
            marker = records[1]
            assert marker.kind == "compact"
            assert marker.data == {"first_kept": 6, "dropped": 4}
            # The head (begin) record always survives.
            assert records[0].kind == "begin"
            # Sequence numbering is preserved: appends continue the chain.
            assert journal.last_seq == 9
            assert journal.append("round", {"i": 99}) == 10

    def test_compacted_journal_reopens_identically(self, tmp_path):
        with self._filled(tmp_path) as journal:
            journal.compact(up_to_seq=5)
            view = list(journal)
        with make_journal(tmp_path) as reopened:
            # The open-time scan accepts the marker's forward seq jump.
            assert list(reopened) == view
            assert reopened.repaired_bytes == 0
            assert reopened.append("op", {}) == 10

    def test_nothing_to_drop_is_a_no_op(self, tmp_path):
        with self._filled(tmp_path) as journal:
            before = list(journal)
            assert journal.compact(up_to_seq=1) == 0  # only the head
            assert journal.compact(up_to_seq=0) == 0
            assert list(journal) == before

    def test_repeated_compaction_advances(self, tmp_path):
        with self._filled(tmp_path, n=10) as journal:
            assert journal.compact(up_to_seq=4) == 3
            # The second pass swallows the first marker too: 5 records.
            assert journal.compact(up_to_seq=8) == 5
            records = list(journal)
            assert [r.seq for r in records] == [1, 8, 9, 10, 11]
            assert records[1].data["first_kept"] == 9

    def test_closed_journal_refuses_compaction(self, tmp_path):
        journal = self._filled(tmp_path)
        journal.close()
        with pytest.raises(JournalError):
            journal.compact(up_to_seq=5)

    def test_torn_tail_after_compaction_still_repairs(self, tmp_path):
        with self._filled(tmp_path) as journal:
            journal.compact(up_to_seq=5)
            kept = [r.seq for r in journal]
        path = str(tmp_path / "journal.wal")
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 10, "kind": "round", "da')  # torn append
        with make_journal(tmp_path) as reopened:
            assert [r.seq for r in reopened] == kept
            assert reopened.repaired_bytes > 0

    def test_crash_before_rewrite_keeps_the_old_journal(self, tmp_path):
        plan = FaultPlan(crash_on_compaction=1, compaction_mode="before")
        journal = make_journal(tmp_path, io=FaultyIO(plan))
        journal.append("begin", {})
        for i in range(6):
            journal.append("round", {"i": i})
        with pytest.raises(SimulatedCrash):
            journal.compact(up_to_seq=4)
        # The wreckage is the *old* journal, complete and appendable.
        with make_journal(tmp_path) as reopened:
            assert [r.seq for r in reopened] == [1, 2, 3, 4, 5, 6, 7]
            assert reopened.append("round", {}) == 8

    def test_crash_after_rewrite_keeps_the_new_journal(self, tmp_path):
        plan = FaultPlan(crash_on_compaction=1, compaction_mode="after")
        journal = make_journal(tmp_path, io=FaultyIO(plan))
        journal.append("begin", {})
        for i in range(6):
            journal.append("round", {"i": i})
        with pytest.raises(SimulatedCrash):
            journal.compact(up_to_seq=4)
        # The rename landed first: the wreckage is the compacted journal.
        with make_journal(tmp_path) as reopened:
            assert [r.seq for r in reopened] == [1, 4, 5, 6, 7]
            assert reopened.find_first("compact").data["first_kept"] == 5
            assert reopened.append("round", {}) == 8
