"""Snapshot layer: atomic writes, checksums, the degradation ladder,
and warm scheduler round-trips over the whole catalogue.

The round-trip contract (ISSUE acceptance): for every catalogue
scenario, a restored scheduler's engine reports ``in_sync``, its
incremental cost matches a from-scratch recomputation to 1e-9, and the
restored twin schedules *identically* to the original.  The torn-write
and checksum property tests pin that no single-byte corruption or
truncation of the verified region ever loads silently.
"""

from __future__ import annotations

import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist.faults import FaultPlan, FaultyIO, SimulatedCrash
from repro.persist.snapshot import (
    NoSnapshotError,
    SnapshotCorruptError,
    StorageIO,
    list_snapshots,
    load_latest_good,
    next_generation,
    prune_snapshots,
    read_header,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.scenarios import scenario_by_name, scenario_names
from repro.sim.experiment import build_environment, make_scheduler
from repro.util.validation import check_engine_invariants

RELTOL = 1e-9


def decisions_key(report):
    return [
        (d.vm_id, d.target_host, d.migrated, d.reason, d.delta)
        for d in report.decisions
    ]


# ---------------------------------------------------------------------------
# File-format basics
# ---------------------------------------------------------------------------


class TestSnapshotFormat:
    def test_write_read_round_trip(self, tmp_path):
        state = {"hello": [1, 2, 3], "nested": {"x": (4.5, None)}}
        path = write_snapshot(str(tmp_path), state, {"who": "test"})
        header, loaded = read_snapshot(path)
        assert loaded == state
        assert header["format"] == "score-snapshot/v1"
        assert header["generation"] == 1
        assert header["meta"]["who"] == "test"
        assert read_header(path) == header

    def test_generations_are_versioned(self, tmp_path):
        d = str(tmp_path)
        assert next_generation(d) == 1
        p1 = write_snapshot(d, "one")
        p2 = write_snapshot(d, "two")
        assert list_snapshots(d) == [(1, p1), (2, p2)]
        assert next_generation(d) == 3
        assert snapshot_path(d, 2) == p2
        assert read_snapshot(p2)[1] == "two"

    def test_atomic_write_leaves_no_partial_file(self, tmp_path):
        """A write killed before the rename leaves only the old state."""
        d = str(tmp_path)
        write_snapshot(d, "good")
        plan = FaultPlan(crash_on_snapshot=1, snapshot_mode="vanish")
        with pytest.raises(SimulatedCrash):
            write_snapshot(d, "doomed", io=FaultyIO(plan))
        assert [g for g, _ in list_snapshots(d)] == [1]
        assert not [n for n in os.listdir(d) if n.endswith(".tmp")]
        assert load_latest_good(d).state == "good"

    def test_missing_directory_lists_empty(self, tmp_path):
        assert list_snapshots(str(tmp_path / "nope")) == []
        with pytest.raises(NoSnapshotError):
            load_latest_good(str(tmp_path / "nope"))

    def test_prune_keeps_newest_and_needs_a_fallback(self, tmp_path):
        d = str(tmp_path)
        for i in range(5):
            write_snapshot(d, i)
        removed = prune_snapshots(d, keep=2)
        assert len(removed) == 3
        assert [g for g, _ in list_snapshots(d)] == [4, 5]
        with pytest.raises(ValueError):
            prune_snapshots(d, keep=1)


# ---------------------------------------------------------------------------
# Corruption properties: nothing damaged ever loads silently
# ---------------------------------------------------------------------------


def _one_snapshot_blob():
    d = tempfile.mkdtemp()
    path = write_snapshot(d, {"payload": list(range(200))}, {"m": 1})
    with open(path, "rb") as fh:
        return path, fh.read()


class TestCorruptionDetection:
    @settings(max_examples=25, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=0.999))
    def test_any_truncation_is_detected(self, fraction):
        path, blob = _one_snapshot_blob()
        with open(path, "wb") as fh:
            fh.write(blob[: int(len(blob) * fraction)])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_payload_byte_flip_is_detected(self, data):
        path, blob = _one_snapshot_blob()
        payload_start = blob.index(b"\n") + 1
        index = data.draw(
            st.integers(min_value=payload_start, max_value=len(blob) - 1)
        )
        damaged = bytearray(blob)
        damaged[index] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(damaged))
        with pytest.raises(SnapshotCorruptError, match="checksum|unpicklable"):
            read_snapshot(path)

    def test_header_tampering_is_detected(self, tmp_path):
        d = str(tmp_path)
        path = write_snapshot(d, "state")
        with open(path, "rb") as fh:
            blob = fh.read()
        for damaged in (
            blob.replace(b"score-snapshot/v1", b"other-format/v9"),
            b"not json at all\n" + blob.split(b"\n", 1)[1],
            b"",
        ):
            with open(path, "wb") as fh:
                fh.write(damaged)
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(path)

    def test_ladder_falls_back_over_corrupt_generations(self, tmp_path):
        d = str(tmp_path)
        write_snapshot(d, "gen1")
        write_snapshot(d, "gen2")
        p3 = write_snapshot(d, "gen3")
        # Newest torn -> the ladder lands on generation 2 and reports
        # exactly what it skipped.
        with open(p3, "rb") as fh:
            blob = fh.read()
        with open(p3, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        loaded = load_latest_good(d)
        assert loaded.generation == 2
        assert loaded.state == "gen2"
        assert [os.path.basename(p) for p, _ in loaded.skipped] == [
            "snapshot-00000003.snap"
        ]
        # Every generation corrupt -> NoSnapshotError (cold-rebuild rung).
        for _, path in list_snapshots(d):
            with open(path, "wb") as fh:
                fh.write(b"garbage")
        with pytest.raises(NoSnapshotError):
            load_latest_good(d)


# ---------------------------------------------------------------------------
# Transient IO: bounded retry/backoff
# ---------------------------------------------------------------------------


class TestTransientRetries:
    def test_transient_errors_within_budget_succeed(self, tmp_path):
        io = FaultyIO(FaultPlan(transient_errors=2), retries=3)
        path = write_snapshot(str(tmp_path), "state", io=io)
        assert read_snapshot(path)[1] == "state"
        assert io.slept_s > 0  # the backoff path actually ran

    def test_transient_errors_beyond_budget_raise(self, tmp_path):
        io = FaultyIO(FaultPlan(transient_errors=10), retries=2)
        with pytest.raises(OSError):
            write_snapshot(str(tmp_path), "state", io=io)
        assert list_snapshots(str(tmp_path)) == []

    def test_backoff_is_exponential(self):
        io = FaultyIO(FaultPlan(transient_errors=3), retries=3, backoff_s=0.01)
        io._with_retries(lambda: io._take_transient())
        assert io.slept_s == pytest.approx(0.01 + 0.02 + 0.04)


# ---------------------------------------------------------------------------
# Scheduler warm-state round trips: the whole catalogue
# ---------------------------------------------------------------------------


def _warm_scheduler(name):
    scenario = scenario_by_name(name).scaled("toy")
    environment = build_environment(scenario.config)
    scheduler = make_scheduler(environment)
    scheduler.run(n_iterations=1)  # warm engine + round cache + token state
    return environment, scheduler


class TestSchedulerRoundTrip:
    @pytest.mark.parametrize("name", scenario_names())
    def test_catalogue_round_trip(self, name, tmp_path):
        """Written and read as the durable drivers' checkpoint and
        recovery do: one payload of the environment and the scheduler."""
        environment, scheduler = _warm_scheduler(name)
        write_snapshot(
            str(tmp_path), {"environment": environment, "scheduler": scheduler}
        )
        restored = load_latest_good(str(tmp_path)).state["scheduler"]

        assert restored.clock == scheduler.clock
        # Identical allocation and token state, bit for bit.
        assert {
            v: restored.allocation.server_of(v)
            for v in restored.allocation.vm_ids()
        } == {
            v: scheduler.allocation.server_of(v)
            for v in scheduler.allocation.vm_ids()
        }
        assert list(restored.token.vm_ids) == list(scheduler.token.vm_ids)
        # The restored engine is warm, in sync, and exact to 1e-9; its
        # snapshot is the restored matrix's store, indexed over the
        # restored allocation's id column (one pickle keeps identity).
        fast = restored.fastcost
        assert fast is not None and fast.in_sync
        assert fast.snapshot is restored.traffic.store
        assert fast.snapshot.vm_ids is restored.allocation.columns()[0]
        assert fast.total_cost() == pytest.approx(
            fast.recompute_total_cost(), rel=RELTOL
        )
        check_engine_invariants(restored, context=f"restore({name})")
        # The twin keeps scheduling identically.
        expect = scheduler.run(n_iterations=1)
        got = restored.run(n_iterations=1)
        assert decisions_key(got) == decisions_key(expect)
        assert got.final_cost == pytest.approx(expect.final_cost, rel=RELTOL)


# ---------------------------------------------------------------------------
# Prune edge cases: the keep floor and concurrent-walk races
# ---------------------------------------------------------------------------


def _truncate(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])


class TestPruneEdgeCases:
    def test_empty_and_missing_directories_prune_to_nothing(self, tmp_path):
        assert prune_snapshots(str(tmp_path), keep=2) == []
        assert prune_snapshots(str(tmp_path / "never-made"), keep=2) == []

    def test_keep_floor_spares_the_only_good_older_generation(self, tmp_path):
        d = str(tmp_path)
        for i in range(5):
            write_snapshot(d, i)
        # Both generations inside the keep window are torn: pruning must
        # not delete generation 3, the only one the ladder could load.
        _truncate(snapshot_path(d, 4))
        _truncate(snapshot_path(d, 5))
        removed = prune_snapshots(d, keep=2)
        assert [g for g, _ in list_snapshots(d)] == [3, 4, 5]
        assert len(removed) == 2
        assert load_latest_good(d).generation == 3

    def test_every_generation_corrupt_still_prunes_outside_the_window(
        self, tmp_path
    ):
        d = str(tmp_path)
        for i in range(5):
            write_snapshot(d, i)
        for generation in range(1, 6):
            _truncate(snapshot_path(d, generation))
        # Nothing loadable anywhere: no spare to protect, the window
        # survives, and the ladder reports the outage loudly.
        removed = prune_snapshots(d, keep=2)
        assert len(removed) == 3
        assert [g for g, _ in list_snapshots(d)] == [4, 5]
        with pytest.raises(NoSnapshotError):
            load_latest_good(d)

    def test_prune_skips_files_a_concurrent_prune_already_removed(
        self, tmp_path, monkeypatch
    ):
        import repro.persist.snapshot as snapshot_module

        d = str(tmp_path)
        for i in range(4):
            write_snapshot(d, i)
        stale = list_snapshots(d)
        monkeypatch.setattr(
            snapshot_module, "list_snapshots", lambda _: stale
        )
        os.remove(snapshot_path(d, 1))  # the concurrent prune won
        removed = prune_snapshots(d, keep=2)
        assert snapshot_path(d, 1) not in removed
        assert removed == [snapshot_path(d, 2)]

    def test_load_skips_a_file_pruned_mid_walk(self, tmp_path, monkeypatch):
        import repro.persist.snapshot as snapshot_module

        d = str(tmp_path)
        for i in range(3):
            write_snapshot(d, i)
        stale = list_snapshots(d)
        monkeypatch.setattr(
            snapshot_module, "list_snapshots", lambda _: stale
        )
        os.remove(snapshot_path(d, 3))  # vanished between list and read
        loaded = load_latest_good(d)
        assert loaded.generation == 2
        assert any("unreadable" in reason for _, reason in loaded.skipped)
