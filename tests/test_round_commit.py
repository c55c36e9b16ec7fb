"""The columnar round commit: decision digest, plan moves, format tag.

A round commits a digest of its decision *columns* (no per-hold python)
and cuts the migration plan from the migrated rows.  Pinned here: the
digest sees every field of every hold and their order, does not depend
on how the holds were blocked or whether they arrived as columns or as
decision tuples; both drivers write the one format tag and a state
directory written under an older format — the v1 digest, a v2
experiment spec that still carries the removed path switches, the v4
per-driver tags — or by the other driver is refused by the shared open
path, typed and with its journal closed, instead of failing replay.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.rounds import DecisionColumns
from repro.core.scheduler import DecisionLog
from repro.persist import (
    JOURNAL_FORMAT,
    FaultPlan,
    FaultyIO,
    Journal,
    RecoveryError,
    SimulatedCrash,
)
from repro.persist import durable
from repro.persist.durable import _decisions_digest
from repro.persist.journal import JOURNAL_NAME, _canonical, _crc
from repro.scenarios import DurableScenarioRun, run_scenario
from repro.service import SchedulerService
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)

SMALL = dict(n_racks=8, hosts_per_rack=2, vms_per_host=4, fill_fraction=0.6)


@pytest.fixture(scope="module")
def round_columns():
    """One real round's decisions: migrated and settled holds mixed."""
    env = build_environment(ExperimentConfig(seed=7, **SMALL))
    cols = make_scheduler(env).run(n_iterations=1).decisions.columns()
    assert 0 < cols.migrated_count() < len(cols)
    return cols


def copy_of(cols):
    return DecisionColumns.concatenate([cols])


class TestDecisionDigest:
    @pytest.mark.parametrize(
        "field", ["vm", "source", "target", "reason", "delta"]
    )
    def test_flipping_any_field_of_any_hold_changes_it(
        self, round_columns, field
    ):
        reference = _decisions_digest(round_columns)
        migrated = np.nonzero(round_columns.reason == 3)[0]
        # A target exists on migrated holds only; everything else on all.
        holds = migrated if field == "target" else range(len(round_columns))
        for pos in holds:
            tampered = copy_of(round_columns)
            column = getattr(tampered, field)
            if field == "reason":
                column[pos] = (column[pos] + 1) % 5
            else:
                column[pos] += 1
            assert _decisions_digest(tampered) != reference, (field, pos)

    def test_swapping_two_holds_changes_it(self, round_columns):
        reference = _decisions_digest(round_columns)
        order = np.arange(len(round_columns))
        order[[0, 1]] = order[[1, 0]]
        swapped = copy_of(round_columns)
        for name in ("vm", "source", "target", "delta", "reason"):
            setattr(swapped, name, getattr(round_columns, name)[order])
        assert _decisions_digest(swapped) != reference

    def test_columns_tuples_and_any_blocking_agree(self, round_columns):
        reference = _decisions_digest(round_columns)
        decisions = list(round_columns)
        packed = DecisionColumns.from_decisions(decisions)
        assert list(packed) == decisions
        assert _decisions_digest(packed) == reference
        # The same holds logged in blocks of any size.
        log = DecisionLog()
        for lo, hi in ((0, 5), (5, 20), (20, 21), (21, len(decisions))):
            log.extend(DecisionColumns.from_decisions(decisions[lo:hi]))
        assert _decisions_digest(log.columns()) == reference
        # A stale target on a hold that did not migrate is not a fact.
        stale = copy_of(round_columns)
        stale.target[np.nonzero(stale.reason != 3)[0][0]] = 5
        assert _decisions_digest(stale) == reference

    def test_plan_moves_are_the_migrated_rows(self, round_columns):
        assert round_columns.moves() == [
            (d.vm_id, d.source_host, d.target_host)
            for d in round_columns
            if d.migrated
        ]


def _rewrite_begin_format(directory, old_format, edit=None):
    """Re-stamp the journal's begin record (valid CRC) as ``old_format``;
    ``edit(data)``, when given, rewrites the record's payload too."""
    path = os.path.join(directory, JOURNAL_NAME)
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        body = json.loads(line)
        if body["kind"] == "begin":
            body.pop("crc")
            body["data"]["format"] = old_format
            if edit is not None:
                edit(body["data"])
            lines[i] = _canonical({**body, "crc": _crc(body)})
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def _with_removed_switches(spec):
    """An experiment spec as a v2 begin record wrote it."""
    spec.update(
        fastcost=True,
        batched_rounds=True,
        shard_compact=False,
        shard_transport="shm",
    )


def _service_dir(directory):
    with SchedulerService.create(
        ExperimentConfig(seed=5, **SMALL), directory
    ) as service:
        service.step()
    return directory


def _scenario_dir(directory):
    run_scenario("steady", scale="toy", epochs=1, checkpoint_dir=directory)
    return directory


@pytest.fixture
def no_snapshot_loads(monkeypatch):
    """Fail the test if recovery reaches a snapshot (writing a
    directory loads none, so only the resume under test can)."""

    def refuse(directory):
        raise AssertionError(f"a snapshot of {directory!r} was loaded")

    monkeypatch.setattr(durable, "load_latest_good", refuse)


class TestOneFormatTwoDrivers:
    """One tag for every state directory; the begin record's spec key
    (``scenario`` or ``experiment``) says which driver owns it."""

    def test_one_format_tag(self, tmp_path):
        assert JOURNAL_FORMAT == "score-journal/v8"
        for make, key in (
            (_scenario_dir, "scenario"),
            (_service_dir, "experiment"),
        ):
            directory = make(str(tmp_path / key))
            with Journal(os.path.join(directory, JOURNAL_NAME)) as journal:
                begin = journal.find_first("begin").data
            assert begin["format"] == JOURNAL_FORMAT
            assert key in begin

    def test_current_directories_resume(self, tmp_path):
        SchedulerService.resume(_service_dir(str(tmp_path / "svc"))).close()
        DurableScenarioRun.resume(_scenario_dir(str(tmp_path / "run"))).close()

    @pytest.mark.parametrize(
        "old",
        [
            "score-journal/v7",
            "score-journal/v6",
            "score-journal/v5",
            "score-service/v4",
            "score-service/v3",
            "score-service/v1",
        ],
    )
    def test_service_resume_refuses_older_formats(
        self, tmp_path, old, no_snapshot_loads
    ):
        """Older snapshots pickled layouts no restore path reads (a v3
        one the dict-and-buckets token, a v5 one possibly a dict-backed
        allocation or matrix, a v6 one ``Server`` objects), and a v7
        journal hashed mask-first reasons that replay would not match;
        the tag check refuses the directory before any snapshot is
        unpickled."""
        directory = _service_dir(str(tmp_path))
        _rewrite_begin_format(directory, old)
        with pytest.raises(RecoveryError, match=old):
            SchedulerService.resume(directory)

    @pytest.mark.parametrize(
        "old",
        [
            "score-journal/v7",
            "score-journal/v6",
            "score-journal/v5",
            "score-journal/v4",
            "score-journal/v3",
            "score-journal/v1",
        ],
    )
    def test_scenario_resume_refuses_older_formats(
        self, tmp_path, old, no_snapshot_loads
    ):
        directory = _scenario_dir(str(tmp_path))
        _rewrite_begin_format(directory, old)
        with pytest.raises(RecoveryError, match=old):
            DurableScenarioRun.resume(directory)

    def test_service_resume_refuses_a_v2_spec(self, tmp_path):
        directory = _service_dir(str(tmp_path))
        _rewrite_begin_format(
            directory,
            "score-service/v2",
            lambda data: _with_removed_switches(data["experiment"]),
        )
        with pytest.raises(RecoveryError, match="score-service/v2"):
            SchedulerService.resume(directory)

    def test_scenario_resume_refuses_a_v2_spec(self, tmp_path):
        directory = _scenario_dir(str(tmp_path))
        _rewrite_begin_format(
            directory,
            "score-journal/v2",
            lambda data: _with_removed_switches(data["scenario"]["config"]),
        )
        with pytest.raises(RecoveryError, match="score-journal/v2"):
            DurableScenarioRun.resume(directory)

    def test_each_driver_refuses_the_others_directory(self, tmp_path):
        service_dir = _service_dir(str(tmp_path / "svc"))
        scenario_dir = _scenario_dir(str(tmp_path / "run"))
        with pytest.raises(RecoveryError, match="'scenario' spec"):
            DurableScenarioRun.resume(service_dir)
        with pytest.raises(RecoveryError, match="'experiment' spec"):
            SchedulerService.resume(scenario_dir)


@pytest.fixture
def journal_handles(monkeypatch):
    """Every Journal opened during the test, and the ones closed."""
    opened, closed = [], []
    real_init, real_close = Journal.__init__, Journal.close

    def spy_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        opened.append(self)

    def spy_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(Journal, "__init__", spy_init)
    monkeypatch.setattr(Journal, "close", spy_close)
    return opened, closed


class TestRefusalsCloseTheJournal:
    """Every refusal of the shared open path, and every failure before a
    fresh driver is handed back, closes its journal first."""

    @pytest.mark.parametrize(
        "make, create",
        [
            (
                _scenario_dir,
                lambda d: DurableScenarioRun.create("steady", d, scale="toy"),
            ),
            (
                _service_dir,
                lambda d: SchedulerService.create(
                    ExperimentConfig(seed=5, **SMALL), d
                ),
            ),
        ],
        ids=["scenario", "service"],
    )
    def test_create_in_a_used_directory(
        self, tmp_path, make, create, journal_handles
    ):
        directory = make(str(tmp_path))
        opened, closed = journal_handles
        del opened[:]
        with pytest.raises(ValueError, match="already holds"):
            create(directory)
        assert len(opened) == 1 and opened[0] in closed

    @pytest.mark.parametrize("driver", [DurableScenarioRun, SchedulerService])
    def test_resume_without_a_begin_record(
        self, tmp_path, driver, journal_handles
    ):
        opened, closed = journal_handles
        with pytest.raises(RecoveryError, match="no usable journal begin"):
            driver.resume(str(tmp_path))
        assert len(opened) == 1 and opened[0] in closed

    @pytest.mark.parametrize(
        "create",
        [
            lambda d, io: DurableScenarioRun.create(
                "steady", d, scale="toy", io=io
            ),
            lambda d, io: SchedulerService.create(
                ExperimentConfig(seed=5, **SMALL), d, io=io
            ),
        ],
        ids=["scenario", "service"],
    )
    def test_a_crash_in_the_bootstrap_checkpoint(
        self, tmp_path, create, journal_handles
    ):
        opened, closed = journal_handles
        plan = FaultPlan(crash_on_snapshot=1)
        with pytest.raises(SimulatedCrash, match="mid-snapshot #1"):
            create(str(tmp_path), FaultyIO(plan))
        assert len(opened) == 1 and opened[0] in closed
