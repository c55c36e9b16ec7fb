"""The columnar round commit: decision digest, plan moves, format tags.

A round commits a digest of its decision *columns* (no per-hold python)
and cuts the migration plan from the migrated rows.  Pinned here: the
digest sees every field of every hold and their order, does not depend
on how the holds were blocked or whether they arrived as columns or as
decision tuples, and a state directory written under an older format —
the v1 digest, or a v2 experiment spec that still carries the removed
path switches — is refused by the format check instead of failing
replay.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.rounds import DecisionColumns
from repro.core.scheduler import DecisionLog
from repro.persist import (
    DurableScenarioRun,
    RecoveryError,
    run_durable_scenario,
)
from repro.persist.durable import JOURNAL_FORMAT, _decisions_digest
from repro.persist.journal import JOURNAL_NAME, _canonical, _crc
from repro.service import SERVICE_FORMAT, SchedulerService
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
        # The same holds logged as tuples, a column block, tuples again.
        log = DecisionLog()
        log.extend(decisions[:5])
        log.extend(DecisionColumns.from_decisions(decisions[5:20]))
        log.append(decisions[20])
        log.extend(decisions[21:])
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


class TestOlderDirectoriesAreRefused:
    def test_formats_moved_to_v3(self):
        assert SERVICE_FORMAT == "score-service/v3"
        assert JOURNAL_FORMAT == "score-journal/v3"

    def test_service_resume_refuses_a_v2_spec(self, tmp_path):
        directory = str(tmp_path)
        with SchedulerService.create(
            ExperimentConfig(seed=5, **SMALL), directory
        ) as service:
            service.step()
        _rewrite_begin_format(
            directory,
            "score-service/v2",
            lambda data: _with_removed_switches(data["experiment"]),
        )
        with pytest.raises(RecoveryError, match="score-service/v2"):
            SchedulerService.resume(directory)

    def test_durable_run_resume_refuses_a_v2_spec(self, tmp_path):
        directory = str(tmp_path)
        run_durable_scenario("steady", directory, scale="toy", epochs=1)
        _rewrite_begin_format(
            directory,
            "score-journal/v2",
            lambda data: _with_removed_switches(data["scenario"]["config"]),
        )
        with pytest.raises(RecoveryError, match="score-journal/v2"):
            DurableScenarioRun.resume(directory)

    def test_service_resume(self, tmp_path):
        directory = str(tmp_path)
        with SchedulerService.create(
            ExperimentConfig(seed=5, **SMALL), directory
        ) as service:
            service.step()
        SchedulerService.resume(directory).close()  # v3 resumes fine
        _rewrite_begin_format(directory, "score-service/v1")
        with pytest.raises(RecoveryError, match="score-service/v1"):
            SchedulerService.resume(directory)

    def test_durable_run_resume(self, tmp_path):
        directory = str(tmp_path)
        run_durable_scenario("steady", directory, scale="toy", epochs=1)
        DurableScenarioRun.resume(directory).close()
        _rewrite_begin_format(directory, "score-journal/v1")
        with pytest.raises(RecoveryError, match="score-journal/v1"):
            DurableScenarioRun.resume(directory)
