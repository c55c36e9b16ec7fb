"""Crash-recovery differential: a victim killed anywhere equals its twin.

The acceptance bar for the persistence layer: run one scenario twice
through the durable driver — an uninterrupted *twin* and a *victim*
killed at a configurable point (between waves, mid-snapshot with a
vanished/torn/corrupt final file, mid-journal-append) — then recover
the victim from disk alone and demand the two trajectories are
indistinguishable:

* final total cost within 1e-9 (relative),
* the final VM→host mapping identical, VM for VM,
* the per-round decision digests in the two journals identical — the
  victim re-made exactly the migrations the twin made, in order.

``pytest -m recovery`` widens the fuzzed kill-point matrix
(``REPRO_CRASH_SEEDS`` — comma-separated ints — overrides the shipped
seed list); CI runs it as a dedicated job.  The quick suite below runs
one deterministic case per kill point under both ``rr`` and ``hlf``.
"""

from __future__ import annotations

import glob
import json
import os
import random
import tempfile
from dataclasses import asdict

import pytest

from repro.persist import (
    JOURNAL_NAME,
    FaultPlan,
    FaultyIO,
    Journal,
    RecoveryError,
    SimulatedCrash,
)
from repro.persist.durable import _decisions_digest
from repro.persist.journal import _canonical, _crc
from repro.scenarios import DurableScenarioRun, run_scenario, scenario_by_name

RELTOL = 1e-9

#: Every record kind a durable run may leave in its journal.
COMMIT_LOG_KINDS = {"begin", "transition", "round", "epoch", "compact"}


def run_durable_scenario(scenario, directory, **kwargs):
    """Create a durable run in ``directory`` and drive it to the end."""
    with DurableScenarioRun.create(scenario, directory, **kwargs) as run:
        return run.run()


def resume_durable_scenario(directory, **kwargs):
    """Resume the run in ``directory`` and drive it to the end."""
    with DurableScenarioRun.resume(directory, **kwargs) as run:
        return run.run()

#: The differential workload: mid-round arrivals + a traffic surge on
#: top of flash-crowd churn, so every mutation kind except the outage
#: family is re-executed on replay; "rolling-maintenance" covers drains.
SCENARIO = "flash-crowd-mid-round"
EPOCHS = 3


def _scenario(policy):
    scenario = scenario_by_name(SCENARIO).scaled("toy")
    return scenario.with_(config=scenario.config.with_(policy=policy))


_twins = {}


def twin(policy):
    """The uninterrupted reference run (computed once per policy)."""
    if policy not in _twins:
        directory = tempfile.mkdtemp(prefix=f"twin-{policy}-")
        result = run_durable_scenario(
            _scenario(policy), directory, epochs=EPOCHS
        )
        _twins[policy] = (directory, result)
    return _twins[policy]


def twin_appends(policy):
    """How many records the twin's run appended to its journal."""
    with Journal(os.path.join(twin(policy)[0], JOURNAL_NAME)) as journal:
        return journal.last_seq


def final_mapping(result):
    allocation = result.environment.allocation
    return {v: allocation.server_of(v) for v in allocation.vm_ids()}


def round_digests(directory):
    with Journal(os.path.join(directory, JOURNAL_NAME)) as journal:
        return [r.data["digest"] for r in journal.records(kinds=("round",))]


def journal_kinds(directory):
    with Journal(os.path.join(directory, JOURNAL_NAME)) as journal:
        return {r.kind for r in journal}


def crash(policy, plan, *, validate=False):
    """Run a victim under ``plan`` until it 'dies'; returns its wreckage."""
    directory = tempfile.mkdtemp(prefix="victim-")
    with pytest.raises(SimulatedCrash):
        run_durable_scenario(
            _scenario(policy),
            directory,
            epochs=EPOCHS,
            validate=validate,
            io=FaultyIO(plan),
            fault=plan,
        )
    return directory


def assert_twin_equivalent(policy, directory, recovered):
    twin_dir, reference = twin(policy)
    assert recovered.final_cost == pytest.approx(
        reference.final_cost, rel=RELTOL
    )
    assert final_mapping(recovered) == final_mapping(reference)
    assert round_digests(directory) == round_digests(twin_dir)
    assert recovered.total_migrations == reference.total_migrations
    recovered_labels = [
        s.recovered_from for s in recovered.epoch_stats if s.recovered_from
    ]
    assert recovered_labels, "no epoch carries recovery provenance"


# ---------------------------------------------------------------------------
# One deterministic case per kill point, both policies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["rr", "hlf"])
class TestKillPoints:
    def test_kill_between_waves(self, policy):
        directory = crash(policy, FaultPlan(crash_at_s=200.0))
        recovered = resume_durable_scenario(directory)
        assert_twin_equivalent(policy, directory, recovered)

    @pytest.mark.parametrize("mode", ["vanish", "torn", "corrupt"])
    def test_kill_mid_snapshot(self, policy, mode):
        directory = crash(
            policy, FaultPlan(crash_on_snapshot=3, snapshot_mode=mode)
        )
        recovered = resume_durable_scenario(directory)
        assert_twin_equivalent(policy, directory, recovered)

    def test_kill_mid_journal_append(self, policy):
        directory = crash(policy, FaultPlan(crash_on_journal_append=9))
        recovered = resume_durable_scenario(directory)
        assert_twin_equivalent(policy, directory, recovered)

    def test_cold_rebuild_when_every_snapshot_is_lost(self, policy):
        directory = crash(policy, FaultPlan(crash_at_s=150.0))
        for snap in glob.glob(os.path.join(directory, "*.snap")):
            os.remove(snap)
        recovered = resume_durable_scenario(directory)
        assert_twin_equivalent(policy, directory, recovered)
        assert any(
            s.recovered_from and s.recovered_from.startswith("cold-rebuild")
            for s in recovered.epoch_stats
        )


# ---------------------------------------------------------------------------
# Equivalence and replay-verification properties
# ---------------------------------------------------------------------------


CATALOGUE = [
    "steady",
    "diurnal-drift",
    "hotspot-flip",
    "flash-crowd",
    "rolling-maintenance",
    "rack-outage",
    "pod-outage",
    "flash-crowd-mid-round",
    "bandwidth-crunch",
]


def epoch_facts(result):
    """Every EpochStats field but the wall clocks and the provenance."""
    return [
        {
            key: value
            for key, value in asdict(stats).items()
            if key not in ("transition_s", "schedule_s", "recovered_from")
        }
        for stats in result.epoch_stats
    ]


class TestDurableSemantics:
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    @pytest.mark.parametrize("name", CATALOGUE)
    def test_persistence_on_and_off_are_exactly_equal(
        self, name, policy, tmp_path
    ):
        """One loop: the journal and the snapshots observe the run, they
        never steer it — bit for bit, round for round."""
        scenario = scenario_by_name(name).scaled("toy")
        scenario = scenario.with_(config=scenario.config.with_(policy=policy))
        durable = run_durable_scenario(scenario, str(tmp_path))
        plain = run_scenario(scenario)
        assert epoch_facts(durable) == epoch_facts(plain)
        assert durable.initial_cost == plain.initial_cost
        assert durable.final_cost == plain.final_cost
        assert round_digests(str(tmp_path)) == [
            _decisions_digest(report.decisions.columns())
            for report in plain.round_reports
        ]
        assert all(s.recovered_from is None for s in durable.epoch_stats)

    def test_resume_across_a_capacity_restore(self, tmp_path):
        """rolling-maintenance restores a drained rack's capacity after
        the stop: the resumed cluster must accept the resize (its
        capacity arrays used to unpickle onto immutable bytes)."""
        calls = []

        def stop_after_four():
            calls.append(None)
            return len(calls) > 4

        directory = str(tmp_path)
        stopped = run_scenario(
            "rolling-maintenance", scale="toy", epochs=3,
            checkpoint_dir=directory, stop_requested=stop_after_four,
        )
        assert stopped.interrupted
        resumed = DurableScenarioRun.resume(directory).run()
        plain = run_scenario("rolling-maintenance", scale="toy", epochs=3)
        assert resumed.final_cost == plain.final_cost

    def test_journal_holds_only_begin_and_commit_records(self, tmp_path):
        run_durable_scenario(_scenario("hlf"), str(tmp_path), epochs=EPOCHS)
        kinds = journal_kinds(str(tmp_path))
        assert {"begin", "transition", "round", "epoch"} <= kinds
        assert kinds <= COMMIT_LOG_KINDS

    def test_legacy_records_between_commits_still_resume(self, tmp_path):
        """Older versions also journaled every scheduler mutation
        (``op``), applied event (``event``) and checkpoint
        (``snapshot``) between commits.  Replay selects commit kinds, so
        such a journal resumes twin-equivalent.  The snapshots are
        dropped: the cold-rebuild rung replays from ``begin``, so no
        snapshot position has to line up with the rewritten seqs."""
        directory = crash("hlf", FaultPlan(crash_at_s=150.0))
        for snap in glob.glob(os.path.join(directory, "*.snap")):
            os.remove(snap)
        path = os.path.join(directory, JOURNAL_NAME)
        with Journal(path) as journal:
            records = list(journal)
        os.remove(path)
        with Journal(path) as journal:
            for record in records:
                if record.kind != "begin":
                    journal.append(
                        "event", {"t": 1.5, "event": "arrival x2 @ 500"}
                    )
                    journal.append("op", {"op": "retire_vms", "vm_ids": [3]})
                journal.append(record.kind, record.data)
                if record.kind == "round":
                    journal.append(
                        "snapshot",
                        {"file": "snapshot-00000001.snap", "journal_seq": 1},
                    )
        assert {"op", "event", "snapshot"} <= journal_kinds(directory)
        recovered = resume_durable_scenario(directory)
        assert_twin_equivalent("hlf", directory, recovered)
        assert recovered.epoch_stats[0].recovered_from.startswith(
            "cold-rebuild"
        )

    def test_resume_of_a_finished_run_changes_nothing(self, tmp_path):
        first = run_durable_scenario(
            "steady", str(tmp_path), scale="toy", epochs=2
        )
        digests_before = round_digests(str(tmp_path))
        again = resume_durable_scenario(str(tmp_path))
        assert again.final_cost == pytest.approx(first.final_cost, rel=RELTOL)
        assert round_digests(str(tmp_path)) == digests_before

    def test_create_refuses_a_directory_already_in_use(self, tmp_path):
        run_durable_scenario("steady", str(tmp_path), scale="toy", epochs=1)
        with pytest.raises(ValueError, match="already holds"):
            DurableScenarioRun.create("steady", str(tmp_path), scale="toy")

    def test_tampered_commit_record_fails_replay_verification(self, tmp_path):
        directory = crash("hlf", FaultPlan(crash_at_s=150.0))
        # Force the cold-rebuild rung so replay re-verifies *every*
        # commit (snapshots would otherwise cover the tampered record).
        for snap in glob.glob(os.path.join(directory, "*.snap")):
            os.remove(snap)
        path = os.path.join(directory, JOURNAL_NAME)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        # Falsify the last round commit's digest — with a *valid* CRC, so
        # only semantic replay verification can catch it.
        for i in range(len(lines) - 1, -1, -1):
            body = json.loads(lines[i])
            if body["kind"] == "round":
                body.pop("crc")
                body["data"]["digest"] = "0" * 16
                lines[i] = _canonical({**body, "crc": _crc(body)})
                break
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        with pytest.raises(RecoveryError, match="digest"):
            resume_durable_scenario(directory)

    def test_recovery_provenance_reaches_the_cli_table(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "ckpt")
        code = main(
            [
                "scenario", "steady", "--scale", "toy", "--epochs", "1",
                "--iterations-per-epoch", "1",
                "--checkpoint-dir", directory,
            ]
        )
        assert code == 0
        # Wipe the snapshots: recovery must cold-rebuild and say so.
        for snap in glob.glob(os.path.join(directory, "*.snap")):
            os.remove(snap)
        assert main(["scenario", "--recover-from", directory]) == 0
        out = capsys.readouterr().out
        assert "recov" in out
        assert "cold-rebuild" in out


# ---------------------------------------------------------------------------
# Fuzzed kill-point matrix (the dedicated CI job)
# ---------------------------------------------------------------------------


def _crash_seeds():
    raw = os.environ.get("REPRO_CRASH_SEEDS", "")
    if raw.strip():
        return [int(s) for s in raw.split(",") if s.strip()]
    return [7, 19, 31]


def _fuzz_plan(seed, policy):
    """A kill point for ``seed``; a journal kill tears one of the
    appends the twin makes, from the third to its last."""
    rng = random.Random(seed)
    kind = rng.choice(["pump", "snapshot", "journal"])
    if kind == "pump":
        return FaultPlan(
            crash_at_s=rng.uniform(40.0, 250.0),
            transient_errors=rng.choice([0, 0, 2]),
        )
    if kind == "snapshot":
        return FaultPlan(
            crash_on_snapshot=rng.randint(2, 5),
            snapshot_mode=rng.choice(["vanish", "torn", "corrupt"]),
            tear_fraction=rng.uniform(0.05, 0.95),
        )
    return FaultPlan(
        crash_on_journal_append=rng.randint(3, twin_appends(policy)),
        tear_fraction=rng.uniform(0.05, 0.95),
    )


@pytest.mark.recovery
@pytest.mark.parametrize("policy", ["rr", "hlf"])
@pytest.mark.parametrize("seed", _crash_seeds())
def test_fuzzed_kill_matrix(seed, policy):
    plan = _fuzz_plan(seed, policy)
    directory = crash(policy, plan, validate=True)
    recovered = resume_durable_scenario(directory, validate=True)
    assert_twin_equivalent(policy, directory, recovered)


# ---------------------------------------------------------------------------
# Journal compaction on checkpoint (the daemon-lifetime boundedness rider)
# ---------------------------------------------------------------------------


def journal_seqs(directory):
    with Journal(os.path.join(directory, JOURNAL_NAME)) as journal:
        return [r.seq for r in journal]


class TestJournalCompaction:
    def test_compaction_bounds_the_journal_and_preserves_the_run(
        self, tmp_path
    ):
        plain = run_durable_scenario(
            _scenario("hlf"), str(tmp_path / "plain"), epochs=EPOCHS
        )
        compacted = run_durable_scenario(
            _scenario("hlf"),
            str(tmp_path / "compacted"),
            epochs=EPOCHS,
            compact_journal=True,
            keep_generations=2,
        )
        # Same trajectory, strictly fewer live records on disk.
        assert compacted.final_cost == pytest.approx(
            plain.final_cost, rel=RELTOL
        )
        assert compacted.total_migrations == plain.total_migrations
        plain_seqs = journal_seqs(str(tmp_path / "plain"))
        short_seqs = journal_seqs(str(tmp_path / "compacted"))
        assert len(short_seqs) < len(plain_seqs)
        with Journal(
            os.path.join(str(tmp_path / "compacted"), JOURNAL_NAME)
        ) as journal:
            marker = journal.find_first("compact")
            assert marker is not None
            # The dropped span is exactly what the surviving snapshots
            # cover: every kept record replays on top of one of them.
            assert marker.data["dropped"] >= 1

    def test_resume_after_compaction_changes_nothing(self, tmp_path):
        first = run_durable_scenario(
            "steady",
            str(tmp_path),
            scale="toy",
            epochs=2,
            compact_journal=True,
            keep_generations=2,
        )
        again = resume_durable_scenario(str(tmp_path))
        assert again.final_cost == pytest.approx(first.final_cost, rel=RELTOL)

    @pytest.mark.parametrize("mode", ["before", "after"])
    def test_crash_mid_compaction_recovers_twin_equivalent(
        self, tmp_path, mode
    ):
        """The atomic-rewrite window: a kill on either side of the
        rename leaves a journal (old or new) the ladder recovers from."""
        plan = FaultPlan(crash_on_compaction=2, compaction_mode=mode)
        directory = str(tmp_path / "victim")
        with pytest.raises(SimulatedCrash):
            run_durable_scenario(
                _scenario("hlf"),
                directory,
                epochs=EPOCHS,
                compact_journal=True,
                keep_generations=2,
                io=FaultyIO(plan),
                fault=plan,
            )
        recovered = resume_durable_scenario(directory)
        twin_dir, reference = twin("hlf")
        assert recovered.final_cost == pytest.approx(
            reference.final_cost, rel=RELTOL
        )
        assert final_mapping(recovered) == final_mapping(reference)
        # The compacted journal keeps only a round suffix — it must be
        # exactly the tail of the twin's digest chain.
        survivors = round_digests(directory)
        full = round_digests(twin_dir)
        assert survivors == full[len(full) - len(survivors):]

    def test_cold_rebuild_is_refused_once_compacted(self, tmp_path):
        """Compaction trades the cold-rebuild rung for boundedness; the
        resume path must say so, typed, instead of replaying a hole."""
        directory = str(tmp_path)
        run_durable_scenario(
            "steady",
            directory,
            scale="toy",
            epochs=2,
            compact_journal=True,
            keep_generations=2,
        )
        with Journal(os.path.join(directory, JOURNAL_NAME)) as journal:
            assert journal.find_first("compact") is not None
        for snap in glob.glob(os.path.join(directory, "*.snap")):
            os.remove(snap)
        with pytest.raises(RecoveryError, match="compact"):
            resume_durable_scenario(directory)
