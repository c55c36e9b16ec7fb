"""Tests for the scheduler service: admission, lifecycle, robustness.

Covers the daemon's four robustness pillars one at a time (the chaos
soak in ``test_service_chaos.py`` covers them composed):

* the :class:`~repro.service.admission.IngestionQueue` policy — every
  offer yields a typed outcome, structural churn is never dropped,
  rate-only deltas coalesce or shed;
* the lifecycle state machine — create/serve/resume, graceful drain
  (drained-then-resumed equals never-drained), re-entry;
* safe mode — an out-of-band invariant poison freezes emission, lands a
  post-mortem snapshot, recovers through the ladder, and the finished
  run is indistinguishable from a never-poisoned twin;
* degraded persistence — transient IO failure past the retry deadline
  pauses journaling without stopping scheduling, and the first
  checkpoint that lands restores full durability.
"""

from __future__ import annotations

import math
import os
import pickle
import signal

import pytest

from repro.persist import (
    JOURNAL_NAME,
    FaultPlan,
    FaultyIO,
    Journal,
    SimulatedCrash,
)
from repro.persist.snapshot import load_latest_good
from repro.scenarios.scenario import SCALES
from repro.service import (
    Accepted,
    Coalesced,
    Deferred,
    GracefulShutdown,
    IngestionQueue,
    PoissonSource,
    Rejected,
    SchedulerService,
    ServiceConfig,
    ServiceFailed,
    supervise,
)
from repro.sim.eventqueue import Arrival, Retirement, TrafficSurge
from repro.sim.experiment import ExperimentConfig

RELTOL = 1e-9

#: Every record kind a durable run may leave in its journal.
COMMIT_LOG_KINDS = {"begin", "transition", "round", "epoch", "compact"}


def _experiment(policy="hlf", seed=5):
    return ExperimentConfig(**SCALES["toy"], policy=policy, seed=seed)


def _poisson(horizon_rounds=4.0, seed=3, rate=3.0):
    return lambda rs: PoissonSource(rate, rs, horizon_rounds, seed=seed)


def _mapping(service):
    allocation = service.environment.allocation
    return {int(v): int(allocation.server_of(v)) for v in allocation.vm_ids()}


class TestIngestionQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            IngestionQueue(capacity=1)
        with pytest.raises(ValueError):
            IngestionQueue(capacity=8, soft_limit=0)
        with pytest.raises(ValueError):
            IngestionQueue(capacity=8, soft_limit=9)

    def test_default_soft_limit_is_half_capacity(self):
        queue = IngestionQueue(capacity=10)
        assert queue.soft_limit == 5

    def test_accept_below_watermark(self):
        queue = IngestionQueue(capacity=8, soft_limit=4)
        outcome = queue.offer(1.0, Arrival(1))
        assert isinstance(outcome, Accepted)
        assert outcome.depth == 1
        assert not queue.overloaded
        assert queue.stats["accepted"] == 1

    def test_structural_deferred_never_dropped(self):
        queue = IngestionQueue(capacity=4, soft_limit=2)
        queue.offer(1.0, Arrival(1))
        queue.offer(2.0, Arrival(1))
        assert queue.overloaded
        # Structural events are admitted past the watermark — and even
        # past capacity: correctness beats the bound.
        outcomes = [
            queue.offer(3.0 + i, Retirement(1)) for i in range(4)
        ]
        assert all(isinstance(o, Deferred) for o in outcomes)
        assert len(queue) == 6 > queue.capacity
        assert queue.stats["deferred"] == 4

    def test_rate_only_coalesces_into_newest_peer(self):
        queue = IngestionQueue(capacity=8, soft_limit=2)
        queue.offer(1.0, TrafficSurge(1.2, top_pairs=8))
        queue.offer(2.0, TrafficSurge(1.5, top_pairs=8))
        assert queue.overloaded
        outcome = queue.offer(3.0, TrafficSurge(2.0, top_pairs=8))
        assert isinstance(outcome, Coalesced)
        assert outcome.into_due_s == 2.0  # the newest equivalent peer
        merged = queue.take()[-1][1]
        assert merged.factor == pytest.approx(1.5 * 2.0)
        assert queue.stats["coalesced"] == 1

    def test_rate_only_rejected_without_matching_peer(self):
        queue = IngestionQueue(capacity=8, soft_limit=2)
        queue.offer(1.0, Arrival(1))
        queue.offer(2.0, TrafficSurge(1.2, top_pairs=8))
        # top_pairs differs -> coalesce returns None -> typed shed.
        outcome = queue.offer(3.0, TrafficSurge(1.2, top_pairs=16))
        assert isinstance(outcome, Rejected)
        assert "shed" in outcome.reason
        assert len(queue) == 2
        assert queue.stats["rejected"] == 1

    def test_take_is_fifo_and_bounded(self):
        queue = IngestionQueue(capacity=8, soft_limit=8)
        events = [Arrival(1), Retirement(1), Arrival(2)]
        for i, event in enumerate(events):
            queue.offer(float(i), event)
        first = queue.take(2)
        assert [e for _, e in first] == events[:2]
        assert [due for due, _ in first] == [0.0, 1.0]
        rest = queue.take()
        assert [e for _, e in rest] == events[2:]
        assert len(queue) == 0
        assert queue.stats["dispatched"] == 3

    def test_take_refuses_a_negative_bound(self):
        queue = IngestionQueue(capacity=8, soft_limit=8)
        for i in range(3):
            queue.offer(float(i), Arrival(1))
        with pytest.raises(ValueError, match="max_n"):
            queue.take(-1)
        assert len(queue) == 3
        assert queue.stats["dispatched"] == 0
        assert queue.take(0) == []

    def test_pickles_with_stats_and_backlog(self):
        queue = IngestionQueue(capacity=8, soft_limit=2)
        queue.offer(1.0, Arrival(1))
        queue.offer(2.0, Arrival(1))
        queue.offer(3.0, Retirement(1))
        clone = pickle.loads(pickle.dumps(queue))
        assert clone.stats == queue.stats
        assert len(clone) == len(queue)
        assert [due for due, _ in clone.take()] == [1.0, 2.0, 3.0]


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_every": 0},
            {"keep_generations": 1},
            {"validate_every": -1},
            {"deep_validate_every": -1},
            {"persist_deadline_s": 0.0},
            {"max_safe_mode_recoveries": -1},
            {"max_dispatch_per_round": 0},
            {"max_dispatch_per_round": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestServiceLifecycle:
    def test_serve_to_quiescence(self, tmp_path):
        with SchedulerService.create(
            _experiment(),
            str(tmp_path / "svc"),
            _poisson(),
            config=ServiceConfig(checkpoint_every=2),
        ) as service:
            report = service.serve()
        assert report.state == "stopped"
        assert report.stop_reason == "stream absorbed and scheduler quiesced"
        assert report.rounds == report.plans == len(service.plans) > 0
        assert report.events_applied > 0
        assert math.isfinite(report.final_cost)
        assert report.admissions["dispatched"] > 0
        # Every emitted plan matches the report's roll-up.
        assert sum(p.events_absorbed for p in service.plans) == (
            report.events_applied
        )
        assert sum(p.migrations for p in service.plans) == report.migrations

    def test_journal_holds_commits_and_the_event_log_one_round(
        self, tmp_path
    ):
        """The journal is a commit log, and the daemon keeps no event
        history: the runner's log is read and cleared every round."""
        where = str(tmp_path / "svc")
        with SchedulerService.create(
            _experiment(), where, _poisson(), config=ServiceConfig()
        ) as service:
            report = service.serve()
            assert report.rounds > 1
            last = service.plans[-1].events_absorbed
            assert report.events_applied > last
            assert len(service._runner.log) <= last
        with Journal(os.path.join(where, JOURNAL_NAME)) as journal:
            kinds = {record.kind for record in journal}
        assert "round" in kinds
        assert kinds <= COMMIT_LOG_KINDS

    def test_create_refuses_populated_directory(self, tmp_path):
        where = str(tmp_path / "svc")
        SchedulerService.create(_experiment(), where, _poisson()).close()
        with pytest.raises(ValueError, match="resume"):
            SchedulerService.create(_experiment(), where, _poisson())

    def test_step_after_stop_raises(self, tmp_path):
        with SchedulerService.create(
            _experiment(), str(tmp_path / "svc"), _poisson()
        ) as service:
            service.serve(max_rounds=1)
            with pytest.raises(RuntimeError, match="stopped"):
                service.step()

    def test_resume_reports_committed_cost_and_position(self, tmp_path):
        where = str(tmp_path / "svc")
        with SchedulerService.create(
            _experiment(), where, _poisson(), config=ServiceConfig(
                checkpoint_every=2
            )
        ) as service:
            report = service.serve()
        with SchedulerService.resume(where) as resumed:
            assert resumed.recovered_from is not None
            assert resumed.rounds_done == report.rounds_total
            assert resumed.report.final_cost == pytest.approx(
                report.final_cost, rel=RELTOL
            )

    def test_sharded_service_resumes_by_verified_replay(self, tmp_path):
        """A sharded service checkpoints at boot, and its resume replays
        the journaled rounds onto exactly the uninterrupted state."""
        experiment = _experiment().with_(sharding=True, shard_domains=2)
        config = ServiceConfig(checkpoint_every=100)
        with SchedulerService.create(
            experiment, str(tmp_path / "twin"), _poisson(), config=config
        ) as twin:
            twin.serve(max_rounds=2)
            want_cost, want_mapping = twin.report.final_cost, _mapping(twin)
        where = str(tmp_path / "victim")
        with SchedulerService.create(
            experiment, where, _poisson(), config=config
        ) as service:
            service.step()
            service.step()
        with SchedulerService.resume(where) as resumed:
            assert resumed.rounds_done == 2
            assert resumed.report.final_cost == want_cost
            assert _mapping(resumed) == want_mapping

    def test_drain_then_resume_equals_uninterrupted(self, tmp_path):
        """The graceful-drain guarantee: stopping mid-stream and resuming
        later lands on exactly the trajectory a never-stopped service
        takes — cost, mapping and admission counters all identical."""
        twin = SchedulerService.create(
            _experiment(), str(tmp_path / "twin"), _poisson()
        )
        twin_report = twin.serve()
        twin.close()

        polls = {"n": 0}

        def stop_after_two_rounds():
            polls["n"] += 1
            return polls["n"] > 2

        where = str(tmp_path / "victim")
        service = SchedulerService.create(_experiment(), where, _poisson())
        drained = service.serve(stop_requested=stop_after_two_rounds)
        service.close()
        assert drained.stop_reason == "graceful shutdown"
        assert any(t[2] == "draining" for t in drained.transitions)
        assert drained.rounds_total < twin_report.rounds_total

        resumed = SchedulerService.resume(where)
        final = resumed.serve()
        assert final.rounds_total == twin_report.rounds_total
        assert final.final_cost == pytest.approx(
            twin_report.final_cost, rel=RELTOL
        )
        assert final.admissions == twin_report.admissions
        resumed.close()

    def test_overload_applies_backpressure_to_the_source(self, tmp_path):
        """A burst beyond the dispatch budget keeps the queue over its
        watermark across rounds: the service stops polling (counted as
        backpressure) and still loses no structural event."""
        from repro.scenarios.scenario import EventSpec
        from repro.service import ScriptedSource

        burst = [
            EventSpec(at_round=1.0 + 0.01 * i, kind="arrival", count=1)
            for i in range(8)
        ]
        with SchedulerService.create(
            _experiment(),
            str(tmp_path / "svc"),
            lambda rs: ScriptedSource.from_specs(burst, rs),
            config=ServiceConfig(
                queue_capacity=16, queue_soft_limit=2, max_dispatch_per_round=1
            ),
        ) as service:
            report = service.serve()
        assert report.backpressure_rounds > 0
        # Every one of the 8 structural arrivals was eventually applied.
        assert report.admissions["dispatched"] == 8
        assert (
            report.admissions["accepted"] + report.admissions["deferred"] == 8
        )

    def test_supervise_restarts_after_kill(self, tmp_path):
        where = str(tmp_path / "svc")
        plan = FaultPlan(crash_at_s=120.0)
        run = supervise(
            where,
            lambda: SchedulerService.create(
                _experiment(), where, _poisson(), fault=plan
            ),
        )
        assert run.restarts == 1
        assert "between-waves" in run.crash_points[0]
        assert run.report.state == "stopped"
        assert run.report.recovered_from is not None
        run.service.close()

    def test_supervise_restart_budget_reraises(self, tmp_path):
        where = str(tmp_path / "svc")
        # Every incarnation dies at the same simulated second and max
        # restarts is zero: the crash must surface, not loop.
        with pytest.raises(SimulatedCrash):
            supervise(
                where,
                lambda: SchedulerService.create(
                    _experiment(),
                    where,
                    _poisson(),
                    fault=FaultPlan(crash_at_s=120.0),
                ),
                max_restarts=0,
            )


class TestGracefulShutdown:
    def test_signal_sets_flag_and_restores_handler(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown() as stop:
            assert not stop()
            os.kill(os.getpid(), signal.SIGTERM)
            assert stop()
            # First signal restored the previous handler: a second
            # SIGTERM would behave as if the guard were never there.
            assert signal.getsignal(signal.SIGTERM) is before
        assert signal.getsignal(signal.SIGTERM) is before


class TestSafeMode:
    def _poison(self, service):
        # Out-of-band corruption the per-round invariant screen catches:
        # the allocation's slot accounting no longer matches its columns.
        service.scheduler.allocation._used_slots[0] += 1

    def test_violation_freezes_recovers_and_matches_twin(self, tmp_path):
        twin = SchedulerService.create(
            _experiment(), str(tmp_path / "twin"), _poisson()
        )
        twin_report = twin.serve()
        twin_mapping = _mapping(twin)
        twin.close()

        service = SchedulerService.create(
            _experiment(),
            str(tmp_path / "victim"),
            _poisson(),
            config=ServiceConfig(checkpoint_every=2),
        )
        service.serve(max_rounds=2)
        self._poison(service)
        report = service.serve()

        # Safe mode was observable: a window opened at the violation,
        # closed after the ladder recovery, and named the invariant.
        assert len(report.safe_mode) == 1
        window = report.safe_mode[0]
        assert window.end_clock is not None
        assert window.invariant
        states = [t[2] for t in report.transitions]
        assert "safe-mode" in states and "recovering" in states
        assert report.recovered_from is not None

        # The post-mortem snapshot landed outside the recovery ladder's
        # view and preserves the *offending* state for diagnosis.
        assert window.postmortem is not None
        postmortem_dir = os.path.join(service.directory, "postmortem")
        loaded = load_latest_good(postmortem_dir)
        assert loaded.header["meta"]["kind"] == "postmortem"
        assert loaded.state["invariant"] == window.invariant

        # Recovery discarded the poisoned round entirely: the finished
        # run is indistinguishable from the never-poisoned twin.
        assert report.state == "stopped"
        assert report.final_cost == pytest.approx(
            twin_report.final_cost, rel=RELTOL
        )
        assert _mapping(service) == twin_mapping
        service.close()

    def test_exhausted_recovery_budget_is_typed_failure(self, tmp_path):
        service = SchedulerService.create(
            _experiment(),
            str(tmp_path / "svc"),
            _poisson(),
            config=ServiceConfig(max_safe_mode_recoveries=0),
        )
        service.serve(max_rounds=2)
        self._poison(service)
        with pytest.raises(ServiceFailed, match="ladder recoveries"):
            service.serve()
        assert service.state == "failed"
        with pytest.raises(RuntimeError, match="failed"):
            service.step()
        service.close()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
    )
    def test_recovery_closes_the_replaced_sharded_scheduler(
        self, tmp_path, own_shm_slabs
    ):
        """Safe mode swaps in the snapshot's scheduler; the poisoned one's
        worker fleet and shared-memory slabs must not outlive it."""
        before = own_shm_slabs()
        service = SchedulerService.create(
            _experiment().with_(
                sharding=True, shard_domains=2, shard_workers=2
            ),
            str(tmp_path / "svc"),
            _poisson(),
            config=ServiceConfig(checkpoint_every=2),
        )
        try:
            service.serve(max_rounds=2)
            replaced = service.scheduler
            assert replaced._shard_coordinator is not None
            self._poison(service)
            report = service.serve()
            assert len(report.safe_mode) == 1
            assert service.scheduler is not replaced
            assert replaced._shard_coordinator is None
        finally:
            service.close()
        assert own_shm_slabs() - before == set()


class TestDegradedPersistence:
    def test_transient_io_storm_degrades_then_recovers(self, tmp_path):
        io = FaultyIO(FaultPlan())
        where = str(tmp_path / "svc")
        service = SchedulerService.create(
            _experiment(),
            where,
            _poisson(),
            config=ServiceConfig(
                checkpoint_every=2, persist_deadline_s=0.02
            ),
            io=io,
        )
        # Storm starts *after* the bootstrap: every write now fails with
        # a transient OSError until the injected supply runs out.
        io._transients_left = 25
        report = service.serve()

        assert report.state == "stopped"
        states = [t[2] for t in report.transitions]
        assert "degraded" in states
        # Scheduling never paused: journaling did, typed and counted.
        assert report.skipped_appends > 0
        assert len(report.degraded) == 1
        window = report.degraded[0]
        assert window.end_clock is not None  # a checkpoint landed
        assert math.isfinite(report.final_cost)
        service.close()

        # The covering checkpoint restored full durability: the
        # directory resumes cleanly despite the journal gap.
        with SchedulerService.resume(where) as resumed:
            assert resumed.rounds_done == report.rounds_total
            assert resumed.report.final_cost == pytest.approx(
                report.final_cost, rel=RELTOL
            )
