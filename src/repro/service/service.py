"""The scheduler service: S-CORE as a supervised long-running daemon.

:class:`SchedulerService` wraps one :class:`~repro.core.scheduler.SCOREScheduler`
in the durable core of :mod:`repro.persist.durable` and drives
it one token round at a time: poll the event source, admit through the
bounded :class:`~repro.service.admission.IngestionQueue`, dispatch into
the continuous-time runner, run the round, commit it to the journal,
emit a :class:`MigrationPlan`, checkpoint on cadence.  Everything the
trajectory depends on — scheduler graph, event heap, ingestion queue,
the *source itself* (RNG state included) — pickles into snapshot
generations, so a service killed at any point resumes bit-exact.

Robustness model (the state machine ``docs/service.md`` diagrams)::

    running ──invariant violation──▶ safe-mode ──▶ recovering ─┐
       ▲  ╲──persist IO exhausted──▶ degraded ──checkpoint ok──┤
       │                                                       │
       └───────────────────────────────────────────────────────┘
    running ──stop requested──▶ draining ──final checkpoint──▶ stopped

* **safe mode** — :class:`~repro.util.validation.InvariantViolation`
  from the per-round engine check freezes plan emission, snapshots the
  offending state to ``<state_dir>/postmortem/`` for post-mortem, then
  recovers through the shared ladder (newest good generation → older →
  cold rebuild) and verified re-execution.  The violating round was
  never committed, so replay stops at the last good round and re-runs
  it cleanly.  A bounded recovery budget turns a *persistent* violation
  into a typed :class:`ServiceFailed` instead of a loop.
* **degraded persistence** — every journal append and snapshot write
  retries with backoff inside a deadline budget; past it the service
  raises no raw ``OSError`` but enters *degraded*: scheduling continues,
  journaling pauses, and every round probes with a checkpoint attempt.
  The first snapshot that lands covers the journal gap (its state is
  newer than every skipped record), so the service exits degraded with
  full durability restored.
* **supervision** — :func:`supervise` is the watchdog: it catches the
  fault harness's :class:`~repro.persist.faults.SimulatedCrash` (a
  stand-in for SIGKILL), drops the dead incarnation and resumes a fresh
  one from newest-good-snapshot + journal replay, up to a restart
  budget.
* **graceful drain** — :class:`GracefulShutdown` turns SIGINT/SIGTERM
  into a polled flag: the in-flight round finishes, a final checkpoint
  flushes, and :meth:`SchedulerService.serve` returns with the service
  stopped cleanly (a later ``resume`` continues the stream mid-flight).
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.persist.durable import JOURNAL_FORMAT, DurableCore
from repro.persist.faults import FaultPlan, SimulatedCrash
from repro.persist.journal import Journal, JournalRecord
from repro.persist.snapshot import StorageIO, write_snapshot
from repro.service.admission import Accepted, Deferred, IngestionQueue
from repro.service.sources import EventSource, source_from_spec
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.util.validation import InvariantViolation, check_engine_invariants

# Service lifecycle states (ServiceReport.transitions records each move).
RUNNING = "running"
DEGRADED = "degraded"
SAFE_MODE = "safe-mode"
RECOVERING = "recovering"
DRAINING = "draining"
STOPPED = "stopped"
FAILED = "failed"


class ServiceFailed(Exception):
    """The service exhausted a recovery budget and gave up (typed)."""


class DegradedPersistence(Exception):
    """Persist IO still failing after the deadline's retry budget.

    Raised *internally* by the guarded persistence path and consumed by
    the service's degraded-mode transition — callers of the public
    surface never see a raw ``OSError`` from the persistence layer.
    """

    def __init__(self, operation: str, deadline_s: float, cause: OSError):
        super().__init__(
            f"{operation} still failing after {deadline_s:g}s retry "
            f"budget: {cause}"
        )
        self.operation = operation
        self.deadline_s = deadline_s
        self.cause = cause


@dataclass(frozen=True)
class ServiceConfig:
    """Runtime knobs of one service; journaled in the ``begin`` record."""

    #: Rounds between snapshot generations (the bootstrap one is free).
    checkpoint_every: int = 4
    keep_generations: int = 4
    #: Truncate journal records older than every surviving generation
    #: after each checkpoint (daemons run unbounded: default on).
    compact_journal: bool = True
    #: Run the shallow engine-invariant screen every k-th round (0=off).
    validate_every: int = 1
    #: Of the validated rounds, every k-th also runs the deep tier (0=off).
    deep_validate_every: int = 0
    queue_capacity: int = 64
    queue_soft_limit: Optional[int] = None
    #: Events fed to the runner per round (None: the queue's soft limit).
    max_dispatch_per_round: Optional[int] = None
    #: Retry budget for any single persist operation before degrading.
    persist_deadline_s: float = 2.0
    max_safe_mode_recoveries: int = 3

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.keep_generations < 2:
            raise ValueError(
                f"keep_generations must be >= 2, got {self.keep_generations}"
            )
        if self.validate_every < 0 or self.deep_validate_every < 0:
            raise ValueError("validate cadences must be >= 0")
        if (
            self.max_dispatch_per_round is not None
            and self.max_dispatch_per_round < 1
        ):
            raise ValueError(
                "max_dispatch_per_round must be >= 1, "
                f"got {self.max_dispatch_per_round}"
            )
        if self.persist_deadline_s <= 0:
            raise ValueError(
                f"persist_deadline_s must be > 0, got {self.persist_deadline_s}"
            )
        if self.max_safe_mode_recoveries < 0:
            raise ValueError("max_safe_mode_recoveries must be >= 0")


@dataclass(frozen=True)
class MigrationPlan:
    """One emitted round outcome: the service's output artifact."""

    round: int
    clock: float
    cost: float
    events_absorbed: int
    #: ``(vm_id, source_host, target_host)`` per migrated VM, hold order.
    moves: Tuple[Tuple[int, int, int], ...]

    @property
    def migrations(self) -> int:
        return len(self.moves)


@dataclass
class SafeModeWindow:
    """One frozen-emission window: violation through recovered."""

    start_clock: float
    invariant: str
    context: str
    end_clock: Optional[float] = None
    #: Path of the offending state's post-mortem snapshot (None when the
    #: post-mortem write itself failed — recovery proceeds regardless).
    postmortem: Optional[str] = None


@dataclass
class DegradedWindow:
    """One journaling pause: persist failure through covering checkpoint."""

    start_clock: float
    operation: str
    end_clock: Optional[float] = None


@dataclass
class ServiceReport:
    """Observability surface of one service incarnation."""

    state: str = RUNNING
    #: Rounds this incarnation ran live (replayed rounds excluded).
    rounds: int = 0
    #: Committed position including everything recovery replayed.
    rounds_total: int = 0
    plans: int = 0
    events_applied: int = 0
    migrations: int = 0
    final_cost: float = float("nan")
    #: Rounds that skipped source polling because the queue was overloaded.
    backpressure_rounds: int = 0
    #: Admission counters (accepted/deferred/coalesced/rejected/dispatched);
    #: snapshot-persistent, so exact across crash recovery.
    admissions: Dict[str, int] = field(default_factory=dict)
    #: ``(clock, from, to, reason)`` per lifecycle transition.
    transitions: List[Tuple[float, str, str, str]] = field(
        default_factory=list
    )
    safe_mode: List[SafeModeWindow] = field(default_factory=list)
    degraded: List[DegradedWindow] = field(default_factory=list)
    #: Journal records skipped while degraded (covered by checkpoints).
    skipped_appends: int = 0
    restarts: int = 0
    recovered_from: Optional[str] = None
    stop_reason: Optional[str] = None
    #: Wall-clock admission-to-emitted-plan latency per applied event.
    latencies_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile event-to-plan latency (0 with no samples)."""
        if not self.latencies_s:
            return 0.0
        ranked = sorted(self.latencies_s)
        return ranked[int(0.99 * (len(ranked) - 1))]

    @property
    def events_per_second(self) -> float:
        """Sustained wall-clock event absorption rate this incarnation."""
        return self.events_applied / self.wall_s if self.wall_s > 0 else 0.0


class SchedulerService(DurableCore):
    """One supervised S-CORE daemon over a durable state directory.

    Build with :meth:`create` (fresh directory) or :meth:`resume`
    (recover), then :meth:`serve`.  ``source`` may be an
    :class:`~repro.service.sources.EventSource` or a callable
    ``factory(round_seconds) -> EventSource`` for sources that need the
    round length (it is only known once the environment exists).
    ``on_plan`` observes every emitted :class:`MigrationPlan` as it
    happens; ``service.plans`` keeps them all.

    Opening, the recovery ladder, verified replay, the journal seams and
    checkpointing are :class:`~repro.persist.durable.DurableCore`'s; the
    service adds its source and admission, plan emission, safe mode,
    degraded persistence and supervision.
    """

    SPEC_KEY = "experiment"
    COMMIT_KINDS = ("round",)

    def __init__(
        self,
        state_dir: str,
        journal: Journal,
        experiment: ExperimentConfig,
        config: ServiceConfig,
        source_spec: Optional[Dict[str, Any]],
        io: StorageIO,
        fault: Optional[FaultPlan],
        on_plan: Optional[Callable[[MigrationPlan], None]],
    ) -> None:
        super().__init__(
            state_dir,
            journal,
            io,
            fault,
            config.keep_generations,
            config.compact_journal,
        )
        self._experiment = experiment
        self._config = config
        self._source_spec = source_spec
        self._on_plan = on_plan
        self._state = RUNNING
        self._journal_down = False
        self._safe_mode_recoveries = 0
        self._report = ServiceReport(state=RUNNING)
        self._admit_wall: Dict[int, float] = {}
        self.plans: List[MigrationPlan] = []
        # Service runtime state (_boot_fresh / _install_state fill these).
        self._source: Optional[EventSource] = None
        self._queue: Optional[IngestionQueue] = None
        self._rounds_done = 0
        self._last_migrations = -1

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        experiment: ExperimentConfig,
        state_dir: str,
        source=None,
        *,
        config: Optional[ServiceConfig] = None,
        io: Optional[StorageIO] = None,
        fault: Optional[FaultPlan] = None,
        on_plan: Optional[Callable[[MigrationPlan], None]] = None,
    ) -> "SchedulerService":
        """Start a fresh service in an empty ``state_dir``.

        The experiment config, service config and the source's rebuild
        spec are journaled as the ``begin`` record (the cold-rebuild
        rung), and the bootstrap snapshot — generation 1, the ladder's
        floor — is written before this returns.
        """
        config = config or ServiceConfig()
        io = io or StorageIO()
        journal = cls._open_fresh(state_dir, io)
        service = cls(
            state_dir, journal, experiment, config, None, io, fault, on_plan
        )
        try:
            service._boot_fresh()
            if callable(source) and not isinstance(source, EventSource):
                source = source(service._runner.round_seconds)
            service._source = source
            service._source_spec = (
                source.spec() if source is not None else None
            )
            # Guarded like every other append: a transiently failing disk
            # at boot retries inside the deadline budget instead of
            # leaking a raw OSError out of create().
            service._guarded(
                "journal append (begin)",
                lambda: journal.append(
                    "begin",
                    {
                        "format": JOURNAL_FORMAT,
                        "experiment": asdict(experiment),
                        "service": asdict(config),
                        "source": service._source_spec,
                    },
                ),
            )
            service._checkpoint()  # generation 1: the ladder's floor
        except BaseException:
            service.close()
            raise
        return service

    @classmethod
    def resume(
        cls,
        state_dir: str,
        *,
        config: Optional[ServiceConfig] = None,
        io: Optional[StorageIO] = None,
        fault: Optional[FaultPlan] = None,
        on_plan: Optional[Callable[[MigrationPlan], None]] = None,
    ) -> "SchedulerService":
        """Recover a service from its state directory.

        Applies the degradation ladder (newest good snapshot → older
        generations → cold rebuild from the ``begin`` spec), then
        re-executes the journal's committed round suffix, verifying
        each against its commit record.  ``config`` overrides the
        journaled service config (None keeps it).
        """
        io = io or StorageIO()
        journal, begin = cls._open_existing(state_dir, io)
        if config is None:
            config = ServiceConfig(**begin.data["service"])
        service = cls(
            state_dir,
            journal,
            ExperimentConfig(**begin.data["experiment"]),
            config,
            begin.data.get("source"),
            io,
            fault,
            on_plan,
        )
        try:
            service._recover()
        except BaseException:
            service.close()
            raise
        return service

    # -- runtime state -------------------------------------------------

    def _boot_fresh(self) -> None:
        environment = build_environment(self._experiment)
        self._attach(environment, make_scheduler(environment))
        self._queue = IngestionQueue(
            capacity=self._config.queue_capacity,
            soft_limit=self._config.queue_soft_limit,
        )
        self._rounds_done = 0
        self._next_holder = None
        self._last_migrations = -1
        self._source = (
            source_from_spec(self._source_spec, self._runner.round_seconds)
            if self._source_spec is not None
            else None
        )

    def _state_dict(self) -> Dict[str, Any]:
        return {
            **self._runtime_state(),
            "source": self._source,
            "queue": self._queue,
            "rounds_done": self._rounds_done,
            "next_holder": self._next_holder,
            "last_migrations": self._last_migrations,
        }

    def _install_state(self, state: Dict[str, Any]) -> None:
        self._install_runtime(state)
        self._source = state["source"]
        self._queue = state["queue"]
        self._rounds_done = state["rounds_done"]
        self._next_holder = state["next_holder"]
        self._last_migrations = state["last_migrations"]

    # -- lifecycle bookkeeping ------------------------------------------

    def _set_state(self, new: str, reason: str) -> None:
        if new == self._state:
            return
        clock = float(self._scheduler.clock) if self._scheduler else 0.0
        self._report.transitions.append((clock, self._state, new, reason))
        self._state = new

    @property
    def state(self) -> str:
        return self._state

    @property
    def report(self) -> ServiceReport:
        self._report.state = self._state
        self._report.rounds_total = self._rounds_done
        self._report.recovered_from = self._recovered_from
        if self._queue is not None:
            self._report.admissions = dict(self._queue.stats)
        return self._report

    @property
    def rounds_done(self) -> int:
        return self._rounds_done

    @property
    def round_seconds(self) -> float:
        """Simulated seconds per token round (initial-population unit)."""
        return self._runner.round_seconds

    # -- guarded persistence -------------------------------------------

    def _guarded(self, operation: str, attempt):
        """Retry ``attempt`` over OSError inside the deadline budget.

        Each inner attempt already carries :class:`StorageIO`'s own
        bounded retries; this outer loop keeps probing (through the
        injectable sleeper, so fault tests take zero wall-clock) until
        the budget is spent, then surfaces the typed
        :class:`DegradedPersistence` instead of the raw ``OSError``.
        """
        budget = self._config.persist_deadline_s
        waited = 0.0
        backoff = self._io.backoff_s
        while True:
            try:
                return attempt()
            except OSError as exc:
                if waited >= budget:
                    raise DegradedPersistence(operation, budget, exc) from exc
                self._io.sleep(backoff)
                waited += backoff
                backoff *= 2.0

    def _journal_append(
        self, kind: str, data: Dict[str, Any]
    ) -> Optional[int]:
        if self._journal_down:
            self._report.skipped_appends += 1
            return None
        try:
            return self._guarded(
                f"journal append ({kind})",
                lambda: self._journal.append(kind, data),
            )
        except DegradedPersistence as exc:
            self._report.skipped_appends += 1
            self._enter_degraded(exc)
            return None

    def _enter_degraded(self, exc: DegradedPersistence) -> None:
        if "journal" in exc.operation:
            self._journal_down = True
        if self._state != DEGRADED:
            self._report.degraded.append(
                DegradedWindow(
                    start_clock=float(self._scheduler.clock),
                    operation=exc.operation,
                )
            )
            self._set_state(DEGRADED, str(exc))

    def _exit_degraded(self) -> None:
        self._journal_down = False
        if self._report.degraded and self._report.degraded[-1].end_clock is None:
            self._report.degraded[-1].end_clock = float(self._scheduler.clock)
        self._set_state(
            RUNNING, "persistence recovered; checkpoint covers the journal gap"
        )

    def _checkpoint(self) -> Optional[str]:
        if self._replaying:
            return None
        try:
            path = self._guarded("snapshot write", self._write_checkpoint)
        except DegradedPersistence as exc:
            self._enter_degraded(exc)
            return None
        if self._state == DEGRADED:
            self._exit_degraded()
        return path

    # -- safe mode & recovery ------------------------------------------

    def _write_postmortem(self, violation: InvariantViolation) -> Optional[str]:
        """Best-effort snapshot of the offending state for post-mortem.

        Lands in a ``postmortem/`` subdirectory so the recovery ladder
        over the main state directory never sees (or prunes) it; a
        failure to write it must never block recovery itself.
        """
        try:
            return write_snapshot(
                os.path.join(self._directory, "postmortem"),
                {
                    "scheduler": self._scheduler,
                    "invariant": str(violation.invariant),
                    "indices": list(getattr(violation, "indices", ())),
                    "context": str(violation.context),
                    "rounds_done": self._rounds_done,
                },
                meta={
                    "kind": "postmortem",
                    "invariant": str(violation.invariant),
                    "clock": float(self._scheduler.clock),
                },
                io=self._io,
            )
        except Exception:
            # A SimulatedCrash (BaseException) still propagates: a kill
            # during the post-mortem write is a kill like any other.
            return None

    def _handle_violation(self, violation: InvariantViolation) -> None:
        window = SafeModeWindow(
            start_clock=float(self._scheduler.clock),
            invariant=str(violation.invariant),
            context=str(violation.context),
        )
        self._report.safe_mode.append(window)
        self._set_state(
            SAFE_MODE, f"invariant violated: {violation.invariant}"
        )
        window.postmortem = self._write_postmortem(violation)
        self._safe_mode_recoveries += 1
        if self._safe_mode_recoveries > self._config.max_safe_mode_recoveries:
            self._set_state(
                FAILED,
                f"safe-mode recovery budget exhausted "
                f"({self._config.max_safe_mode_recoveries})",
            )
            raise ServiceFailed(
                f"invariant {violation.invariant!r} persisted through "
                f"{self._config.max_safe_mode_recoveries} ladder recoveries"
            ) from violation
        self._set_state(RECOVERING, "recovery ladder from last good state")
        self._recover()
        window.end_clock = float(self._scheduler.clock)
        self._set_state(RUNNING, f"recovered from {self._recovered_from}")

    def _recover(self) -> None:
        super()._recover()
        committed = self._journal.records(kinds=("round",))
        if committed:
            self._report.final_cost = float(committed[-1].data["cost"])

    def _cold_rebuild_refusal(self) -> Optional[str]:
        refusal = super()._cold_rebuild_refusal()
        unrebuildable = self._source_spec is None and self._source is None
        if refusal is None and unrebuildable:
            refusal = "its source is not reconstructible (no rebuild spec)"
        return refusal

    def _redo(self, record: JournalRecord) -> None:
        self.step(expected=record.data)

    # -- the round loop -------------------------------------------------

    def _ingest(self) -> None:
        """Poll the source through the upcoming round — unless overloaded.

        Backpressure is simply not polling: while the queue sits at or
        past its soft watermark the backlog stays inside the source,
        and the service sheds nothing it never accepted.
        """
        if self._source is None:
            return
        if self._queue.overloaded:
            if not self._replaying:
                self._report.backpressure_rounds += 1
            return
        horizon = float(self._scheduler.clock) + self._runner.round_seconds
        now = time.perf_counter()
        for due_s, event in self._source.poll(horizon):
            outcome = self._queue.offer(due_s, event)
            if not self._replaying and isinstance(
                outcome, (Accepted, Deferred)
            ):
                self._admit_wall[id(event)] = now

    def _dispatch(self) -> None:
        limit = (
            self._config.max_dispatch_per_round
            if self._config.max_dispatch_per_round is not None
            else self._queue.soft_limit
        )
        for due_s, event in self._queue.take(limit):
            self._runner.schedule(due_s, event)

    def step(self, expected: Optional[Dict[str, Any]] = None):
        """One full round: ingest → dispatch → schedule → commit → emit.

        Returns the emitted :class:`MigrationPlan` (None while
        replaying).  With ``expected`` (a recorded ``round`` commit) the
        re-executed outcome is verified against it — the recovery path.
        An :class:`~repro.util.validation.InvariantViolation` propagates
        *before* the round commits, so recovery replays only good
        rounds; :meth:`serve` turns it into the safe-mode transition.
        """
        if self._state in (STOPPED, FAILED):
            raise RuntimeError(f"service is {self._state}")
        self._ingest()
        self._dispatch()
        report = self._runner.run(
            n_iterations=1, first_holder=self._next_holder
        )
        applied, self._runner.log = self._runner.log, []
        n = self._rounds_done + 1
        if self._config.validate_every and n % self._config.validate_every == 0:
            deep = bool(
                self._config.deep_validate_every
                and n % self._config.deep_validate_every == 0
            )
            check_engine_invariants(
                self._scheduler,
                context=f"service round {self._rounds_done}",
                deep=deep,
            )
        decisions = self._commit_round(
            report, expected, round=self._rounds_done, events=len(applied)
        )
        self._rounds_done += 1
        self._last_migrations = int(report.total_migrations)
        self._report.final_cost = float(report.final_cost)
        if self._replaying:
            return None
        self._report.rounds += 1
        self._report.events_applied += len(applied)
        self._report.migrations += report.total_migrations
        plan = MigrationPlan(
            round=self._rounds_done - 1,
            clock=float(self._scheduler.clock),
            cost=float(report.final_cost),
            events_absorbed=len(applied),
            moves=tuple(decisions.moves()),
        )
        self.plans.append(plan)
        self._report.plans += 1
        if self._on_plan is not None:
            self._on_plan(plan)
        emitted_at = time.perf_counter()
        for entry in applied:
            admitted_at = self._admit_wall.pop(id(entry.event), None)
            if admitted_at is not None:
                self._report.latencies_s.append(emitted_at - admitted_at)
        if (
            self._rounds_done % self._config.checkpoint_every == 0
            or self._state == DEGRADED  # probe every round while degraded
        ):
            self._checkpoint()
        return plan

    def _finished(self) -> bool:
        """Source dry, queue and heap empty, and the last round moved
        nothing: the service has absorbed its stream and quiesced."""
        return (
            (self._source is None or self._source.exhausted)
            and len(self._queue) == 0
            and self._runner.pending == 0
            and self._rounds_done > 0
            and self._last_migrations == 0
        )

    def serve(
        self,
        *,
        max_rounds: Optional[int] = None,
        stop_requested: Optional[Callable[[], bool]] = None,
    ) -> ServiceReport:
        """Run rounds until the stream is absorbed and the scheduler
        quiesces (or ``max_rounds``, or a graceful-shutdown request).

        ``stop_requested`` — typically a :class:`GracefulShutdown` —
        is polled between rounds: the in-flight round always finishes,
        a final checkpoint is flushed, and a later :meth:`resume`
        continues the stream exactly where the drain left it.
        """
        if self._state == STOPPED:
            self._set_state(RUNNING, "serve() re-entered")
        started = time.perf_counter()
        stop_reason = "stream absorbed and scheduler quiesced"
        steps = 0
        try:
            while True:
                if max_rounds is not None and steps >= max_rounds:
                    stop_reason = f"max_rounds={max_rounds} reached"
                    break
                if stop_requested is not None and stop_requested():
                    self._set_state(DRAINING, "graceful shutdown requested")
                    stop_reason = "graceful shutdown"
                    break
                if self._finished():
                    break
                try:
                    self.step()
                except InvariantViolation as violation:
                    self._handle_violation(violation)
                steps += 1
        finally:
            self._report.wall_s += time.perf_counter() - started
        self._checkpoint()  # the drain's final flush, whatever stopped us
        self._set_state(STOPPED, stop_reason)
        report = self.report
        report.stop_reason = stop_reason
        return report


class GracefulShutdown:
    """SIGINT/SIGTERM → a polled drain flag (usable as ``stop_requested``).

    The first signal sets the flag and *restores the previous handlers*,
    so a second signal behaves as if the guard were never installed
    (KeyboardInterrupt / termination — the operator's force-quit).
    """

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)) -> None:
        self._signals = tuple(signals)
        self._old: Dict[int, Any] = {}
        self.requested = False

    def __enter__(self) -> "GracefulShutdown":
        for sig in self._signals:
            self._old[sig] = signal.signal(sig, self._handle)
        return self

    def _handle(self, signum, frame) -> None:
        self.requested = True
        self._restore()

    def _restore(self) -> None:
        for sig, old in self._old.items():
            with contextlib.suppress(ValueError, OSError, TypeError):
                signal.signal(sig, old)
        self._old = {}

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def __call__(self) -> bool:
        return self.requested


class SupervisedRun(NamedTuple):
    """Outcome of one supervised service run."""

    service: SchedulerService
    report: ServiceReport
    restarts: int
    crash_points: Tuple[str, ...]


def supervise(
    state_dir: str,
    create_fn: Callable[[], SchedulerService],
    *,
    max_restarts: int = 10,
    io_for: Optional[Callable[[int], StorageIO]] = None,
    fault_for: Optional[Callable[[int], FaultPlan]] = None,
    serve_kwargs: Optional[Dict[str, Any]] = None,
) -> SupervisedRun:
    """The watchdog loop: serve to completion, restarting after crashes.

    ``create_fn`` builds incarnation 0 (a fresh
    :meth:`SchedulerService.create`); every later incarnation is a
    :meth:`SchedulerService.resume` from ``state_dir`` — newest good
    snapshot plus journal replay, exactly what a process supervisor
    restarting a killed daemon would do.  ``io_for``/``fault_for`` give
    each incarnation its own (possibly faulty) IO stack — the chaos
    harness's hook.  A crash *during* recovery counts against the same
    ``max_restarts`` budget; exceeding it re-raises the crash.
    """
    crashes: List[str] = []
    service: Optional[SchedulerService] = None
    incarnation = 0
    while True:
        try:
            if service is None:
                if incarnation == 0:
                    service = create_fn()
                else:
                    service = SchedulerService.resume(
                        state_dir,
                        io=io_for(incarnation) if io_for else None,
                        fault=fault_for(incarnation) if fault_for else None,
                    )
            report = service.serve(**(serve_kwargs or {}))
            report.restarts = len(crashes)
            return SupervisedRun(
                service=service,
                report=report,
                restarts=len(crashes),
                crash_points=tuple(crashes),
            )
        except SimulatedCrash as crash:
            crashes.append(str(crash))
            if service is not None:
                with contextlib.suppress(Exception):
                    service.close()
            service = None
            if len(crashes) > max_restarts:
                raise
            incarnation += 1
