"""The scenario runner: multi-epoch S-CORE over drift + churn, delta-path.

One epoch is: apply the scenario's churn events (arrivals, departures,
maintenance drains), advance the drift process and feed its change list
through ``SCOREScheduler.apply_traffic_delta`` — the sliding-window
re-estimation of λ (§IV) — then circulate the token for
``iterations_per_epoch`` rounds through the continuous-time event
queue, so scenario events land mid-round at their simulated timestamps.
Every transition goes through the engine's incremental state-delta
APIs, so a multi-epoch run never pays a full snapshot rebuild.

There is one loop, :class:`DurableScenarioRun`, and it runs one round at
a time: ``SCOREScheduler.run`` chains successive rounds through the
holder its policy's ``end_round`` returns, and the scheduler's
``first_holder``/``next_holder`` seam reproduces that chain across
separate one-round calls.  Given a directory, the loop journals and
snapshots through :class:`repro.persist.durable.DurableCore`, so a run
killed at *any* point resumes from disk and finishes bit-exact against
its uninterrupted twin (``tests/test_crash_recovery.py`` fuzzes that);
given none, it touches no disk and runs the same loop.
:func:`run_scenario` is the entry point.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Union

from repro.core.scheduler import SchedulerReport
from repro.persist.durable import JOURNAL_FORMAT, DurableCore
from repro.persist.faults import FaultPlan
from repro.persist.journal import JournalRecord
from repro.persist.snapshot import StorageIO
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.scenario import ChurnSpec, DriftSpec, EventSpec, Scenario
from repro.sim.experiment import (
    Environment,
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.util.validation import check_engine_invariants


@dataclass(frozen=True)
class EpochStats:
    """One epoch of a scenario run, summarized."""

    epoch: int
    n_vms: int
    migrations: int
    returning: int
    arrivals: int
    departures: int
    drained: int
    cost_before: float
    cost_after: float
    #: Epoch-transition wall clock: churn + drift through the delta path.
    transition_s: float
    #: Token-loop wall clock for the epoch's iterations.
    schedule_s: float
    #: Timestamped events the continuous-time queue applied this epoch
    #: (mid-round and boundary injections alike).
    events: int = 0
    #: Recovery provenance: which snapshot generation + journal position
    #: this epoch's run resumed from (``"snapshot-00000003.snap@seq42"``,
    #: ``"cold-rebuild@seq1"``), None for an uninterrupted run.
    recovered_from: Optional[str] = None


@dataclass
class ScenarioResult:
    """Full record of one scenario run."""

    scenario: Scenario
    environment: Environment
    epoch_stats: List[EpochStats] = field(default_factory=list)
    #: One report per token round this process ran, in order (a resumed
    #: run holds the rounds after its recovery point only).
    round_reports: List[SchedulerReport] = field(default_factory=list)
    initial_cost: float = 0.0
    final_cost: float = 0.0
    #: Per-phase wall clock + cache counters (None unless profiled).
    profile: Optional[object] = None
    #: True when a graceful-shutdown request (SIGINT/SIGTERM through
    #: ``stop_requested``) ended the run early; a durable run flushed its
    #: final checkpoint, so ``--recover-from`` resumes it.
    interrupted: bool = False

    @property
    def total_migrations(self) -> int:
        """Migrations performed across every epoch."""
        return sum(s.migrations for s in self.epoch_stats)

    @property
    def returning_migrations(self) -> int:
        """Migrations that returned a VM to a host it previously left."""
        return sum(s.returning for s in self.epoch_stats)

    @property
    def oscillation_index(self) -> float:
        """Fraction of migrations that were returns (§VI-B ping-pong)."""
        total = self.total_migrations
        return self.returning_migrations / total if total else 0.0

    @property
    def migrations_per_epoch(self) -> List[int]:
        """Per-epoch migration counts, epoch order."""
        return [s.migrations for s in self.epoch_stats]

    @property
    def events_applied(self) -> int:
        """Timestamped events the continuous-time queue applied in total."""
        return sum(s.events for s in self.epoch_stats)

    @property
    def settled(self) -> bool:
        """Whether the final epoch needed no migrations at all."""
        return bool(self.epoch_stats) and self.epoch_stats[-1].migrations == 0

    @property
    def total_transition_s(self) -> float:
        """Aggregate epoch-transition wall clock (delta path)."""
        return sum(s.transition_s for s in self.epoch_stats)

    @property
    def total_schedule_s(self) -> float:
        """Aggregate token-loop wall clock."""
        return sum(s.schedule_s for s in self.epoch_stats)


def count_returning_migrations(moves, former_hosts: Dict[int, Set[int]]) -> int:
    """Count migrations that return a VM to a host it previously left.

    The paper argues S-CORE does not oscillate because rates are averaged
    over a long window and DC hotspots move slowly (§VI-B); a return to
    a host the VM left is exactly the ping-pong a stable algorithm must
    avoid.  ``moves`` is the migrated holds of a report as ``(vm_id,
    source_host, target_host)`` triples in hold order —
    ``report.decisions.columns().moves()``.  ``former_hosts`` (VM → hosts
    it has departed) carries across calls, so feeding one round's moves
    at a time yields returning counts against the full history.
    Histories are strictly per-VM: the wave-batched scheduler applies a
    round's migrations as simultaneous ``Allocation.migrate_many``
    batches, so another VM vacating a host in the same batch must never
    make a landing there count as a "return" — only the VM's *own*
    earlier departures do.  A VM moves at most once per round, so its
    moves are chronological regardless of how waves interleaved.
    """
    returning = 0
    for vm_id, source_host, target_host in moves:
        history = former_hosts.setdefault(vm_id, set())
        if target_host in history:
            returning += 1
        history.add(source_host)
    return returning


def _scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    return Scenario(
        name=data["name"],
        description=data["description"],
        config=ExperimentConfig(**data["config"]),
        epochs=data["epochs"],
        iterations_per_epoch=data["iterations_per_epoch"],
        drift=DriftSpec(**data["drift"]),
        churn=ChurnSpec(**data["churn"]),
        events=tuple(EventSpec.from_dict(spec) for spec in data["events"]),
    )


class DurableScenarioRun(DurableCore):
    """The scenario loop — transition, rounds, epoch commit — durable or not.

    Build with :meth:`create` (a fresh run; a fresh directory when one is
    given) or :meth:`resume` (recover from an existing directory), then
    :meth:`run` to completion.  ``checkpoint_every`` counts *rounds*
    between snapshot generations; the bootstrap snapshot (generation 1)
    is written at creation so the degradation ladder always has a floor.
    """

    SPEC_KEY = "scenario"
    COMMIT_KINDS = ("transition", "round", "epoch")

    def __init__(
        self,
        directory: Optional[str],
        journal,
        scenario: Scenario,
        n_epochs: int,
        iterations: int,
        checkpoint_every: int,
        validate: bool,
        io: StorageIO,
        fault: Optional[FaultPlan],
        keep_generations: int,
        compact_journal: bool = False,
    ) -> None:
        super().__init__(
            directory, journal, io, fault, keep_generations, compact_journal
        )
        self._scenario = scenario
        self._n_epochs = int(n_epochs)
        self._iterations = int(iterations)
        self._checkpoint_every = int(checkpoint_every)
        self._validate = bool(validate)
        # Runtime state: _boot_fresh or _install_state fills these in.
        self._drift = None
        self._churn = None
        self._result: Optional[ScenarioResult] = None
        self._former_hosts: Dict[int, Set[int]] = {}
        self._epoch = 0
        self._rounds_done = 0
        self._transition_done = False
        self._round_counter = 0
        self._acc = self._fresh_acc()

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        scenario: Union[Scenario, str],
        directory: Optional[str] = None,
        *,
        scale: Optional[str] = None,
        epochs: Optional[int] = None,
        iterations_per_epoch: Optional[int] = None,
        seed: Optional[int] = None,
        checkpoint_every: int = 1,
        validate: bool = False,
        io: Optional[StorageIO] = None,
        fault: Optional[FaultPlan] = None,
        keep_generations: int = 4,
        compact_journal: bool = False,
    ) -> "DurableScenarioRun":
        """Start a fresh run, durable in ``directory`` when one is given.

        The scenario is resolved here, once: name lookup, then the
        ``scale``/``seed``/``epochs``/``iterations_per_epoch``
        overrides.  A durable run journals the resolved spec as the
        ``begin`` record, making the directory self-contained for cold
        rebuilds.

        ``compact_journal`` truncates committed journal records older
        than every surviving snapshot generation after each checkpoint,
        bounding long-running disk use — at the cost of the ladder's
        cold-rebuild rung for the dropped span (recovery then floors at
        the oldest kept generation; the default keeps the full journal).
        """
        if isinstance(scenario, str):
            scenario = scenario_by_name(scenario)
        scenario = scenario.scaled(scale)
        if seed is not None:
            scenario = scenario.with_(config=scenario.config.with_(seed=seed))
        n_epochs = epochs if epochs is not None else scenario.epochs
        if n_epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {n_epochs}")
        iterations = (
            iterations_per_epoch
            if iterations_per_epoch is not None
            else scenario.iterations_per_epoch
        )
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        io = io or StorageIO()
        journal = None if directory is None else cls._open_fresh(directory, io)
        run = cls(
            directory,
            journal,
            scenario,
            n_epochs,
            iterations,
            checkpoint_every,
            validate,
            io,
            fault,
            keep_generations,
            compact_journal,
        )
        try:
            if journal is not None:
                journal.append(
                    "begin",
                    {
                        "format": JOURNAL_FORMAT,
                        "scenario": asdict(scenario),
                        "epochs": int(n_epochs),
                        "iterations": int(iterations),
                        "checkpoint_every": int(checkpoint_every),
                        "validate": bool(validate),
                    },
                )
            run._boot_fresh()
            run._write_checkpoint()  # generation 1: the ladder's floor
        except BaseException:
            run.close()
            raise
        return run

    @classmethod
    def resume(
        cls,
        directory: str,
        *,
        validate: Optional[bool] = None,
        io: Optional[StorageIO] = None,
        fault: Optional[FaultPlan] = None,
        keep_generations: int = 4,
        compact_journal: bool = False,
    ) -> "DurableScenarioRun":
        """Recover a run from ``directory``'s snapshots + journal.

        Applies the degradation ladder, then re-executes and verifies
        the journal's committed suffix; the returned run continues from
        exactly where the committed history ends.  ``validate``
        overrides the recorded flag (None keeps it).
        """
        io = io or StorageIO()
        journal, begin = cls._open_existing(directory, io)
        spec = begin.data
        run = cls(
            directory,
            journal,
            _scenario_from_dict(spec["scenario"]),
            spec["epochs"],
            spec["iterations"],
            spec["checkpoint_every"],
            spec["validate"] if validate is None else validate,
            io,
            fault,
            keep_generations,
            compact_journal,
        )
        try:
            run._recover()
        except BaseException:
            run.close()
            raise
        return run

    # -- runtime state -------------------------------------------------

    def _boot_fresh(self) -> None:
        environment = build_environment(self._scenario.config)
        scheduler = make_scheduler(environment)
        self._drift = self._scenario.drift.build(
            environment.traffic, seed=self._scenario.config.seed
        )
        self._churn = self._scenario.churn.build()
        self._attach(environment, scheduler)
        self._result = ScenarioResult(
            scenario=self._scenario, environment=environment
        )
        for spec in self._scenario.events:
            self._runner.schedule_at_round(
                spec.at_round, spec.build(self._runner.round_seconds)
            )

    def _state_dict(self) -> Dict[str, Any]:
        return {
            **self._runtime_state(),
            "drift": self._drift,
            "churn": self._churn,
            "former_hosts": self._former_hosts,
            "epoch_stats": list(self._result.epoch_stats),
            "initial_cost": self._result.initial_cost,
            "final_cost": self._result.final_cost,
            "position": {
                "epoch": self._epoch,
                "rounds_done": self._rounds_done,
                "transition_done": self._transition_done,
                "next_holder": self._next_holder,
            },
            "round_counter": self._round_counter,
            "acc": dict(self._acc),
        }

    def _install_state(self, state: Dict[str, Any]) -> None:
        self._install_runtime(state)
        self._drift = state["drift"]
        self._churn = state["churn"]
        self._former_hosts = state["former_hosts"]
        self._result = ScenarioResult(
            scenario=self._scenario,
            environment=self._environment,
            epoch_stats=list(state["epoch_stats"]),
            initial_cost=state["initial_cost"],
            final_cost=state["final_cost"],
        )
        position = state["position"]
        self._epoch = position["epoch"]
        self._rounds_done = position["rounds_done"]
        self._transition_done = position["transition_done"]
        self._next_holder = position["next_holder"]
        self._round_counter = state["round_counter"]
        self._acc = state["acc"]

    # -- the schedule --------------------------------------------------

    @staticmethod
    def _fresh_acc() -> Dict[str, Any]:
        return {
            "migrations": 0,
            "returning": 0,
            "arrivals": 0,
            "departures": 0,
            "drained": 0,
            "events": 0,
            "cost_before": None,
            "cost_after": None,
            "transition_s": 0.0,
            "schedule_s": 0.0,
        }

    def _do_transition(self, expected: Optional[Dict[str, Any]] = None):
        scheduler = self._scheduler
        t0 = time.perf_counter()
        arrivals, departures, drained = self._churn.apply(
            self._epoch, self._runner
        )
        if self._epoch > 0 and self._drift is not None:
            delta = self._drift.step_delta()
            if delta:
                scheduler.apply_traffic_delta(delta)
        self._acc["transition_s"] += time.perf_counter() - t0
        self._acc["arrivals"] = arrivals
        self._acc["departures"] = departures
        self._acc["drained"] = drained
        data = {
            "epoch": self._epoch,
            "arrivals": int(arrivals),
            "departures": int(departures),
            "drained": int(drained),
            "n_vms": int(self._environment.allocation.n_vms),
        }
        if expected is not None:
            self._verify("transition", expected, data)
        self._append("transition", data)
        self._transition_done = True

    def _do_round(self, expected: Optional[Dict[str, Any]] = None):
        t0 = time.perf_counter()
        report = self._runner.run(
            n_iterations=1, first_holder=self._next_holder
        )
        self._acc["schedule_s"] += time.perf_counter() - t0
        self._acc["events"] += len(self._runner.log)
        self._runner.log.clear()
        if self._acc["cost_before"] is None:
            self._acc["cost_before"] = float(report.initial_cost)
        self._acc["cost_after"] = float(report.final_cost)
        self._acc["migrations"] += report.total_migrations
        columns = self._commit_round(
            report, expected, epoch=self._epoch, round=self._rounds_done
        )
        self._acc["returning"] += count_returning_migrations(
            columns.moves(), self._former_hosts
        )
        self._rounds_done += 1
        self._round_counter += 1
        self._result.round_reports.append(report)
        if self._validate:
            check_engine_invariants(
                self._scheduler,
                context=f"epoch {self._epoch} round {self._rounds_done}",
            )
        if self._round_counter % self._checkpoint_every == 0:
            self._write_checkpoint()

    def _finish_epoch(self, expected: Optional[Dict[str, Any]] = None):
        acc = self._acc
        cost_after = (
            acc["cost_after"]
            if acc["cost_after"] is not None
            else self._result.final_cost
        )
        stats = EpochStats(
            epoch=self._epoch,
            n_vms=self._environment.allocation.n_vms,
            migrations=acc["migrations"],
            returning=acc["returning"],
            arrivals=acc["arrivals"],
            departures=acc["departures"],
            drained=acc["drained"],
            cost_before=(
                acc["cost_before"]
                if acc["cost_before"] is not None
                else cost_after
            ),
            cost_after=cost_after,
            transition_s=acc["transition_s"],
            schedule_s=acc["schedule_s"],
            events=acc["events"],
            recovered_from=self._recovered_from,
        )
        if self._epoch == 0:
            self._result.initial_cost = stats.cost_before
        self._result.final_cost = cost_after
        self._result.epoch_stats.append(stats)
        data = {
            "epoch": self._epoch,
            "cost_after": float(cost_after),
            "migrations": int(acc["migrations"]),
            "n_vms": int(stats.n_vms),
        }
        if expected is not None:
            self._verify("epoch", expected, data)
        self._append("epoch", data)
        self._epoch += 1
        self._rounds_done = 0
        self._transition_done = False
        self._next_holder = None
        self._acc = self._fresh_acc()

    def _redo(self, record: JournalRecord) -> None:
        step = {
            "transition": self._do_transition,
            "round": self._do_round,
            "epoch": self._finish_epoch,
        }[record.kind]
        step(expected=record.data)

    # -- public surface ------------------------------------------------

    def run(self, stop_requested=None) -> ScenarioResult:
        """Drive the remaining schedule to completion; returns the
        :class:`ScenarioResult` (epoch stats of already-committed epochs
        included, ``recovered_from`` stamped on every epoch a resumed
        run produced).

        ``stop_requested`` (a zero-argument callable, e.g. a signal
        flag from :class:`repro.service.GracefulShutdown`) is polled
        between rounds: when it turns true the in-flight round finishes,
        a durable run flushes a final checkpoint, and the partial result
        returns with ``interrupted=True`` — :meth:`resume` continues
        from there.
        """

        def stopping() -> bool:
            return stop_requested is not None and stop_requested()

        interrupted = False
        while self._epoch < self._n_epochs and not interrupted:
            if not self._transition_done:
                self._do_transition()
            while self._rounds_done < self._iterations:
                self._do_round()
                if stopping():
                    interrupted = True
                    break
            if not interrupted:
                self._finish_epoch()
                if self._epoch < self._n_epochs and stopping():
                    interrupted = True
        self._write_checkpoint()
        self._result.profile = self._scheduler.profile
        self._result.interrupted = interrupted
        return self._result


def run_scenario(
    scenario: Union[Scenario, str],
    scale: Optional[str] = None,
    epochs: Optional[int] = None,
    iterations_per_epoch: Optional[int] = None,
    seed: Optional[int] = None,
    profile: bool = False,
    validate: bool = False,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    recover_from: Optional[str] = None,
    stop_requested=None,
) -> ScenarioResult:
    """Run one scenario (by value or registered name) end to end.

    ``scale`` picks a named topology scale (``toy``/``small``/``paper``);
    ``epochs``, ``iterations_per_epoch`` and ``seed`` override the
    scenario's declared values.  The environment is built fresh and the
    control loop comes from :func:`repro.sim.experiment.make_scheduler`.
    With ``profile`` the scheduler accumulates per-phase wall clock
    (score / re-mask / plan / wave-apply) and round-cache hit rates into
    ``ScenarioResult.profile``.  ``validate`` runs the full
    engine-invariant harness
    (:func:`repro.util.validation.check_engine_invariants`) after every
    injected event and every round — the debug mode the stress suite and
    the scenario smoke tests use.

    ``checkpoint_dir`` makes the run durable: journaled, and snapshotted
    every ``checkpoint_every`` rounds, so a killed run can resume — the
    same trajectory either way.  ``recover_from`` resumes a previously
    checkpointed run from its directory instead of starting one (the
    scenario arguments come from the directory's journal and are
    ignored).  ``stop_requested`` (a zero-argument callable) requests a
    graceful drain: the in-flight round finishes, a durable run flushes
    a final checkpoint, and the result comes back with
    ``interrupted=True``.
    """
    if recover_from is not None:
        run = DurableScenarioRun.resume(recover_from, validate=validate or None)
    else:
        run = DurableScenarioRun.create(
            scenario,
            checkpoint_dir,
            scale=scale,
            epochs=epochs,
            iterations_per_epoch=iterations_per_epoch,
            seed=seed,
            checkpoint_every=checkpoint_every,
            validate=validate,
        )
    with run:
        if profile:
            run.scheduler.enable_profiling()
        return run.run(stop_requested=stop_requested)
