"""The scenario runner: multi-epoch S-CORE over drift + churn, delta-path.

One epoch is: apply the scenario's churn events (arrivals, departures,
maintenance drains), advance the drift process and feed its change list
through ``SCOREScheduler.apply_traffic_delta``, then run the token loop
for ``iterations_per_epoch`` rounds.  Every transition goes through the
engine's incremental state-delta APIs, so a multi-epoch run never pays a
full snapshot rebuild — the wall-clock split between ``transition_s`` and
``schedule_s`` in each :class:`EpochStats` shows epochs dominated by
scheduling, not by state maintenance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.scenarios.registry import scenario_by_name
from repro.scenarios.scenario import Scenario
from repro.core.scheduler import SchedulerReport
from repro.sim.dynamics import count_returning_migrations
from repro.sim.experiment import Environment, build_environment, make_scheduler
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
    #: (mid-round and boundary injections alike; 0 without an event queue).
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
    epoch_reports: List[SchedulerReport] = field(default_factory=list)
    initial_cost: float = 0.0
    final_cost: float = 0.0
    #: Per-phase wall clock + cache counters (None unless profiled).
    profile: Optional[object] = None
    #: True when a graceful-shutdown request (SIGINT/SIGTERM through a
    #: durable run's ``stop_requested`` hook) ended the run early — the
    #: final checkpoint was still flushed, so ``--recover-from`` resumes.
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
    scenario's declared values.  The environment is built fresh, the
    control loop comes from :func:`repro.sim.experiment.make_scheduler`,
    and every epoch transition runs through the scheduler's incremental
    delta APIs.  With ``profile`` the scheduler accumulates per-phase
    wall clock (score / re-mask / plan / wave-apply) and round-cache
    hit rates into ``ScenarioResult.profile``.

    Scenarios declaring :class:`~repro.scenarios.scenario.EventSpec`
    entries run each epoch through the continuous-time event-queue
    runner (:mod:`repro.sim.eventqueue`): events land mid-round at their
    simulated timestamps.  ``validate`` runs the full engine-invariant
    harness (:func:`repro.util.validation.check_engine_invariants`)
    after every injected event and at every epoch end — the debug mode
    the stress suite and the scenario smoke tests use.

    ``checkpoint_dir`` routes the run through the durable driver
    (:class:`repro.persist.durable.DurableScenarioRun`): the same
    trajectory, journaled and snapshotted every ``checkpoint_every``
    rounds so a killed run can resume.  ``recover_from`` resumes a
    previously checkpointed run from its directory instead of starting
    one (all other scenario arguments come from the directory's journal
    and are ignored).  ``stop_requested`` (a zero-argument callable —
    only honored on the durable paths) requests a graceful drain: the
    in-flight round finishes, a final checkpoint is flushed, and the
    result comes back with ``interrupted=True``.
    """
    if recover_from is not None:
        from repro.persist.durable import resume_durable_scenario

        return resume_durable_scenario(
            recover_from,
            validate=validate or None,
            stop_requested=stop_requested,
        )
    if checkpoint_dir is not None:
        from repro.persist.durable import run_durable_scenario

        return run_durable_scenario(
            scenario,
            checkpoint_dir,
            scale=scale,
            epochs=epochs,
            iterations_per_epoch=iterations_per_epoch,
            seed=seed,
            checkpoint_every=checkpoint_every,
            validate=validate,
            stop_requested=stop_requested,
        )
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

    environment = build_environment(scenario.config)
    scheduler = make_scheduler(environment)
    if profile:
        scheduler.enable_profiling()
    drift = scenario.drift.build(environment.traffic, seed=scenario.config.seed)
    churn = scenario.churn.build()
    events_runner = None
    if scenario.events:
        from repro.sim.eventqueue import EventQueueRunner

        events_runner = EventQueueRunner(
            scheduler, environment=environment, validate=validate
        )
        for spec in scenario.events:
            events_runner.schedule_at_round(
                spec.at_round, spec.build(events_runner.round_seconds)
            )
    result = ScenarioResult(scenario=scenario, environment=environment)
    former_hosts: Dict[int, Set[int]] = {}

    try:
        _run_epochs(
            environment, scheduler, drift, churn, events_runner,
            n_epochs, iterations, validate, result, former_hosts,
        )
    finally:
        scheduler.close()
    result.profile = scheduler.profile
    return result


def _run_epochs(
    environment, scheduler, drift, churn, events_runner,
    n_epochs, iterations, validate, result, former_hosts,
) -> None:
    for epoch in range(n_epochs):
        t0 = time.perf_counter()
        arrivals, departures, drained = churn.apply(
            epoch, environment, scheduler
        )
        if epoch > 0 and drift is not None:
            delta = drift.step_delta()
            if delta:
                scheduler.apply_traffic_delta(delta)
        transition_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        if events_runner is not None:
            applied_before = len(events_runner.log)
            report = events_runner.run(n_iterations=iterations)
            epoch_events = len(events_runner.log) - applied_before
        else:
            report = scheduler.run(n_iterations=iterations)
            epoch_events = 0
        schedule_s = time.perf_counter() - t1
        if validate:
            check_engine_invariants(scheduler)

        if epoch == 0:
            result.initial_cost = report.initial_cost
        result.final_cost = report.final_cost
        result.epoch_reports.append(report)
        result.epoch_stats.append(
            EpochStats(
                epoch=epoch,
                n_vms=environment.allocation.n_vms,
                migrations=report.total_migrations,
                returning=count_returning_migrations(
                    report.decisions.columns().moves(), former_hosts
                ),
                arrivals=arrivals,
                departures=departures,
                drained=drained,
                cost_before=report.initial_cost,
                cost_after=report.final_cost,
                transition_s=transition_s,
                schedule_s=schedule_s,
                events=epoch_events,
            )
        )
