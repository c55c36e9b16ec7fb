"""S-CORE under drifting traffic: the stability/oscillation study (§VI-B).

The paper argues S-CORE does not oscillate because (a) rates are averaged
over a long window and (b) DC hotspots move slowly.  ``run_dynamic``
re-estimates the traffic matrix every epoch (via a
:class:`repro.traffic.temporal.HotspotDriftProcess`), lets S-CORE react,
and reports per-epoch migration counts plus an *oscillation index*: the
fraction of migrations that return a VM to a host it previously left —
exactly the ping-pong behaviour a stable algorithm must avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.migration import MigrationEngine
from repro.core.policies import TokenPolicy
from repro.core.scheduler import SCOREScheduler, SchedulerReport
from repro.sim.experiment import Environment
from repro.traffic.temporal import HotspotDriftProcess
from repro.util.validation import check_positive


@dataclass
class DynamicRunResult:
    """Outcome of a multi-epoch run over drifting traffic."""

    epoch_reports: List[SchedulerReport] = field(default_factory=list)
    migrations_per_epoch: List[int] = field(default_factory=list)
    returning_per_epoch: List[int] = field(default_factory=list)
    returning_migrations: int = 0
    total_migrations: int = 0

    @property
    def oscillation_index(self) -> float:
        """Fraction of migrations returning a VM to a previously-left host."""
        if self.total_migrations == 0:
            return 0.0
        return self.returning_migrations / self.total_migrations

    @property
    def settled(self) -> bool:
        """Whether the final epoch needed no migrations at all."""
        return bool(self.migrations_per_epoch) and self.migrations_per_epoch[-1] == 0


def count_returning_migrations(moves, former_hosts: Dict[int, Set[int]]) -> int:
    """Count migrations that return a VM to a host it previously left.

    ``moves`` is the migrated holds of a report as ``(vm_id,
    source_host, target_host)`` triples in hold order —
    ``report.decisions.columns().moves()``, which never materialises the
    non-migrating holds.  ``former_hosts`` (VM → hosts it has departed)
    carries across calls, so feeding one epoch's moves at a time yields
    per-epoch returning counts against the full history.  Histories are
    strictly per-VM: the wave-batched scheduler applies a round's
    migrations as simultaneous ``Allocation.migrate_many`` batches, so
    another VM vacating a host in the same batch must never make a
    landing there count as a "return" — only the VM's *own* earlier
    departures do.  A VM moves at most once per round and the report
    lists rounds in order, so its moves are chronological regardless of
    how waves interleaved within a round.
    """
    returning = 0
    for vm_id, source_host, target_host in moves:
        history = former_hosts.setdefault(vm_id, set())
        if target_host in history:
            returning += 1
        history.add(source_host)
    return returning


def run_dynamic(
    environment: Environment,
    policy: TokenPolicy,
    engine: MigrationEngine,
    epochs: int = 5,
    iterations_per_epoch: int = 2,
    noise: float = 0.1,
    redirect_prob: float = 0.05,
    seed: int = 0,
) -> DynamicRunResult:
    """Run S-CORE across ``epochs`` traffic re-estimation windows.

    Epoch 0 uses the environment's base matrix; each later epoch advances
    a hotspot-drift process and feeds its change list through the
    scheduler's incremental delta path
    (:meth:`~repro.core.scheduler.SCOREScheduler.apply_traffic_delta`) —
    modelling the sliding-window re-estimation of §IV without ever
    rebuilding the engine state — then re-runs the token loop.  The
    environment's traffic matrix is advanced in place.

    For richer dynamics (diurnal swings, tenant churn, maintenance
    drains) use the declarative scenario layer:
    ``repro.scenarios.run_scenario``.
    """
    check_positive("epochs", epochs)
    check_positive("iterations_per_epoch", iterations_per_epoch)
    scheduler = SCOREScheduler(
        environment.allocation, environment.traffic, policy, engine
    )
    drift = HotspotDriftProcess(
        environment.traffic, noise=noise, redirect_prob=redirect_prob, seed=seed
    )
    result = DynamicRunResult()
    # Hosts each VM has ever left; revisiting one counts as oscillation.
    former_hosts: Dict[int, Set[int]] = {}
    for epoch in range(epochs):
        if epoch > 0:
            delta = drift.step_delta()
            if delta:
                scheduler.apply_traffic_delta(delta)
        report = scheduler.run(n_iterations=iterations_per_epoch)
        returning = count_returning_migrations(
            report.decisions.columns().moves(), former_hosts
        )
        result.total_migrations += report.total_migrations
        result.returning_migrations += returning
        result.epoch_reports.append(report)
        result.migrations_per_epoch.append(report.total_migrations)
        result.returning_per_epoch.append(returning)
    return result
