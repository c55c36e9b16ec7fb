"""Scheduler-as-a-service: the supervised S-CORE daemon.

The long-running counterpart of the batch scenario runner: a
:class:`SchedulerService` holds warm scheduler state, consumes a stream
of churn/traffic events through bounded admission control, emits
migration plans round by round, and survives crashes, torn writes,
invariant violations and overload through the persistence layer of
:mod:`repro.persist` plus its own safe-mode / degraded-mode ladder.
``python -m repro serve`` is the CLI front end;
:mod:`repro.service.chaos` is the differential soak harness that pins
the whole stack against an unfaulted twin.
"""

from repro.service.admission import (
    Accepted,
    AdmissionOutcome,
    Coalesced,
    Deferred,
    IngestionQueue,
    Rejected,
)
from repro.service.chaos import (
    ChaosSoakResult,
    FAULT_CLASSES,
    flash_crowd_specs,
    run_chaos_soak,
)
from repro.service.service import (
    DEGRADED,
    DRAINING,
    FAILED,
    RECOVERING,
    RUNNING,
    SAFE_MODE,
    STOPPED,
    DegradedPersistence,
    DegradedWindow,
    GracefulShutdown,
    MigrationPlan,
    SafeModeWindow,
    SchedulerService,
    ServiceConfig,
    ServiceFailed,
    ServiceReport,
    SupervisedRun,
    supervise,
)
from repro.service.sources import (
    CompositeSource,
    EventSource,
    JsonLinesSource,
    PoissonSource,
    ScriptedSource,
    source_from_spec,
)

__all__ = [
    "Accepted",
    "AdmissionOutcome",
    "ChaosSoakResult",
    "Coalesced",
    "CompositeSource",
    "DEGRADED",
    "DRAINING",
    "DegradedPersistence",
    "DegradedWindow",
    "EventSource",
    "FAILED",
    "FAULT_CLASSES",
    "GracefulShutdown",
    "IngestionQueue",
    "JsonLinesSource",
    "MigrationPlan",
    "PoissonSource",
    "RECOVERING",
    "RUNNING",
    "Rejected",
    "SAFE_MODE",
    "STOPPED",
    "SafeModeWindow",
    "SchedulerService",
    "ScriptedSource",
    "ServiceConfig",
    "ServiceFailed",
    "ServiceReport",
    "SupervisedRun",
    "supervise",
    "run_chaos_soak",
    "flash_crowd_specs",
    "source_from_spec",
    "Deferred",
]
