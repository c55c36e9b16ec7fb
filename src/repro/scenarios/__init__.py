"""Declarative scenarios: live, churning data centres as named values.

The growth layer over :mod:`repro.sim`: a :class:`Scenario` couples a
static :class:`~repro.sim.experiment.ExperimentConfig` with a traffic
:class:`DriftSpec`, a population :class:`ChurnSpec` and timestamped
:class:`EventSpec` injections for the continuous-time event queue;
:func:`run_scenario` executes it epoch by epoch through the fast engine's
incremental state-delta APIs (no per-epoch snapshot rebuilds), one
round at a time through :mod:`repro.sim.eventqueue` so failures land
*mid-round*; :class:`DurableScenarioRun` is that one loop, journaled
and checkpointed when given a directory.  A shipped catalogue (steady,
diurnal-drift, hotspot-flip, flash-crowd, rolling-maintenance,
rack-outage, pod-outage, flash-crowd-mid-round, bandwidth-crunch)
registers on import; ``register_scenario`` grows it.

See ``docs/scenarios.md`` for the catalogue and how to add a scenario.
"""

from repro.scenarios.scenario import (
    ChurnSpec,
    DriftSpec,
    EventSpec,
    Scenario,
)
from repro.scenarios.registry import (
    iter_scenarios,
    register_scenario,
    scenario_by_name,
    scenario_names,
)
from repro.scenarios.runner import (
    DurableScenarioRun,
    EpochStats,
    ScenarioResult,
    count_returning_migrations,
    run_scenario,
)

# Importing the catalogue registers the shipped scenarios.
from repro.scenarios import catalogue  # noqa: F401  (registration side effect)

__all__ = [
    "Scenario",
    "DriftSpec",
    "ChurnSpec",
    "EventSpec",
    "EpochStats",
    "ScenarioResult",
    "run_scenario",
    "DurableScenarioRun",
    "count_returning_migrations",
    "register_scenario",
    "scenario_by_name",
    "scenario_names",
    "iter_scenarios",
]
