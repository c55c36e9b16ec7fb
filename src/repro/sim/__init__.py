"""Simulation harness: link loads, metrics, experiments, event queue.

:mod:`repro.sim.network`
    Routes every traffic-matrix pair over the topology (deterministic ECMP)
    and accounts per-link loads/utilizations — the data behind Fig. 4a.
:mod:`repro.sim.metrics`
    Convergence detection and series resampling.
:mod:`repro.sim.experiment`
    Declarative experiment configs and the runner used by every benchmark:
    build topology + cluster + VMs + traffic, run S-CORE (and optionally the
    GA reference), return the series the paper plots.
:mod:`repro.sim.eventqueue`
    Continuous-time event-queue runner: timestamped arrival/retirement/
    drift/failure events injected between waves of in-flight rounds.
"""

from repro.sim.network import LinkLoadCalculator
from repro.sim.metrics import (
    convergence_iteration,
    resample_series,
)
from repro.sim.experiment import (
    ExperimentConfig,
    ExperimentResult,
    build_environment,
    run_experiment,
)
from repro.sim.eventqueue import (
    AppliedEvent,
    Arrival,
    BandwidthCrunch,
    CapacityChange,
    Event,
    EventQueueRunner,
    Outage,
    Restore,
    Retirement,
    TrafficSurge,
)
from repro.sim.fairshare import (
    FairShareResult,
    FlowAllocation,
    MaxMinFairAllocator,
)
from repro.sim.energy import EnergyModel, energy_link_weights

__all__ = [
    "LinkLoadCalculator",
    "convergence_iteration",
    "resample_series",
    "ExperimentConfig",
    "ExperimentResult",
    "build_environment",
    "run_experiment",
    "EventQueueRunner",
    "AppliedEvent",
    "Event",
    "Arrival",
    "Retirement",
    "TrafficSurge",
    "CapacityChange",
    "Outage",
    "Restore",
    "BandwidthCrunch",
    "MaxMinFairAllocator",
    "FairShareResult",
    "FlowAllocation",
    "EnergyModel",
    "energy_link_weights",
]
