"""Declarative scenario descriptions for live, churning data centres.

A :class:`Scenario` names everything a multi-epoch S-CORE study needs —
the static environment (:class:`~repro.sim.experiment.ExperimentConfig`:
topology family/scale, workload pattern, placement, policy, budgets), how
traffic *drifts* between measurement windows (:class:`DriftSpec`) and how
the tenant population *churns* (:class:`ChurnSpec`) — as one frozen value.
The scenario runner (:mod:`repro.scenarios.runner`), the CLI
(``python -m repro scenario <name>``), the examples and the benchmarks all
consume these instead of hand-assembling drift loops; the shipped
catalogue lives in :mod:`repro.scenarios.catalogue`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.eventqueue import Arrival
from repro.sim.experiment import ExperimentConfig
from repro.traffic.temporal import (
    DiurnalDriftProcess,
    HotspotDriftProcess,
    HotspotFlipDrift,
)

DRIFT_KINDS = ("none", "jitter", "diurnal", "hotspot_flip")
CHURN_KINDS = ("none", "flash_crowd", "rolling_drain")
EVENT_KINDS = (
    "arrival",
    "retirement",
    "traffic_surge",
    "capacity_change",
    "outage",
    "restore",
    "bandwidth_crunch",
)

#: Topology-dimension overrides per named scale; everything else (pattern,
#: policy, budgets, seed) comes from the scenario's own config.
SCALES = {
    "toy": dict(
        n_racks=8, hosts_per_rack=2, tors_per_agg=4, n_cores=2,
        vms_per_host=4, fattree_k=4,
    ),
    "small": dict(
        n_racks=32, hosts_per_rack=4, tors_per_agg=8, n_cores=4,
        vms_per_host=8, fattree_k=8,
    ),
    "paper": dict(
        n_racks=128, hosts_per_rack=20, tors_per_agg=8, n_cores=4,
        vms_per_host=16, fattree_k=16,
    ),
}


@dataclass(frozen=True)
class DriftSpec:
    """How λ(u, v) evolves between epochs (the §IV re-estimation windows).

    ``kind`` selects the process:

    ``none``
        Rates never change (the steady baseline).
    ``jitter``
        :class:`HotspotDriftProcess` — bounded multiplicative noise on
        every pair plus rare hotspot redirects (``noise``,
        ``redirect_prob``).
    ``diurnal``
        :class:`DiurnalDriftProcess` — two counter-phased pair groups on a
        sinusoid (``amplitude``, ``period_epochs``).
    ``hotspot_flip``
        :class:`HotspotFlipDrift` — the ``top_pairs`` heaviest pairs all
        re-target at ``flip_epoch``.
    """

    kind: str = "none"
    noise: float = 0.1
    redirect_prob: float = 0.05
    amplitude: float = 0.5
    period_epochs: int = 8
    flip_epoch: int = 2
    top_pairs: int = 8

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(
                f"unknown drift kind {self.kind!r}; known: {DRIFT_KINDS}"
            )

    def build(self, base_traffic, seed=None):
        """Instantiate the drift process over ``base_traffic`` (or None)."""
        if self.kind == "none":
            return None
        if self.kind == "jitter":
            return HotspotDriftProcess(
                base_traffic,
                noise=self.noise,
                redirect_prob=self.redirect_prob,
                seed=seed,
            )
        if self.kind == "diurnal":
            return DiurnalDriftProcess(
                base_traffic,
                amplitude=self.amplitude,
                period_epochs=self.period_epochs,
            )
        return HotspotFlipDrift(
            base_traffic,
            flip_epoch=self.flip_epoch,
            top_pairs=self.top_pairs,
            seed=seed,
        )


@dataclass(frozen=True)
class ChurnSpec:
    """How the VM population changes while S-CORE runs.

    ``kind`` selects the process:

    ``none``
        Fixed tenant population.
    ``flash_crowd``
        At ``start_epoch`` a burst of ``crowd_size`` VMs arrives with
        heavy traffic to the hottest existing VM (placed near its rack,
        spilling per :func:`~repro.cluster.placement.place_arrivals`);
        ``duration`` epochs later the crowd departs.
    ``rolling_drain``
        One rack per epoch is drained for maintenance
        (:meth:`SCOREScheduler.drain_hosts`), cycling through the racks.
    """

    kind: str = "none"
    start_epoch: int = 1
    duration: int = 2
    crowd_size: int = 12
    crowd_rate: float = 500.0

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; known: {CHURN_KINDS}"
            )

    def build(self) -> "ChurnProcess":
        """Instantiate the churn process (the ``none`` process is inert).

        The shipped processes are fully deterministic given the scenario
        config (the flash crowd targets the measured-hottest VM; the
        drain cycles racks), so no seed is threaded through.
        """
        if self.kind == "flash_crowd":
            return FlashCrowdChurn(self)
        if self.kind == "rolling_drain":
            return RollingDrainChurn(self)
        return ChurnProcess()


class ChurnProcess:
    """Base churn process: applies population changes through the
    scheduler's incremental churn APIs.  The base class is inert."""

    def apply(self, epoch: int, runner) -> Tuple[int, int, int]:
        """Apply this epoch's churn through ``runner`` (the run's
        :class:`~repro.sim.eventqueue.EventQueueRunner`); returns
        (arrivals, departures, drained)."""
        return (0, 0, 0)


class FlashCrowdChurn(ChurnProcess):
    """A tenant burst: arrive hot, talk hard, leave after a few epochs."""

    def __init__(self, spec: ChurnSpec) -> None:
        self._spec = spec
        self._crowd: List[int] = []

    def apply(self, epoch: int, runner) -> Tuple[int, int, int]:
        spec = self._spec
        if epoch == spec.start_epoch:
            # The crowd is one arrival: placed near the hottest existing
            # VM's rack and wired to it.
            arrival = Arrival(spec.crowd_size, rate=spec.crowd_rate)
            if not arrival.apply(runner, runner.scheduler.clock):
                return (0, 0, 0)
            self._crowd = list(arrival.admitted)
            return (len(self._crowd), 0, 0)
        if self._crowd and epoch == spec.start_epoch + spec.duration:
            departed = len(self._crowd)
            runner.scheduler.retire_vms(self._crowd)
            self._crowd = []
            return (0, departed, 0)
        return (0, 0, 0)


class RollingDrainChurn(ChurnProcess):
    """Rolling maintenance: evacuate one rack per epoch, cycling.

    The drained rack is taken *offline* (slot capacity zeroed through
    ``set_host_capacity``, so the optimizer cannot migrate anything
    back mid-maintenance) and restored at the next epoch when the crew
    moves on — the ``drain_hosts``/``restore_hosts`` capacity cycle.
    """

    def __init__(self, spec: ChurnSpec) -> None:
        self._spec = spec
        self._offline_rack: Optional[int] = None

    def apply(self, epoch: int, runner) -> Tuple[int, int, int]:
        if epoch < self._spec.start_epoch:
            return (0, 0, 0)
        scheduler = runner.scheduler
        topology = runner.environment.topology
        if self._offline_rack is not None:
            scheduler.restore_hosts(
                topology.hosts_in_rack(self._offline_rack)
            )
        rack = (epoch - self._spec.start_epoch) % topology.n_racks
        moves = scheduler.drain_hosts(
            topology.hosts_in_rack(rack), offline=True
        )
        self._offline_rack = rack
        return (0, 0, len(moves))


@dataclass(frozen=True)
class EventSpec:
    """One declarative timestamped event for the continuous-time runner.

    ``at_round`` is the fire time in *global round units* — fractions of
    one full token circulation of the scenario's initial population,
    counted from the run's start across every epoch (1.5 = halfway
    through the second round overall).  Fractional times land the event
    *between waves* of the in-flight round through the scheduler's
    event-pump seam; whole numbers land it at a round boundary.  ``kind``
    selects the event class of :mod:`repro.sim.eventqueue`; the
    remaining fields parameterize it (unused fields are ignored by the
    other kinds).  ``restore_after_rounds``/``stagger_rounds`` and
    ``lift_after_rounds`` are converted to seconds with the same round
    unit at schedule time.
    """

    kind: str
    at_round: float
    # arrival / retirement
    count: int = 4
    rate: float = 500.0
    pick: str = "newest"
    vm_ids: Tuple[int, ...] = ()
    # traffic_surge
    factor: float = 2.0
    top_pairs: int = 8
    # outage / restore / capacity_change
    racks: Tuple[int, ...] = ()
    pods: Tuple[int, ...] = ()
    hosts: Tuple[int, ...] = ()
    max_vms: Optional[int] = None
    restore_after_rounds: Optional[float] = None
    stagger_rounds: float = 0.0
    # bandwidth_crunch
    threshold: Optional[float] = None
    lift_after_rounds: Optional[float] = None
    lift_to: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; known: {EVENT_KINDS}"
            )
        if self.at_round < 0:
            raise ValueError(f"at_round must be >= 0, got {self.at_round}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EventSpec":
        """An event spec from its ``asdict`` form, as JSON carries it
        (tuple fields as lists)."""
        return cls(
            **{
                **data,
                **{
                    name: tuple(data.get(name, ()))
                    for name in ("vm_ids", "racks", "pods", "hosts")
                },
            }
        )

    def build(self, round_seconds: float):
        """Instantiate the runtime :class:`~repro.sim.eventqueue.Event`."""
        from repro.sim import eventqueue as eq

        if self.kind == "arrival":
            return eq.Arrival(self.count, rate=self.rate)
        if self.kind == "retirement":
            return eq.Retirement(
                self.count, pick=self.pick, vm_ids=self.vm_ids
            )
        if self.kind == "traffic_surge":
            return eq.TrafficSurge(self.factor, top_pairs=self.top_pairs)
        if self.kind == "capacity_change":
            return eq.CapacityChange(self.hosts, max_vms=self.max_vms)
        if self.kind == "outage":
            restore_after = (
                None
                if self.restore_after_rounds is None
                else self.restore_after_rounds * round_seconds
            )
            return eq.Outage(
                racks=self.racks,
                pods=self.pods,
                restore_after=restore_after,
                stagger_s=self.stagger_rounds * round_seconds,
            )
        if self.kind == "restore":
            return eq.Restore(self.hosts)
        lift_after = (
            None
            if self.lift_after_rounds is None
            else self.lift_after_rounds * round_seconds
        )
        return eq.BandwidthCrunch(
            self.threshold, lift_after=lift_after, lift_to=self.lift_to
        )


@dataclass(frozen=True)
class Scenario:
    """One named, declarative multi-epoch S-CORE study."""

    name: str
    description: str
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    epochs: int = 5
    iterations_per_epoch: int = 2
    drift: DriftSpec = field(default_factory=DriftSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    #: Timestamped failure/churn injections for the continuous-time
    #: event-queue runner; empty = the classic epoch-stepped run.
    events: Tuple[EventSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.iterations_per_epoch < 1:
            raise ValueError(
                f"iterations_per_epoch must be >= 1, "
                f"got {self.iterations_per_epoch}"
            )

    def scaled(self, scale: Optional[str]) -> "Scenario":
        """A copy at one of the named topology scales (None = as declared)."""
        if scale is None:
            return self
        try:
            dims = SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; known: {sorted(SCALES)}"
            ) from None
        return replace(self, config=self.config.with_(**dims))

    def with_(self, **changes) -> "Scenario":
        """A modified copy (convenience for sweeps and overrides)."""
        return replace(self, **changes)
