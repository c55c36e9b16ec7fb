"""Continuous-time event-queue runner: S-CORE under fire, mid-round.

The paper's token protocol runs in a *live* datacenter — tenants arrive
and leave, traffic drifts, racks fail — while migration rounds are in
flight.  This module closes that gap: a heap of timestamped
:class:`Event` objects is pumped into the scheduler's wave loop through
the ``event_pump`` seam of :meth:`SCOREScheduler.run`, so events land
*between waves* of :class:`~repro.core.rounds.BatchedRoundEngine` at
their simulated due time — not merely between runs.

Timestamp semantics
-------------------
Simulated time advances ``token_interval_s`` per token hold (the paper's
Fig. 3 time axis); the scheduler's clock persists across runs, and a
retired VM's remaining holds still consume their ticks (settled with the
``retired`` reason), so a round's duration is fixed at its visit-order
snapshot.  Within a round, the pump runs after every applied wave at the
time of the wave's last settled hold — wave granularity is the finest
injection point the batched protocol admits (a wave is atomic by
construction).  :meth:`EventQueueRunner.schedule_at_round` converts
"round units" (fractions of one full token circulation of the *initial*
population) to seconds once, at runner construction.

Correctness contract
--------------------
Every event mutates state exclusively through the scheduler's
incremental churn/delta APIs (``admit_vms``/``retire_vms``/
``apply_traffic_delta``/``drain_hosts``/``set_host_capacity``/
``set_bandwidth_threshold``), which route through the fast engine's
footprint invalidation — so the persistent round-score cache stays
bit-exact and cached and uncached rounds remain twins under any
injection schedule (``tests/test_event_interleaving.py`` pins this).
``validate=True`` additionally runs
:func:`repro.util.validation.check_engine_invariants` after every
applied event — the opt-in per-event debug hook.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.allocation import CapacityError
from repro.cluster.placement import place_arrivals
from repro.core.scheduler import SchedulerReport, SCOREScheduler
from repro.traffic.matrix import check_rates
from repro.util.validation import check_engine_invariants, check_positive


class Event:
    """One timestamped mutation of the running system.

    Subclasses implement :meth:`apply`, mutating state only through the
    scheduler's incremental APIs, and return whether anything actually
    changed (``False`` — e.g. a full cluster rejecting arrivals — lets
    the pump skip the cost re-anchor).  ``apply`` may schedule follow-up
    events (staggered restores, budget lifts) via ``runner.schedule``.
    """

    #: Admission class (see :mod:`repro.service.admission`): rate-only
    #: events carry no structural churn — under overload they may be
    #: coalesced into a pending peer or shed outright.  Structural
    #: events (arrivals, retirements, outages, capacity changes — the
    #: default) are never dropped.
    RATE_ONLY = False

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        raise NotImplementedError

    def coalesce(self, other: "Event") -> Optional["Event"]:
        """Merge a *later* rate-only event into this one, or ``None``.

        Only consulted for ``RATE_ONLY`` events under admission-control
        overload; the merged event replaces ``self`` in the queue.
        """
        return None

    def describe(self) -> str:
        """One-line human description (CLI tables, logs)."""
        return type(self).__name__


@dataclass(frozen=True)
class AppliedEvent:
    """Log record of one pumped event."""

    time_s: float
    event: Event
    changed: bool


class Arrival(Event):
    """A tenant burst arrives and wires hot flows to the running system.

    ``count`` VMs are minted by the environment's placement manager (the
    scenario config's uniform RAM/CPU shape, preserving the engine's
    uniform-population fast path), placed near the hottest existing VM's
    rack (spilling per :func:`~repro.cluster.placement.place_arrivals`),
    admitted through the scheduler, and wired at ``rate`` to that VM
    plus a ``rate``/4 chain among themselves.  A full cluster clips the
    burst; no feasible placement at all is a no-op.
    """

    def __init__(self, count: int, rate: float = 500.0) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        check_rates(rate, "rate")
        check_positive("rate", rate)
        self.count = count
        self.rate = rate
        #: VM ids admitted by the last apply (for paired Retirements).
        self.admitted: Tuple[int, ...] = ()

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        environment = runner.environment
        if environment is None:
            raise RuntimeError(
                "Arrival events need a runner built with an environment "
                "(the placement manager mints the VMs)"
            )
        scheduler = runner.scheduler
        allocation = scheduler.allocation
        free = environment.cluster.total_vm_slots - allocation.n_vms
        size = min(self.count, max(0, free))
        if size == 0:
            return False
        snapshot = scheduler.traffic_snapshot()
        seed_vm = int(snapshot.ranked_vms(1, hottest=True)[0])
        rack = allocation.topology.rack_of(allocation.server_of(seed_vm))
        config = environment.config
        vms = environment.manager.create_vms(
            size, ram_mb=config.vm_ram_mb, cpu=config.vm_cpu
        )
        try:
            hosts = place_arrivals(allocation, vms, preferred_rack=rack)
        except CapacityError:
            return False
        scheduler.admit_vms(vms, hosts)
        delta = [(vm.vm_id, seed_vm, self.rate) for vm in vms]
        delta += [
            (vms[i].vm_id, vms[i + 1].vm_id, self.rate / 4.0)
            for i in range(len(vms) - 1)
        ]
        scheduler.apply_traffic_delta(delta)
        self.admitted = tuple(vm.vm_id for vm in vms)
        return True

    def describe(self) -> str:
        return f"arrival x{self.count} @ {self.rate:g}"


class Retirement(Event):
    """Tenant departures: ``count`` VMs leave (flows cease, token shrinks).

    ``vm_ids`` retires an explicit set; otherwise ``pick`` selects
    deterministically from the live population: ``hottest``/``coldest``
    by aggregate traffic load, ``newest``/``oldest`` by VM id.  The
    token always keeps at least one entry (the departure set is clipped),
    and ids that already left or repeat an earlier id are skipped — a
    Retirement scheduled against a VM another event removed degrades to
    a no-op, not a crash.
    """

    PICKS = ("hottest", "coldest", "newest", "oldest")

    def __init__(
        self,
        count: int = 1,
        pick: str = "newest",
        vm_ids: Sequence[int] = (),
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if pick not in self.PICKS:
            raise ValueError(f"unknown pick {pick!r}; known: {self.PICKS}")
        self.count = count
        self.pick = pick
        self.vm_ids = tuple(int(v) for v in vm_ids)

    def _select(self, scheduler: SCOREScheduler) -> List[int]:
        token = scheduler.token
        if self.vm_ids:
            chosen = [
                v for v in dict.fromkeys(self.vm_ids) if v in scheduler.allocation
            ]
        elif self.pick in ("hottest", "coldest"):
            chosen = (
                scheduler.traffic_snapshot()
                .ranked_vms(self.count, hottest=self.pick == "hottest")
                .tolist()
            )
        else:
            alive = token.ids  # ascending
            chosen = (
                alive[: -self.count - 1 : -1]
                if self.pick == "newest"
                else alive[: self.count]
            ).tolist()
        # The token refuses to lose its last entry; clip, don't crash.
        survivors = len(token) - len({v for v in chosen if v in token})
        while chosen and survivors < 1:
            survivors += 1
            chosen.pop()
        return chosen

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        chosen = self._select(runner.scheduler)
        if not chosen:
            return False
        runner.scheduler.retire_vms(chosen)
        return True

    def describe(self) -> str:
        if self.vm_ids:
            return f"retire {list(self.vm_ids)}"
        return f"retire x{self.count} ({self.pick})"


class TrafficSurge(Event):
    """Traffic drift burst: the ``top_pairs`` heaviest pairs scale by
    ``factor`` (a flash surge > 1, a cool-down < 1), through the
    scheduler's paired delta path.

    A surge is pure rate drift — no VM appears, leaves or moves — so it
    is the one event class admission control may shed under overload,
    and two surges over the same pair window compose multiplicatively
    (:meth:`coalesce`)."""

    RATE_ONLY = True

    def __init__(self, factor: float, top_pairs: int = 8) -> None:
        check_rates(factor, "factor")
        check_positive("factor", factor)
        if top_pairs < 1:
            raise ValueError(f"top_pairs must be >= 1, got {top_pairs}")
        self.factor = factor
        self.top_pairs = top_pairs

    def coalesce(self, other: Event) -> Optional["TrafficSurge"]:
        if (
            isinstance(other, TrafficSurge)
            and other.top_pairs == self.top_pairs
        ):
            return TrafficSurge(
                self.factor * other.factor, top_pairs=self.top_pairs
            )
        return None

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        us, vs, rates = runner.scheduler.traffic_snapshot().heaviest_pairs(
            self.top_pairs
        )
        if not len(us) or self.factor == 1.0:
            return False
        delta = list(
            zip(us.tolist(), vs.tolist(), (rates * self.factor).tolist())
        )
        return runner.scheduler.apply_traffic_delta(delta) > 0

    def describe(self) -> str:
        return f"surge top-{self.top_pairs} x{self.factor:g}"


class CapacityChange(Event):
    """Resize hosts in place (server upgrades / degraded slots).

    ``max_vms`` is clamped to each host's current occupancy — a shrink
    below usage models a *capacity budget* change, not an eviction, so
    usage never makes it raise; pair with :class:`Outage` for
    evacuations.  An out-of-range host raises ``ValueError`` before any
    host is resized.
    """

    def __init__(
        self,
        hosts: Sequence[int],
        max_vms: Optional[int] = None,
        nic_bps: Optional[float] = None,
    ) -> None:
        self.hosts = tuple(int(h) for h in hosts)
        if not self.hosts:
            raise ValueError("CapacityChange needs at least one host")
        self.max_vms = max_vms
        self.nic_bps = nic_bps

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        scheduler = runner.scheduler
        # Every host is range-checked before the first one is resized.
        for host in self.hosts:
            scheduler.allocation.cluster.capacity(host)
        in_use = scheduler.allocation.usage()[0]
        for host in self.hosts:
            max_vms = self.max_vms
            if max_vms is not None:
                max_vms = max(int(max_vms), int(in_use[host]))
            scheduler.set_host_capacity(
                host, max_vms=max_vms, nic_bps=self.nic_bps
            )
        return True

    def describe(self) -> str:
        return f"capacity {list(self.hosts)} -> max_vms={self.max_vms}"


class Outage(Event):
    """Correlated failure: whole racks and/or pods go dark.

    Every host of the named racks/pods is evacuated and taken offline
    (``drain_hosts(offline=True)`` — slot capacity zeroed so no round
    migrates anything back).  When the survivors cannot absorb the
    evacuees the drain stops at the stuck VM (the partial evacuation
    stands; the un-drained hosts stay up) — a failed failover, not a
    crash of the simulation.  ``restore_after`` schedules one
    :class:`Restore` per rack, staggered ``stagger_s`` apart in rack
    order — the rolling recovery of a real incident.
    """

    def __init__(
        self,
        racks: Sequence[int] = (),
        pods: Sequence[int] = (),
        restore_after: Optional[float] = None,
        stagger_s: float = 0.0,
    ) -> None:
        self.racks = tuple(int(r) for r in racks)
        self.pods = tuple(int(p) for p in pods)
        if not self.racks and not self.pods:
            raise ValueError("Outage needs at least one rack or pod")
        if restore_after is not None:
            check_positive("restore_after", restore_after)
        if stagger_s < 0:
            raise ValueError(f"stagger_s must be >= 0, got {stagger_s}")
        self.restore_after = restore_after
        self.stagger_s = stagger_s

    def _failed_racks(self, topology) -> List[int]:
        racks = set(self.racks)
        if self.pods:
            pods = set(self.pods)
            for host in topology.hosts:
                if topology.pod_of(host) in pods:
                    racks.add(topology.rack_of(host))
        return sorted(racks)

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        scheduler = runner.scheduler
        topology = scheduler.allocation.topology
        racks = self._failed_racks(topology)
        hosts = [h for rack in racks for h in topology.hosts_in_rack(rack)]
        try:
            scheduler.drain_hosts(hosts, offline=True)
        except CapacityError:
            # Survivors full: the drain stopped at the stuck VM, earlier
            # evacuations stand, nothing went offline.  Still a change.
            pass
        if self.restore_after is not None:
            for i, rack in enumerate(racks):
                runner.schedule(
                    now + self.restore_after + i * self.stagger_s,
                    Restore(topology.hosts_in_rack(rack)),
                )
        return True

    def describe(self) -> str:
        parts = []
        if self.racks:
            parts.append(f"racks {list(self.racks)}")
        if self.pods:
            parts.append(f"pods {list(self.pods)}")
        return "outage " + ", ".join(parts)


class Restore(Event):
    """Recovery: hosts taken offline by an :class:`Outage` (or a manual
    offline drain) get their saved capacity back and become migration
    targets again at the next feasibility probe."""

    def __init__(self, hosts: Sequence[int]) -> None:
        self.hosts = tuple(int(h) for h in hosts)
        if not self.hosts:
            raise ValueError("Restore needs at least one host")

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        runner.scheduler.restore_hosts(self.hosts)
        return True

    def describe(self) -> str:
        return f"restore hosts {self.hosts[0]}..{self.hosts[-1]}"


class BandwidthCrunch(Event):
    """§V-C budget squeeze: migration-bandwidth contention caps the
    fraction of a target NIC that post-migration egress may use.
    ``lift_after`` schedules the squeeze's end (budget back to
    ``lift_to``, default unlimited)."""

    def __init__(
        self,
        threshold: Optional[float],
        lift_after: Optional[float] = None,
        lift_to: Optional[float] = None,
    ) -> None:
        if threshold is not None and not 0 < threshold <= 1:
            raise ValueError(
                f"bandwidth_threshold must be in (0, 1], got {threshold}"
            )
        if lift_after is not None:
            check_positive("lift_after", lift_after)
        self.threshold = threshold
        self.lift_after = lift_after
        self.lift_to = lift_to

    def apply(self, runner: "EventQueueRunner", now: float) -> bool:
        runner.scheduler.set_bandwidth_threshold(self.threshold)
        if self.lift_after is not None:
            runner.schedule(
                now + self.lift_after, BandwidthCrunch(self.lift_to)
            )
        return True

    def describe(self) -> str:
        if self.threshold is None:
            return "bandwidth budget lifted"
        return f"bandwidth crunch @ {self.threshold:g}"


class EventQueueRunner:
    """Drives one :class:`SCOREScheduler` from a heap of timestamped events.

    Construction captures the *round length in seconds* — the initial
    population times ``token_interval_s`` — as the unit
    :meth:`schedule_at_round` converts with; the scheduler's persistent
    clock supplies "now".  :meth:`run` is the production path: events
    land mid-round through the wave-loop pump.  (The round-boundary
    twin the fuzz suite pins it beside is
    :func:`repro.reference.run_at_boundaries`.)  Every applied event is
    appended to :attr:`log`; a caller that runs many rounds reads and
    clears it per round.

    ``validate=True`` runs :func:`check_engine_invariants` after every
    applied event (failures name the event that triggered them).
    ``fault`` wires a :class:`~repro.persist.faults.FaultPlan`'s
    between-waves kill point into the pump (its ``check_pump`` runs
    before any due event).
    """

    def __init__(
        self,
        scheduler: SCOREScheduler,
        environment=None,
        validate: bool = False,
        fault=None,
    ) -> None:
        self.scheduler = scheduler
        self.environment = environment
        self.validate = validate
        self.fault = fault
        self.round_seconds = len(scheduler.token) * scheduler.token_interval_s
        self.log: List[AppliedEvent] = []
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0

    @property
    def pending(self) -> int:
        """Events still waiting in the queue."""
        return len(self._heap)

    def schedule(self, time_s: float, event: Event) -> None:
        """Enqueue ``event`` at absolute simulated second ``time_s``.

        Times in the past fire at the very next pump; the sequence
        number breaks same-instant ties in scheduling order.
        """
        heapq.heappush(self._heap, (float(time_s), self._seq, event))
        self._seq += 1

    def schedule_at_round(self, at_round: float, event: Event) -> None:
        """Enqueue at ``at_round`` global round units (0 = first round's
        start, 1.5 = halfway through the second round, measured against
        the population at runner construction)."""
        self.schedule(at_round * self.round_seconds, event)

    def pump(self, now: float) -> bool:
        """Apply every event due at or before ``now``; True if any changed.

        This is the callable handed to ``scheduler.run(event_pump=...)``
        — the wave loop invokes it between waves with the simulated time
        of the last settled hold.  Events an application schedules are
        themselves due-checked in the same pump (an outage's restore can
        never fire in the same pump: its time is strictly later).
        """
        if self.fault is not None:
            self.fault.check_pump(now)
        changed = False
        while self._heap and self._heap[0][0] <= now + 1e-12:
            time_s, _, event = heapq.heappop(self._heap)
            did = event.apply(self, now)
            changed = changed or did
            record = AppliedEvent(time_s=time_s, event=event, changed=did)
            self.log.append(record)
            if self.validate:
                check_engine_invariants(
                    self.scheduler,
                    context=f"{event.describe()} @ t={time_s:.3f}s",
                )
        return changed

    def run(self, n_iterations: int = 5, **kwargs) -> SchedulerReport:
        """Run the scheduler with mid-round event injection (the real
        continuous-time semantics).  Events already due at the current
        clock are applied before the round order is snapshot."""
        self.pump(self.scheduler.clock)
        return self.scheduler.run(
            n_iterations=n_iterations, event_pump=self.pump, **kwargs
        )
