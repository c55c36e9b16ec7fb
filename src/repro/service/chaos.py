"""The chaos soak: a supervised daemon under fire vs. its unfaulted twin.

:func:`run_chaos_soak` drives two services through the *same* seeded
event stream — Poisson churn/traffic plus a scripted flash-crowd burst
sized to flood the admission queue — for a horizon of simulated hours.
The *twin* runs on clean IO.  The *victim* runs under
:func:`~repro.service.service.supervise` with a seeded schedule of
fault plans, one per incarnation, drawn from three classes:

* **hard kill** — ``SimulatedCrash`` from the between-waves pump at a
  monotonically increasing simulated second (monotone so a recovery
  replay, whose clock never exceeds the previous kill point, cannot
  re-trip the same kill forever);
* **snapshot sabotage** — the k-th snapshot write torn / corrupted /
  vanished, optionally with transient ``OSError`` on earlier writes
  (the retry-path rider);
* **journal kill** — the k-th append torn mid-record.  A resumed
  incarnation appends nothing but round commits, so the ordinal counts
  rounds; its floor of 2 lets the incarnation commit a round before it
  dies (guaranteed forward progress).

After the fault schedule is exhausted the last incarnation runs on
clean IO to completion.  Both services end the same way — stream
absorbed, queue drained, a final zero-migration round — and the
differential check then demands *bit-level* equivalence of everything
durable: communication cost within 1e-9, identical VM→host mapping,
identical simulated clock, identical round count, identical admission
counters.  Any divergence is listed by :meth:`ChaosSoakResult.differences`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.persist.durable import REPLAY_RELTOL
from repro.persist.faults import FaultPlan, FaultyIO
from repro.persist.snapshot import StorageIO
from repro.scenarios.scenario import SCALES, EventSpec
from repro.service.service import (
    SchedulerService,
    ServiceConfig,
    ServiceReport,
    SupervisedRun,
    supervise,
)
from repro.service.sources import (
    CompositeSource,
    PoissonSource,
    ScriptedSource,
)
from repro.sim.experiment import ExperimentConfig

FAULT_CLASSES = ("kill", "snapshot", "journal")


def flash_crowd_specs(at_round: float, soft_limit: int) -> List[EventSpec]:
    """A burst sized to flood a queue with the given soft watermark.

    Ordered so every admission outcome occurs: an early surge (the
    coalescing anchor), structural arrivals filling to the watermark,
    a pile of equivalent surges that must coalesce, three inequivalent
    surges (``top_pairs=16`` — nothing the Poisson mix emits — so no
    pending peer matches) that must shed, and trailing arrivals that
    must defer past the watermark.
    """
    specs: List[EventSpec] = []
    t = at_round

    def add(**kwargs) -> None:
        nonlocal t
        specs.append(EventSpec(at_round=t, **kwargs))
        t += 0.002

    add(kind="traffic_surge", factor=1.05, top_pairs=8)
    for _ in range(max(1, soft_limit - 2)):
        add(kind="arrival", count=1, rate=400.0)
    for _ in range(2 * soft_limit):
        add(kind="traffic_surge", factor=1.05, top_pairs=8)
    for _ in range(3):
        add(kind="traffic_surge", factor=1.1, top_pairs=16)
    for _ in range(2):
        add(kind="arrival", count=1, rate=300.0)
    return specs


@dataclass
class ChaosSoakResult:
    """Both halves of one soak, plus the differential verdict."""

    policy: str
    seed: int
    victim: SupervisedRun
    twin_report: ServiceReport
    victim_cost: float
    twin_cost: float
    victim_clock: float
    twin_clock: float
    victim_rounds: int
    twin_rounds: int
    victim_mapping: Dict[int, int]
    twin_mapping: Dict[int, int]
    victim_admissions: Dict[str, int]
    twin_admissions: Dict[str, int]

    @property
    def restarts(self) -> int:
        return self.victim.restarts

    @property
    def crash_points(self) -> Tuple[str, ...]:
        return self.victim.crash_points

    def differences(self) -> List[str]:
        """Every way the faulted run diverged from its twin (empty = none)."""
        found = []
        scale = max(1.0, abs(self.twin_cost))
        if abs(self.victim_cost - self.twin_cost) > REPLAY_RELTOL * scale:
            found.append(
                f"cost diverged: victim {self.victim_cost!r} "
                f"vs twin {self.twin_cost!r}"
            )
        if abs(self.victim_clock - self.twin_clock) > REPLAY_RELTOL * max(
            1.0, abs(self.twin_clock)
        ):
            found.append(
                f"clock diverged: victim {self.victim_clock!r} "
                f"vs twin {self.twin_clock!r}"
            )
        if self.victim_rounds != self.twin_rounds:
            found.append(
                f"round count diverged: victim {self.victim_rounds} "
                f"vs twin {self.twin_rounds}"
            )
        if self.victim_mapping != self.twin_mapping:
            moved = [
                vm
                for vm in set(self.victim_mapping) | set(self.twin_mapping)
                if self.victim_mapping.get(vm) != self.twin_mapping.get(vm)
            ]
            found.append(
                f"VM->host mapping diverged on {len(moved)} VM(s): "
                f"{sorted(moved)[:10]}"
            )
        if self.victim_admissions != self.twin_admissions:
            found.append(
                f"admission counters diverged: victim "
                f"{self.victim_admissions} vs twin {self.twin_admissions}"
            )
        return found


def _mapping(service: SchedulerService) -> Dict[int, int]:
    allocation = service.environment.allocation
    return allocation.as_dict()


def _fault_schedule(
    rng: random.Random,
    n_faults: int,
    horizon_s: float,
    classes: Sequence[str],
) -> List[FaultPlan]:
    """One plan per incarnation; every class appears when room allows.

    Kill times are drawn *sorted ascending* across the schedule, so a
    restart's replay (clock at most the previous kill point) can never
    re-trip a later kill.  A journal ordinal counts the incarnation's
    own appends — after recovery, one per round commit — and is at
    least 2, so a resumed incarnation commits a round before the torn
    append: forward progress is structural, not probabilistic.
    """
    kill_times = sorted(
        rng.uniform(0.08, 0.92) * horizon_s for _ in range(n_faults)
    )
    kinds = list(classes[: n_faults])
    while len(kinds) < n_faults:
        kinds.append(classes[rng.randrange(len(classes))])
    rng.shuffle(kinds)
    plans = []
    for i, kind in enumerate(kinds):
        transients = (0, 0, 2, 5)[rng.randrange(4)]
        if kind == "kill":
            plans.append(
                FaultPlan(
                    crash_at_s=kill_times[i], transient_errors=transients
                )
            )
        elif kind == "snapshot":
            mode = ("torn", "corrupt", "vanish")[rng.randrange(3)]
            plans.append(
                FaultPlan(
                    crash_on_snapshot=2 + rng.randrange(2),
                    snapshot_mode=mode,
                    transient_errors=transients,
                )
            )
        else:  # journal
            # Scaled from a randrange(6) draw: the ordinal's range then
            # never changes how much of the stream the later plans see.
            plans.append(
                FaultPlan(
                    crash_on_journal_append=2 + i // 2 + rng.randrange(6) // 3,
                    transient_errors=transients,
                )
            )
    return plans


def run_chaos_soak(
    base_dir: str,
    *,
    policy: str = "hlf",
    scale: str = "toy",
    seed: int = 7,
    horizon_rounds: float = 12.0,
    rate_per_round: float = 3.0,
    burst_at_round: Optional[float] = None,
    n_faults: int = 4,
    fault_classes: Sequence[str] = FAULT_CLASSES,
    queue_soft_limit: int = 6,
    checkpoint_every: int = 3,
    max_restarts: int = 24,
) -> ChaosSoakResult:
    """One full soak: twin on clean IO, victim under the fault schedule.

    ``base_dir`` gets two state directories (``twin/``, ``victim/``).
    The stream, the burst and the fault schedule are all pure functions
    of ``seed``, so a failing soak replays exactly.
    """
    unknown = set(fault_classes) - set(FAULT_CLASSES)
    if unknown:
        raise ValueError(f"unknown fault classes {sorted(unknown)}")
    experiment = ExperimentConfig(
        **SCALES[scale], policy=policy, seed=1000 + seed
    )
    config = ServiceConfig(
        checkpoint_every=checkpoint_every,
        queue_capacity=max(8 * queue_soft_limit, 16),
        queue_soft_limit=queue_soft_limit,
        compact_journal=True,
    )
    if burst_at_round is None:
        burst_at_round = horizon_rounds / 3.0

    def source_factory(round_seconds: float):
        return CompositeSource(
            [
                PoissonSource(
                    rate_per_round, round_seconds, horizon_rounds, seed=seed
                ),
                ScriptedSource.from_specs(
                    flash_crowd_specs(burst_at_round, queue_soft_limit),
                    round_seconds,
                ),
            ]
        )

    twin = SchedulerService.create(
        experiment, os.path.join(base_dir, "twin"), source_factory,
        config=config,
    )
    try:
        twin_report = twin.serve()
        twin_cost = twin_report.final_cost
        twin_clock = float(twin.scheduler.clock)
        twin_rounds = twin.rounds_done
        twin_mapping = _mapping(twin)
        twin_admissions = dict(twin_report.admissions)
        horizon_s = horizon_rounds * twin.round_seconds
    finally:
        twin.close()

    rng = random.Random(0x5EED ^ seed)
    plans = _fault_schedule(rng, n_faults, horizon_s, tuple(fault_classes))
    victim_dir = os.path.join(base_dir, "victim")

    def io_for(incarnation: int) -> StorageIO:
        if incarnation < len(plans):
            return FaultyIO(plans[incarnation])
        return StorageIO()

    def fault_for(incarnation: int) -> Optional[FaultPlan]:
        return plans[incarnation] if incarnation < len(plans) else None

    victim = supervise(
        victim_dir,
        lambda: SchedulerService.create(
            experiment,
            victim_dir,
            source_factory,
            config=config,
            io=io_for(0),
            fault=fault_for(0),
        ),
        max_restarts=max_restarts,
        io_for=io_for,
        fault_for=fault_for,
    )
    try:
        return ChaosSoakResult(
            policy=policy,
            seed=seed,
            victim=victim,
            twin_report=twin_report,
            victim_cost=victim.report.final_cost,
            twin_cost=twin_cost,
            victim_clock=float(victim.service.scheduler.clock),
            twin_clock=twin_clock,
            victim_rounds=victim.service.rounds_done,
            twin_rounds=twin_rounds,
            victim_mapping=_mapping(victim.service),
            twin_mapping=twin_mapping,
            victim_admissions=dict(victim.report.admissions),
            twin_admissions=twin_admissions,
        )
    finally:
        victim.service.close()
