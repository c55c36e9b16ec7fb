"""The distributed S-CORE control loop (paper §IV–§V).

The scheduler circulates the token: at each *hold*, the holding VM (its
dom0, in the Xen deployment) makes the unilateral Theorem 1 decision via
:class:`repro.core.migration.MigrationEngine`, the policy updates token
state, and the token moves on.  One *iteration* is ``|V|`` consecutive
holds — the unit in which the paper reports the ratio of migrated VMs
(Fig. 2).  Wall-clock time advances ``token_interval_s`` per hold, giving
the time axis of the cost-ratio plots (Fig. 3d–i).

The network-wide cost is tracked incrementally: by Lemma 3 each performed
migration changes the global cost by exactly the locally computed delta, so
the series costs O(1) per hold (an exactness property the test suite
verifies against full recomputation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocation import Allocation, CapacityError
from repro.cluster.placement import locality_probe_order
from repro.core.cost import CostModel
from repro.core.fastcost import FastCostEngine, TrafficSnapshot
from repro.core.migration import MigrationDecision, MigrationEngine
from repro.core.policies import TokenPolicy
from repro.core.rounds import BatchedRoundEngine, DecisionColumns
from repro.core.token import Token
from repro.topology.tree import CanonicalTree
from repro.traffic.matrix import TrafficMatrix
from repro.util.validation import check_positive


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration summary (one token round over all VMs)."""

    index: int
    visits: int
    migrations: int
    cost_at_end: float
    #: Waves the batched round took (0 on the per-hold reference loop).
    waves: int = 0

    @property
    def migrated_ratio(self) -> float:
        """Fraction of token holds that resulted in a migration (Fig. 2)."""
        return self.migrations / self.visits if self.visits else 0.0


class DecisionLog:
    """Sequence of per-hold decisions, lazily materialized per block.

    The batched round engine records decisions as column arrays
    (:class:`repro.core.rounds.DecisionColumns`); the log keeps those
    blocks as-is and only builds
    :class:`~repro.core.migration.MigrationDecision` tuples when the
    decisions are actually read — report post-processing, never the hot
    loop.  Supports the list operations the reference loop and consumers
    use (``append``, ``extend``, iteration, ``len``, indexing).
    """

    def __init__(self) -> None:
        self._blocks: List = []

    def append(self, decision) -> None:
        if not self._blocks or not isinstance(self._blocks[-1], list):
            self._blocks.append([])
        self._blocks[-1].append(decision)

    def extend(self, decisions) -> None:
        if hasattr(decisions, "migrated_count"):
            self._blocks.append(decisions)
        else:
            for decision in decisions:
                self.append(decision)

    def __len__(self) -> int:
        return sum(len(block) for block in self._blocks)

    def __iter__(self):
        for block in self._blocks:
            yield from block

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("decision index out of range")
        for block in self._blocks:
            if index < len(block):
                return block[index]
            index -= len(block)
        raise IndexError("decision index out of range")

    def migrated_count(self) -> int:
        """Number of migrated holds, without materializing lazy blocks."""
        total = 0
        for block in self._blocks:
            if hasattr(block, "migrated_count"):
                total += block.migrated_count()
            else:
                total += sum(1 for d in block if d.migrated)
        return total

    def columns(self) -> DecisionColumns:
        """The whole log as one column record, without materializing.

        A batched round logs exactly one column block, which is returned
        as is; the reference loop's decision lists are packed into
        columns first.  What the round commit digests and the migration
        plan is cut from.
        """
        blocks = [
            block
            if isinstance(block, DecisionColumns)
            else DecisionColumns.from_decisions(block)
            for block in self._blocks
        ]
        if len(blocks) == 1:
            return blocks[0]
        return DecisionColumns.concatenate(blocks)


@dataclass
class SchedulerReport:
    """Full record of one S-CORE run."""

    initial_cost: float
    final_cost: float
    time_series: List[Tuple[float, float]] = field(default_factory=list)
    iterations: List[IterationStats] = field(default_factory=list)
    decisions: Sequence[MigrationDecision] = field(default_factory=DecisionLog)
    #: The holder the *next* round would start from — pass it back as
    #: ``run(first_holder=...)`` to continue a multi-round schedule
    #: across separate ``run`` calls exactly as one call would have.
    next_holder: Optional[int] = None
    #: Provenance label when this scheduler state descends from a
    #: restored snapshot (``None`` for a never-restored scheduler).
    recovered_from: Optional[str] = None
    #: Executor a sharded run actually used (``"shm ×8"``, ``"serial"``,
    #: ``"fork ×8 (fallback: shared memory unavailable: ...)"``,
    #: ``"serial (fallback: ...)"``); ``None`` for non-sharded runs.
    shard_executor: Optional[str] = None

    @property
    def total_migrations(self) -> int:
        """Number of migrations performed over the whole run."""
        if hasattr(self.decisions, "migrated_count"):
            return self.decisions.migrated_count()
        return sum(1 for d in self.decisions if d.migrated)

    @property
    def cost_reduction(self) -> float:
        """Fractional reduction of the network-wide cost (0..1)."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost

    def cost_ratio_series(self, reference_cost: float) -> List[Tuple[float, float]]:
        """The paper's Fig. 3d–i series: cost(t) / reference (e.g. GA-optimal).

        Tolerates reports with no recorded points (e.g. a hand-built or
        not-yet-run report): the series is simply empty.
        """
        check_positive("reference_cost", reference_cost)
        if not self.time_series:
            return []
        return [(t, cost / reference_cost) for t, cost in self.time_series]

    def migrated_ratio_series(self) -> List[Tuple[int, float]]:
        """The paper's Fig. 2 series: migrated-VM ratio per iteration.

        Empty when the report holds no iterations (zero-iteration reports
        are legal values, not errors).
        """
        if not self.iterations:
            return []
        return [(it.index, it.migrated_ratio) for it in self.iterations]


class SCOREScheduler:
    """Runs the token-driven S-CORE algorithm over an allocation."""

    #: The round engine :meth:`run` drives wave rounds through.
    _rounds_class = BatchedRoundEngine

    def __init__(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        policy: TokenPolicy,
        engine: MigrationEngine,
        token_interval_s: float = 1.0,
        use_sharding: bool = False,
        n_domains: Optional[int] = None,
        n_workers: int = 1,
        shard_policy_factory=None,
    ) -> None:
        """
        The first :meth:`run` builds a
        :class:`repro.core.fastcost.FastCostEngine` over the allocation and
        traffic, attaches it to the migration engine, and threads it through
        the token loop — batched candidate scoring, O(peers) incremental
        cost updates, and vectorized highest-level queries for the policy.
        Each run then picks its loop from the policy: when the policy can
        freeze its visit order up front (RR exactly; HLF via a priority
        snapshot) the round executes as interference-free migration
        *waves* (:mod:`repro.core.rounds`, against the engine's persistent
        per-owner score cache); order-free policies (random, LRV) run the
        per-hold loop (:meth:`run_reference`).  The naive
        :class:`~repro.core.cost.CostModel` path and the uncached wave loop
        live on as oracles in :mod:`repro.reference`.

        ``use_sharding`` (default off) runs each schedule as
        community-partitioned parallel domains with a cross-domain
        reconciliation pass (:mod:`repro.shard`; requires a
        CanonicalTree topology, checked here).  ``n_domains`` caps the
        partition (default: one domain per pod, at most 16);
        ``n_workers`` > 1 fans domains out over forked worker processes
        (shared-memory slabs, degrading on their own to pickled pipes,
        then to in-process; the report's ``shard_executor`` says which
        ran).  ``shard_policy_factory`` builds each domain's private
        policy instance; by default the scheduler's policy type is
        instantiated with no arguments.

        A sharded scheduler keeps its domain fleet (and worker
        processes) alive across :meth:`run` calls; the churn / delta /
        capacity APIs forward their mutations to the live domains, and
        mutations the fleet cannot absorb trigger a transparent rebuild
        at the next run.  Call :meth:`close` to tear the fleet down
        deterministically.
        """
        check_positive("token_interval_s", token_interval_s)
        missing = traffic.vms_with_traffic - set(allocation.vm_ids())
        if missing:
            raise ValueError(
                f"traffic references VMs absent from the allocation: "
                f"{sorted(missing)[:5]}..."
            )
        topology = allocation.topology
        if use_sharding and not isinstance(topology, CanonicalTree):
            raise ValueError(
                "sharding requires a canonical tree topology (domains are "
                f"whole-pod sub-trees); got {type(topology).__name__}"
            )
        self._allocation = allocation
        self._traffic = traffic
        self._policy = policy
        self._engine = engine
        self._interval = token_interval_s
        self._token = Token(allocation.vm_ids())
        self._clock = 0.0
        self._use_sharding = use_sharding
        self._n_domains = n_domains
        self._n_workers = n_workers
        self._shard_policy_factory = shard_policy_factory
        self._shard_coordinator = None
        self._shard_solve_hints: dict = {}
        # Built lazily on the first run() — churn and traffic updates before
        # that point then cost nothing, and the run-start sync isn't paid
        # twice for a freshly constructed scheduler.
        self._fast: Optional[FastCostEngine] = None
        self._profile = None
        self._saved_capacity: dict = {}
        self._recovered_from: Optional[str] = None

    @property
    def allocation(self) -> Allocation:
        """The (mutating) allocation being optimized."""
        return self._allocation

    @property
    def token(self) -> Token:
        """The circulating token (live state)."""
        return self._token

    @property
    def traffic(self) -> TrafficMatrix:
        """The bound traffic matrix (live state)."""
        return self._traffic

    @property
    def clock(self) -> float:
        """Simulated wall-clock seconds elapsed (persists across runs)."""
        return self._clock

    @property
    def token_interval_s(self) -> float:
        """Simulated seconds one token hold takes."""
        return self._interval

    @property
    def cost_model(self) -> CostModel:
        """Shortcut to the engine's cost model."""
        return self._engine.cost_model

    @property
    def fastcost(self) -> Optional[FastCostEngine]:
        """The vectorized engine threaded through the loop (None before the
        first run, and always on the naive oracle)."""
        return self._fast

    def traffic_snapshot(self) -> TrafficSnapshot:
        """Array view of the live population and traffic — the read side
        event selection ranks VMs and pairs on
        (:meth:`TrafficSnapshot.ranked_vms`, ``heaviest_pairs``).

        The fast engine's snapshot when it describes the live state (no
        copy; treat it as frozen), else one built from the matrix's pair
        arrays.  Both are the same canonical arrays, so a selection does
        not depend on which one served it.
        """
        fast = self._fast
        if (
            fast is not None
            and fast.traffic is self._traffic
            and fast.in_sync
        ):
            return fast.snapshot
        return TrafficSnapshot.build(self._traffic, self._token.vm_ids)

    @property
    def profile(self):
        """Per-phase timings accumulated so far (None unless enabled)."""
        return self._profile

    @property
    def recovered_from(self) -> Optional[str]:
        """Recovery provenance (``"snapshot-00000003.snap@seq42"``) when
        this scheduler came through :meth:`restore`; None otherwise."""
        return self._recovered_from

    def enable_profiling(self):
        """Collect per-phase wall clock (score / re-mask / plan / apply)
        and round-cache hit rates on subsequent runs; returns the
        :class:`~repro.util.profiling.PhaseTimings` accumulator."""
        if self._profile is None:
            from repro.util.profiling import PhaseTimings

            self._profile = PhaseTimings()
        return self._profile

    def run(
        self,
        n_iterations: int = 5,
        stop_when_stable: bool = False,
        record_every_hold: bool = False,
        event_pump=None,
        first_holder: Optional[int] = None,
    ) -> SchedulerReport:
        """Circulate the token for ``n_iterations`` full rounds.

        Dispatches to the wave-batched round engine when the policy
        provides a round-order snapshot, else to the per-hold loop — the
        two agree whenever round decisions don't interact, and the wave
        differential suite pins their relationship when they do.

        Parameters
        ----------
        n_iterations:
            Number of token rounds (|V| holds each); the paper uses 5.
        stop_when_stable:
            Stop early after an iteration with zero migrations (the system
            has converged; Fig. 2 shows this typically happens by round 3).
        record_every_hold:
            Record a time-series point at every hold instead of only when
            the cost changes (larger but smoother series).
        event_pump:
            Optional ``pump(now_s) -> bool`` driving a continuous-time
            event queue (see :mod:`repro.sim.eventqueue`).  On the
            batched path it is called after every applied wave with the
            simulated time of the last settled hold, and at every round
            boundary; the reference loop pumps at iteration boundaries
            only.  A ``True`` return means events mutated engine state:
            the in-flight round finishes against the live state and the
            cost series re-anchors from the engine's exact total.
        first_holder:
            Start the first round's order from this VM instead of the
            token's lowest id.  Feeding a previous report's
            ``next_holder`` back here makes ``run(1)`` called k times
            reproduce ``run(k)`` hold for hold — the seam checkpointed
            runs resume through (:mod:`repro.persist`).
        """
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        cost_model = self._prepare_engines()
        if self._use_sharding:
            return self._run_sharded(
                cost_model, n_iterations, stop_when_stable, event_pump
            )
        if self._fast is not None:  # wave rounds need the fast engine
            order = self._policy.round_order(
                self._token,
                (
                    first_holder
                    if first_holder is not None
                    else self._token.lowest_id
                ),
                self._allocation,
                self._traffic,
                cost_model,
            )
            if order is not None:
                return self._run_batched(
                    cost_model,
                    order,
                    n_iterations,
                    stop_when_stable,
                    record_every_hold,
                    event_pump,
                )
        return self._run_reference_loop(
            cost_model, n_iterations, stop_when_stable, record_every_hold,
            event_pump, first_holder,
        )

    def quiesce(
        self, max_rounds: int = 25, first_holder: Optional[int] = None
    ) -> List[SchedulerReport]:
        """Run one round at a time until a round migrates nothing.

        The settle loop the service drain and the chaos differential
        share: with no further events arriving, S-CORE converges (every
        hold fails the Theorem 1 gate) and the first zero-migration
        round proves it.  Returns the per-round reports, the stable
        round last; raises ``RuntimeError`` if ``max_rounds`` rounds
        all still migrate — that is oscillation, not convergence.
        """
        reports: List[SchedulerReport] = []
        holder = first_holder
        for _ in range(max_rounds):
            report = self.run(n_iterations=1, first_holder=holder)
            reports.append(report)
            holder = report.next_holder
            if report.total_migrations == 0:
                return reports
        raise RuntimeError(
            f"scheduler failed to quiesce within {max_rounds} rounds "
            f"(last round still moved {reports[-1].total_migrations} VMs)"
        )

    def run_reference(
        self,
        n_iterations: int = 5,
        stop_when_stable: bool = False,
        record_every_hold: bool = False,
    ) -> SchedulerReport:
        """The per-hold token loop (pre-batching semantics), kept verbatim.

        One Theorem 1 decision per hold, policy ``on_hold``/``next_vm``
        after every decision — what :meth:`run` executes for order-free
        policies, and the oracle the wave-batched path is pinned against.
        The per-decision math goes through the same cost engine as
        :meth:`run`; only the round batching is bypassed.
        """
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        cost_model = self._prepare_engines()
        return self._run_reference_loop(
            cost_model, n_iterations, stop_when_stable, record_every_hold
        )

    def _prepare_engines(self) -> CostModel:
        """Build/resync the fast engine; return the active cost model.

        Policies take it in place of a :class:`CostModel` — the fast
        engine answers ``highest_level`` and ``total_cost`` from its
        arrays with the same signature.
        """
        if self._fast is None:
            self._fast = FastCostEngine(
                self._allocation,
                self._traffic,
                weights=self._engine.cost_model.weights,
            )
            self._engine.attach_fastcost(self._fast)
        elif self._fast.traffic is not self._traffic:
            self._fast.update_traffic(self._traffic)
        elif not self._fast.in_sync:
            # Some writer bypassed the engine's update path since the
            # last run (direct allocation moves, out-of-band set_rate):
            # pay one full resync.  Mutations routed through the
            # scheduler's churn/delta APIs keep the engine in sync, so
            # multi-epoch dynamic runs skip this entirely.  Whatever
            # desynced the engine also bypassed the shard fleet.
            self._fast.rebuild()
            self._close_shard_fleet()
        return self._fast

    def _run_reference_loop(
        self,
        cost_model: CostModel,
        n_iterations: int,
        stop_when_stable: bool,
        record_every_hold: bool,
        event_pump=None,
        first_holder: Optional[int] = None,
    ) -> SchedulerReport:
        cost = cost_model.total_cost(self._allocation, self._traffic)
        report = SchedulerReport(initial_cost=cost, final_cost=cost)
        report.recovered_from = self._recovered_from
        report.time_series.append((self._clock, cost))

        # A continuation holder that churned away between runs degrades
        # to the lowest id — the same fallback the boundary pump applies.
        holder = self._token.lowest_id
        if first_holder is not None and first_holder in self._token:
            holder = first_holder
        for iteration in range(1, n_iterations + 1):
            # Re-read each iteration: boundary events may have churned
            # the population (the per-hold loop has no mid-round seam —
            # event injection there is boundary-granular by design).
            n_vms = len(self._token)
            migrations = 0
            for _visit in range(n_vms):
                decision = self._engine.decide_and_migrate(
                    self._allocation, self._traffic, holder
                )
                report.decisions.append(decision)
                if decision.migrated:
                    migrations += 1
                    cost -= decision.delta
                self._policy.on_hold(
                    self._token,
                    holder,
                    self._allocation,
                    self._traffic,
                    cost_model,
                )
                self._clock += self._interval
                if decision.migrated or record_every_hold:
                    report.time_series.append((self._clock, cost))
                holder = self._policy.next_vm(
                    self._token,
                    holder,
                    self._allocation,
                    self._traffic,
                    cost_model,
                )
            report.iterations.append(
                IterationStats(
                    index=iteration,
                    visits=n_vms,
                    migrations=migrations,
                    cost_at_end=cost,
                )
            )
            report.time_series.append((self._clock, cost))
            if event_pump is not None and event_pump(self._clock):
                # Events changed cost out-of-band of the migration deltas
                # and may have retired the next holder.
                cost = float(
                    cost_model.total_cost(self._allocation, self._traffic)
                )
                if holder not in self._token:
                    holder = self._token.lowest_id
                report.time_series.append((self._clock, cost))
            if stop_when_stable and migrations == 0:
                break

        report.final_cost = cost
        report.next_holder = holder
        return report

    def _run_batched(
        self,
        cost_model: CostModel,
        first_order: List[int],
        n_iterations: int,
        stop_when_stable: bool,
        record_every_hold: bool,
        event_pump=None,
    ) -> SchedulerReport:
        """Wave-batched rounds over the policy's round-order snapshots.

        The report keeps the reference layout — one decision per hold in
        visit order, a time-series point per migrated hold (or per hold
        with ``record_every_hold``) and one per iteration end — with each
        wave's cost change attributed to the holds that moved.

        With an ``event_pump``, the pump runs after every applied wave at
        the simulated time of the wave's last settled hold (round start +
        ``token_interval_s`` × holds decided so far — a retired hold
        still consumes its tick) and again at each round boundary.  When
        a pump mutates state, per-hold points within that round remain
        migration-delta-relative (events shift them out-of-band), but
        every iteration-end cost re-anchors from the engine's exact
        incremental total, so ``final_cost`` is exact.
        """
        assert self._fast is not None
        wave_callback = None
        if self._policy.wave_refresh is not None:
            policy = self._policy

            def wave_callback(vm_ids: List[int]) -> None:
                policy.wave_refresh(
                    self._token, vm_ids, self._allocation, self._traffic,
                    cost_model,
                )

        rounds = self._rounds_class(
            self._allocation, self._traffic, self._engine, self._fast,
            wave_callback=wave_callback,
            profile=self._profile,
        )
        cost = cost_model.total_cost(self._allocation, self._traffic)
        report = SchedulerReport(initial_cost=cost, final_cost=cost)
        report.recovered_from = self._recovered_from
        report.time_series.append((self._clock, cost))

        order = first_order
        holder: Optional[int] = None
        for iteration in range(1, n_iterations + 1):
            injector = None
            if event_pump is not None:
                def injector(settled, _start=self._clock):
                    return event_pump(_start + self._interval * settled)

            result = rounds.run_round(order, injector)
            report.decisions.extend(result.decisions)
            # Per-hold cost series, attributed at each migrated hold in
            # visit order (cumulative exact deltas).
            costs = cost - np.cumsum(result.hold_delta)
            clocks = self._clock + self._interval * np.arange(
                1, len(order) + 1
            )
            self._clock = float(clocks[-1])
            cost = float(costs[-1])
            if event_pump is not None:
                # Injected events shift cost out-of-band of the per-hold
                # deltas; re-anchor from the engine's exact total (O(1)).
                cost = float(
                    cost_model.total_cost(self._allocation, self._traffic)
                )
            if record_every_hold:
                report.time_series.extend(
                    zip(clocks.tolist(), costs.tolist())
                )
            else:
                hit = result.hold_migrated
                report.time_series.extend(
                    zip(clocks[hit].tolist(), costs[hit].tolist())
                )
            report.iterations.append(
                IterationStats(
                    index=iteration,
                    visits=len(order),
                    migrations=result.migrations,
                    cost_at_end=cost,
                    waves=result.waves,
                )
            )
            report.time_series.append((self._clock, cost))
            holder = self._policy.end_round(
                self._token, order, self._allocation, self._traffic, cost_model
            )
            if event_pump is not None and event_pump(self._clock):
                # Boundary events (arrivals join here; departures leave
                # before the next order snapshot).
                cost = float(
                    cost_model.total_cost(self._allocation, self._traffic)
                )
                report.time_series.append((self._clock, cost))
            if stop_when_stable and result.migrations == 0:
                break
            if iteration < n_iterations:
                order = self._policy.round_order(
                    self._token,
                    holder,
                    self._allocation,
                    self._traffic,
                    cost_model,
                )
        report.final_cost = cost
        report.next_holder = holder
        return report

    def _default_policy_factory(self):
        """Clone the scheduler's policy type for a domain (no-arg ctor)."""
        policy_type = type(self._policy)

        def factory():
            try:
                return policy_type()
            except TypeError as error:
                raise TypeError(
                    f"cannot build a per-domain {policy_type.__name__} "
                    "with no arguments; pass shard_policy_factory"
                ) from error

        return factory

    def _ensure_shard_fleet(self):
        """The live domain fleet, (re)built when absent or stale.

        The fleet — domains, worker processes, shared-memory slabs —
        persists across :meth:`run` calls; the delta-forwarding APIs
        keep it synchronized, and anything they could not absorb marked
        it stale.  A rebuild seeds the LPT worker packing with the
        measured per-domain solve times of the previous fleet.
        """
        from repro.shard import ShardedCoordinator

        assert self._fast is not None
        coordinator = self._shard_coordinator
        if coordinator is not None and (
            coordinator.stale or coordinator._traffic is not self._traffic
        ):
            self._close_shard_fleet()
            coordinator = None
        if coordinator is None:
            topology = self._allocation.topology
            n_pods = int(topology.host_pod_ids().max()) + 1
            n_domains = (
                self._n_domains
                if self._n_domains is not None
                else min(16, n_pods)
            )
            coordinator = ShardedCoordinator(
                self._allocation,
                self._traffic,
                self._engine,
                self._fast,
                self._shard_policy_factory or self._default_policy_factory(),
                n_domains=n_domains,
                n_workers=self._n_workers,
                solve_hints=self._shard_solve_hints,
                profile=self._profile,
            )
            self._shard_coordinator = coordinator
        return coordinator

    def _close_shard_fleet(self) -> None:
        """Tear the live fleet down, keeping its solve times as hints."""
        coordinator = self._shard_coordinator
        if coordinator is not None:
            self._shard_solve_hints.update(coordinator.solve_hints)
            self._shard_coordinator = None
            coordinator.close()

    def close(self) -> None:
        """Release live resources (the sharded worker fleet and slabs).

        Idempotent; non-sharded schedulers have nothing to release.
        The object remains usable — a subsequent sharded run simply
        rebuilds the fleet.
        """
        self._close_shard_fleet()

    def _forward_shard(self, forward) -> None:
        """Forward one mutation to the live fleet (rebuild if refused)."""
        coordinator = self._shard_coordinator
        if coordinator is None:
            return
        if not forward(coordinator):
            self._close_shard_fleet()

    def __getstate__(self):
        # Snapshots pickle the whole scheduler graph; the live fleet
        # (worker processes, pipes, shared-memory slabs) never travels.
        # A restored scheduler rebuilds it lazily at its next run.
        state = self.__dict__.copy()
        state["_shard_coordinator"] = None
        return state

    def __setstate__(self, state):
        # Snapshots written before the persistent fleet existed restore
        # with the fleet fields defaulted; the path switches older
        # snapshots still carry are dropped (the code picks the path).
        state.setdefault("_shard_coordinator", None)
        state.setdefault("_shard_solve_hints", {})
        for obsolete in (
            "_use_fastcost",
            "_use_batched_rounds",
            "_use_round_cache",
            "_shard_compact",
            "_shard_transport",
        ):
            state.pop(obsolete, None)
        self.__dict__.update(state)

    def _run_sharded(
        self,
        cost_model: CostModel,
        n_iterations: int,
        stop_when_stable: bool,
        event_pump=None,
    ) -> SchedulerReport:
        """Community-partitioned parallel domains + boundary reconcile.

        Each iteration fans one wave-batched round out to every domain
        (:mod:`repro.shard`), merges each domain's waves into the global
        allocation/fast engine as they arrive (exact incremental cost),
        and after the last iteration runs the Theorem-1 reconciliation
        passes over the cross-domain boundary VMs.  The report keeps
        iteration-granular time-series points (per-hold attribution is
        a single-engine notion); the reconcile passes append one extra
        :class:`IterationStats` entry when they ran.

        An ``event_pump`` is driven at *iteration boundaries* (domain
        rounds have no mid-round seam by construction): events route
        through the scheduler's mutation APIs, which forward them to
        the live fleet, and each boundary re-anchors the cost from the
        engine's exact total.  Pipelined look-ahead is disabled while a
        pump (or ``stop_when_stable``) could change what the next
        iteration is.
        """
        assert self._fast is not None
        # The global fast engine is authoritative for the whole sharded
        # run (merge and reconcile maintain it move by move), so anchor
        # the report on it too — the naive O(pairs × levels) recompute
        # costs seconds at hyperscale.
        cost = float(self._fast.total_cost())
        report = SchedulerReport(initial_cost=cost, final_cost=cost)
        report.recovered_from = self._recovered_from
        report.time_series.append((self._clock, cost))
        coordinator = None
        for iteration in range(1, n_iterations + 1):
            coordinator = self._ensure_shard_fleet()
            more_coming = (
                iteration < n_iterations
                and not stop_when_stable
                and event_pump is None
            )
            outcome = coordinator.run_iteration(iteration, more_coming)
            for block in outcome.decision_blocks:
                report.decisions.extend(block)
            self._clock += self._interval * outcome.visits
            cost = outcome.cost_at_end
            report.iterations.append(
                IterationStats(
                    index=iteration,
                    visits=outcome.visits,
                    migrations=outcome.migrations,
                    cost_at_end=cost,
                    waves=outcome.waves,
                )
            )
            report.time_series.append((self._clock, cost))
            if event_pump is not None and event_pump(self._clock):
                # Boundary events mutated engine state out-of-band (the
                # mutation APIs kept the fleet in step, or retired it);
                # re-anchor from the engine's exact incremental total.
                cost = float(self._fast.total_cost())
                report.time_series.append((self._clock, cost))
            if stop_when_stable and outcome.migrations == 0:
                break
        coordinator = self._ensure_shard_fleet()
        reconcile = coordinator.reconcile()
        if reconcile.passes:
            for block in reconcile.decision_blocks:
                report.decisions.extend(block)
            visits = reconcile.boundary_vms * reconcile.passes
            self._clock += self._interval * visits
            cost = float(self._fast.total_cost())
            report.iterations.append(
                IterationStats(
                    index=len(report.iterations) + 1,
                    visits=visits,
                    migrations=reconcile.migrations,
                    cost_at_end=cost,
                )
            )
            report.time_series.append((self._clock, cost))
        self._shard_solve_hints.update(coordinator.solve_hints)
        label = coordinator.executor_kind
        if coordinator.n_workers > 1:
            label = f"{label} ×{coordinator.n_workers}"
        if coordinator.executor_fallback:
            label = f"{label} (fallback: {coordinator.executor_fallback})"
        report.shard_executor = label
        report.final_cost = cost
        report.next_holder = self._token.lowest_id
        return report

    def save_snapshot(
        self,
        directory: str,
        *,
        include_engine: bool = True,
        meta: Optional[dict] = None,
        io=None,
    ) -> str:
        """Write one atomic, checksummed snapshot generation of the full
        warm state under ``directory``; returns the file path.

        The payload is the scheduler's whole object graph — allocation,
        traffic matrix, token levels/buckets, policy state, clock, saved
        drain capacity, and (by default) the warm
        :class:`~repro.core.fastcost.FastCostEngine` with its CSR
        snapshot, Lemma-3 caches and round-score cache, so
        :meth:`restore` resumes without re-paying the cold scoring
        boot.  ``include_engine=False`` strips the engine from the
        payload (a far smaller file); the restored scheduler then
        re-derives it lazily on its next :meth:`run`.

        ``meta`` lands verbatim in the snapshot's JSON header (the
        durable runner records its journal position there); ``io``
        overrides the :class:`~repro.persist.snapshot.StorageIO` write
        layer (fault injection, retry budget).
        """
        from repro.persist.snapshot import write_snapshot

        detached = None
        if not include_engine and self._fast is not None:
            detached = self._fast
            self._fast = None
            self._engine.attach_fastcost(None)
        try:
            header_meta = {
                "kind": "scheduler",
                "include_engine": bool(include_engine),
                "clock": self._clock,
                "n_vms": self._allocation.n_vms,
                **(meta or {}),
            }
            return write_snapshot(
                directory, {"scheduler": self}, header_meta, io=io
            )
        finally:
            if detached is not None:
                self._fast = detached
                self._engine.attach_fastcost(detached)

    @classmethod
    def restore(cls, source: str, *, generation: Optional[int] = None):
        """Load a scheduler from a snapshot; the warm twin of ``__init__``.

        ``source`` is a snapshot *directory* (the newest generation that
        verifies is loaded — corrupt files are skipped, the degradation
        ladder of :func:`repro.persist.snapshot.load_latest_good`) or
        one snapshot *file*; ``generation`` pins a specific generation
        inside a directory.  The restored scheduler carries a
        ``recovered_from`` provenance label on itself and every
        subsequent :class:`SchedulerReport`.

        Raises :class:`~repro.persist.snapshot.SnapshotCorruptError` for
        an unusable explicit file/generation and
        :class:`~repro.persist.snapshot.NoSnapshotError` when a
        directory holds no usable generation at all.
        """
        import os

        from repro.persist.snapshot import (
            load_latest_good,
            read_snapshot,
            snapshot_path,
        )

        if generation is not None:
            source = snapshot_path(source, generation)
        if os.path.isdir(source):
            loaded = load_latest_good(source)
            header, state, path = loaded.header, loaded.state, loaded.path
        else:
            header, state = read_snapshot(source)
            path = source
        scheduler = state["scheduler"]
        if not isinstance(scheduler, cls):
            raise TypeError(
                f"snapshot {path} holds {type(scheduler).__name__}, "
                f"not {cls.__name__}"
            )
        scheduler._recovered_from = (
            f"{os.path.basename(path)}"
            f"@seq{header.get('meta', {}).get('journal_seq', 0)}"
        )
        return scheduler

    def admit_vm(self, vm, host: int) -> None:
        """Bring a newly created VM online (joins the token circulation).

        Models tenant churn: the placement manager creates the VM, the
        scheduler places it and adds its (zero-level) token entry, and the
        next iterations optimize it like any other VM.
        """
        self.admit_vms([vm], [host])

    def admit_vms(self, vms: Sequence, hosts: Sequence[int]) -> None:
        """Bring one batch of arriving VMs online.

        The allocation validates the whole batch before placing anything
        (atomic on failure); the fast engine's dense index and capacity
        mirrors are patched in place, so no cold rebuild is paid at the
        next run.  Arrivals join with no traffic — route their flows
        through :meth:`apply_traffic_delta` afterwards.
        """
        vms = list(vms)
        hosts = [int(h) for h in hosts]
        self._allocation.add_vms(vms, hosts)
        for vm in vms:
            self._token.add_vm(vm.vm_id)
        if self._fast is not None:
            self._fast.add_vms(vms)
        self._forward_shard(lambda c: c.forward_admissions(vms, hosts))

    def retire_vm(self, vm_id: int) -> None:
        """Take a VM offline: remove it from the allocation, the token and
        the traffic matrix (its flows cease)."""
        self.retire_vms([vm_id])

    def retire_vms(self, vm_ids: Sequence[int]) -> None:
        """Take one batch of VMs offline (tenant departures).

        Their flows cease (the traffic matrix drops every pair touching
        them), they leave the allocation and the token, and the fast
        engine patches its dense index incrementally.  The token must
        keep at least one entry; unknown ids raise before any removal.
        """
        ids = [int(v) for v in vm_ids]
        if not ids:
            return
        gone = set(ids)
        if sum(1 for v in gone if v in self._token) >= len(self._token):
            raise ValueError("cannot retire every VM; the token needs a holder")
        missing = [v for v in ids if v not in self._allocation]
        if missing:
            raise KeyError(f"VM {missing[0]} is not placed")
        ceased = [
            (vm_id, peer, 0.0)
            for vm_id in ids
            for peer in self._traffic.peers_of(vm_id)
            if peer not in gone or peer > vm_id
        ]
        # Flows cease first (one paired traffic delta, while the engine
        # still knows the VMs), then the population shrinks.
        self.apply_traffic_delta(ceased)
        self._allocation.remove_vms(ids)
        for vm_id in ids:
            self._token.remove_vm(vm_id)
        if self._fast is not None:
            self._fast.remove_vms(ids)
        self._forward_shard(lambda c: c.forward_retirements(ids))

    def apply_traffic_delta(self, changed_pairs) -> int:
        """Patch λ for one batch of pairs — the incremental epoch transition.

        ``changed_pairs`` holds ``(vm_u, vm_v, new_rate)`` triples (or a
        ``(us, vs, rates)`` array tuple) with absolute new rates; 0
        removes a pair.  The bound traffic matrix and the fast engine's
        snapshot/caches are patched together, so the sliding-window
        re-estimation of §IV costs O(changed pairs) instead of the full
        O(pairs) rebuild `update_traffic` pays.  Returns the number of
        pair changes applied.
        """
        # The array form requires actual ndarrays (mirroring the engine's
        # parser) — a plain tuple of exactly three (u, v, rate) triples is
        # a triple list, not a transposed (us, vs, rates) bundle.
        if (
            isinstance(changed_pairs, tuple)
            and len(changed_pairs) == 3
            and isinstance(changed_pairs[0], np.ndarray)
        ):
            triples = list(zip(*changed_pairs))
            engine_delta = changed_pairs
        else:
            triples = list(changed_pairs)
            engine_delta = triples
        if self._fast is not None:
            # Engine-side validation runs first (unknown VMs, negative
            # rates) so a bad delta leaves the matrix untouched too.  The
            # engine credits itself the matrix's one version bump.
            applied = self._fast.apply_traffic_delta(engine_delta)
            if applied:
                self._traffic.apply_delta(triples)
                self._forward_shard(
                    lambda c: c.forward_traffic_delta(engine_delta)
                )
            return applied
        placed = set(self._allocation.vm_ids())
        endpoints = {int(u) for u, _, _ in triples} | {
            int(v) for _, v, _ in triples
        }
        missing = endpoints - placed
        if missing:
            raise KeyError(
                f"traffic delta references VMs absent from the allocation: "
                f"{sorted(missing)[:5]}"
            )
        return self._traffic.apply_delta(triples)

    def drain_hosts(
        self, hosts: Sequence[int], offline: bool = False
    ) -> List[Tuple[int, int]]:
        """Evacuate every VM from the given hosts (maintenance drain).

        Each VM moves to the first feasible host outside the drained set
        — preferring the same rack, then the same pod, then anywhere
        (ascending host order) — through the engine's incremental update
        path, so a drain is O(moved VMs), not a rebuild.  Returns the
        ``(vm_id, target_host)`` moves performed; raises
        :class:`~repro.cluster.allocation.CapacityError` when a VM fits
        nowhere (the drain stops at that VM).

        With ``offline=True`` the drained hosts are additionally taken
        out of service — their slot capacity drops to zero via the
        in-place capacity patch (:meth:`set_host_capacity`), so no later
        round migrates anything back onto them — until
        :meth:`restore_hosts` brings the saved capacity back.
        """
        drained = set(int(h) for h in hosts)
        # Drain moves bypass the domain round engines (and may cross
        # domain boundaries): retire the live fleet rather than chase it.
        self._close_shard_fleet()
        topology = self._allocation.topology
        moves: List[Tuple[int, int]] = []
        for host in sorted(drained):
            candidates = [
                h
                for h in locality_probe_order(topology, topology.rack_of(host))
                if h not in drained
            ]
            for vm_id in sorted(self._allocation.vms_on(host)):
                vm = self._allocation.vm(vm_id)
                target = next(
                    (h for h in candidates if self._allocation.can_host(h, vm)),
                    None,
                )
                if target is None:
                    raise CapacityError(
                        f"drain failed: no feasible host for VM {vm_id}"
                    )
                self._allocation.migrate(vm_id, target)
                if self._fast is not None:
                    self._fast.apply_migration(vm_id, target)
                moves.append((vm_id, target))
        if offline:
            for host in sorted(drained):
                capacity = self._allocation.cluster.server(host).capacity
                self._saved_capacity.setdefault(host, capacity)
                self.set_host_capacity(host, max_vms=0)
        return moves

    def restore_hosts(self, hosts: Sequence[int]) -> None:
        """Bring hosts drained with ``offline=True`` back into service.

        Restores each host's saved capacity through the in-place patch —
        the freed hosts become candidate targets again at the next round
        (feasibility is re-probed from the live mirrors; scored rows need
        no invalidation).  Hosts that were never taken offline are
        ignored.
        """
        for host in sorted(int(h) for h in hosts):
            capacity = self._saved_capacity.pop(host, None)
            if capacity is None:
                continue
            self.set_host_capacity(
                host,
                max_vms=capacity.max_vms,
                nic_bps=capacity.nic_bps,
                ram_mb=capacity.ram_mb,
                cpu=capacity.cpu,
            )

    def set_host_capacity(
        self,
        host: int,
        max_vms: Optional[int] = None,
        nic_bps: Optional[float] = None,
        ram_mb: Optional[int] = None,
        cpu: Optional[float] = None,
    ) -> None:
        """Resize one host in place (server upgrade, maintenance offline).

        Routed through :meth:`FastCostEngine.set_host_capacity` when the
        engine exists — the capacity/egress mirrors are patched without a
        rebuild — and straight through the cluster otherwise.  Values
        left ``None`` keep their current setting; shrinking below current
        usage raises (drain first).
        """
        if self._fast is not None:
            self._fast.set_host_capacity(
                host, max_vms=max_vms, nic_bps=nic_bps, ram_mb=ram_mb, cpu=cpu
            )
            self._forward_shard(
                lambda c: c.forward_capacity(
                    host,
                    dict(max_vms=max_vms, nic_bps=nic_bps, ram_mb=ram_mb,
                         cpu=cpu),
                )
            )
            return
        from repro.cluster.server import ServerCapacity

        cluster = self._allocation.cluster
        current = cluster.server(int(host)).capacity
        new = ServerCapacity(
            max_vms=current.max_vms if max_vms is None else int(max_vms),
            ram_mb=current.ram_mb if ram_mb is None else int(ram_mb),
            cpu=current.cpu if cpu is None else float(cpu),
            nic_bps=current.nic_bps if nic_bps is None else float(nic_bps),
        )
        in_use = len(self._allocation.vms_on(int(host)))
        if new.max_vms < in_use:
            raise ValueError(
                f"host {host} runs {in_use} VMs; cannot shrink to "
                f"{new.max_vms} slots (drain it first)"
            )
        cluster.set_host_capacity(int(host), new)

    def set_bandwidth_threshold(self, threshold: Optional[float]) -> None:
        """Change the §V-C migration-bandwidth budget mid-run.

        Models link contention events (a squeezed budget) and their
        lifting (``None`` or a looser fraction).  The new budget governs
        every decision made after the call; any round-cache decision
        carry is dropped (it was derived under the old budget), while the
        cached scored deltas — budget-independent — survive.
        """
        self._engine.set_bandwidth_threshold(threshold)
        if self._fast is not None:
            self._fast.invalidate_round_decisions()
        self._forward_shard(lambda c: c.forward_threshold(threshold))

    def update_traffic(self, traffic: TrafficMatrix) -> None:
        """Install a fresh traffic-matrix estimate (next measurement window).

        The token and allocation persist; only λ changes, modelling the
        periodic re-estimation of §IV.  This is the full-rebuild path —
        prefer :meth:`apply_traffic_delta` when the change set is known.
        """
        missing = traffic.vms_with_traffic - set(self._allocation.vm_ids())
        if missing:
            raise ValueError(
                f"traffic references VMs absent from the allocation: "
                f"{sorted(missing)[:5]}..."
            )
        self._traffic = traffic
        # The fleet's domain matrices were sliced from the old estimate.
        self._close_shard_fleet()
        if self._fast is not None:
            self._fast.update_traffic(traffic)
