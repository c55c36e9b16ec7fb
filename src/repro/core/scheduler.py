"""The distributed S-CORE control loop (paper §IV–§V).

The scheduler circulates the token: at each *hold*, the holding VM (its
dom0, in the Xen deployment) makes the unilateral Theorem 1 decision via
:class:`repro.core.migration.MigrationEngine`, and the token moves on.
One *iteration* is ``|V|`` consecutive holds — every VM once, in the
order the policy gives for the round, run as interference-free waves
(:mod:`repro.core.rounds`), token state updated at the round's end — the
unit in which the paper reports the ratio of migrated VMs (Fig. 2).
Wall-clock time advances ``token_interval_s`` per hold, giving the time
axis of the cost-ratio plots (Fig. 3d–i).

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
from repro.core.migration import MigrationEngine
from repro.core.mutation import (
    Admit, Capacity, Migrate, Retire, Threshold, TrafficDelta,
)
from repro.core.policies import TokenPolicy
from repro.core.rounds import BatchedRoundEngine, DecisionColumns
from repro.core.token import Token
from repro.topology.tree import CanonicalTree
from repro.traffic.matrix import TrafficMatrix, delta_arrays
from repro.util.validation import check_positive


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration summary (one token round over all VMs)."""

    index: int
    visits: int
    migrations: int
    cost_at_end: float
    #: Waves the batched round took (0 on the per-hold oracle).
    waves: int = 0

    @property
    def migrated_ratio(self) -> float:
        """Fraction of token holds that resulted in a migration (Fig. 2)."""
        return self.migrations / self.visits if self.visits else 0.0


class DecisionLog:
    """Sequence of per-hold decisions, lazily materialized per block.

    Every round records its decisions as one column block
    (:class:`repro.core.rounds.DecisionColumns`); the log keeps those
    blocks as-is and only builds
    :class:`~repro.core.migration.MigrationDecision` tuples when the
    decisions are actually read — report post-processing, never the hot
    loop.  Reads as a sequence (iteration, ``len``, indexing).
    """

    def __init__(self) -> None:
        self._blocks: List[DecisionColumns] = []

    def extend(self, block: DecisionColumns) -> None:
        """Append one round's column block."""
        self._blocks.append(block)

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
        """Number of migrated holds, without materializing."""
        return sum(block.migrated_count() for block in self._blocks)

    def columns(self) -> DecisionColumns:
        """The whole log as one column record, without materializing.

        A one-round log is its block, returned as is.  What the round
        commit digests and the migration plan is cut from.
        """
        if len(self._blocks) == 1:
            return self._blocks[0]
        return DecisionColumns.concatenate(self._blocks)


@dataclass
class SchedulerReport:
    """Full record of one S-CORE run."""

    initial_cost: float
    final_cost: float
    time_series: List[Tuple[float, float]] = field(default_factory=list)
    iterations: List[IterationStats] = field(default_factory=list)
    decisions: DecisionLog = field(default_factory=DecisionLog)
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
        return self.decisions.migrated_count()

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
    ) -> None:
        """
        Construction builds a
        :class:`repro.core.fastcost.FastCostEngine` over the allocation and
        traffic (binding the matrix's store; traffic on VMs the allocation
        does not place, or a cost model on another topology instance than
        the allocation's, raises ``ValueError``); the migration engine is
        handed it with every decision.  Every write goes through it, and
        every round threads it through the token loop — batched candidate
        scoring, O(peers) incremental cost updates, and vectorized
        highest-level queries for the policy.
        Every round takes its visit order from the policy
        (:meth:`~repro.core.policies.TokenPolicy.round_order`: RR's
        rotation, HLF's priority snapshot, LRV's queue, a random
        permutation) and executes it as interference-free migration
        *waves* (:mod:`repro.core.rounds`, against the engine's persistent
        per-owner score cache).  The per-hold loop, the naive
        :class:`~repro.core.cost.CostModel` path and the uncached rounds
        live on as oracles in :mod:`repro.reference`.

        ``use_sharding`` (default off) runs each schedule as
        community-partitioned parallel domains with a cross-domain
        reconciliation pass (:mod:`repro.shard`; requires a
        CanonicalTree topology, checked here).  ``n_domains`` caps the
        partition (default: one domain per pod, at most 16);
        ``n_workers`` > 1 fans domains out over forked worker processes
        (shared-memory slabs, degrading on their own to pickled pipes,
        then to in-process; the report's ``shard_executor`` says which
        ran).  Each domain circulates its own token under
        ``policy.spawn()``.

        A sharded scheduler keeps its domain fleet (and worker
        processes) alive across :meth:`run` calls while nothing changes
        under it.  Every mutator (admit, retire, traffic delta,
        capacity, threshold, drain) validates, then writes
        :mod:`repro.core.mutation` values to this scheduler's stack and
        marks the fleet stale; the next run tears it down and rebuilds
        it from the global state.  Call :meth:`close` to tear the fleet
        down deterministically.
        """
        check_positive("token_interval_s", token_interval_s)
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
        self._token = Token(allocation.columns()[0])
        self._clock = 0.0
        self._use_sharding = use_sharding
        self._n_domains = n_domains
        self._n_workers = n_workers
        self._shard_coordinator = None
        self._profile = None
        self._saved_capacity: dict = {}
        self._recovered_from: Optional[str] = None
        self._fast = self._engine.bind(self._allocation, self._traffic)

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
    def fastcost(self) -> FastCostEngine:
        """The vectorized engine every write and round goes through, bound
        to :attr:`allocation` and :attr:`traffic` from construction on."""
        return self._fast

    def traffic_snapshot(self) -> TrafficSnapshot:
        """Array view of the live population and traffic — the read side
        event selection ranks VMs and pairs on
        (:meth:`TrafficSnapshot.ranked_vms`, ``heaviest_pairs``).

        The matrix's own store while it is indexed over the live
        population (a bound store is; no copy, treat it as frozen), else
        a view of it re-indexed onto the token's ids.  Both hold the same
        canonical arrays, so a selection does not depend on which one
        served it.
        """
        store = self._traffic.store
        if store.vm_ids is self._allocation.columns()[0]:
            return store
        return TrafficSnapshot.build(self._traffic, self._token.vm_ids)

    @property
    def profile(self):
        """Per-phase timings accumulated so far (None unless enabled)."""
        return self._profile

    @property
    def recovered_from(self) -> Optional[str]:
        """Recovery provenance (``"snapshot-00000003.snap@seq42"``) when
        a durable driver (the scenario run or the service) resumed this
        scheduler from its state directory; None otherwise."""
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

        Every round runs the policy's round order through the
        wave-batched round engine (sharded: through every domain's).  It
        agrees with the per-hold oracle whenever round decisions don't
        interact, and the wave differential suite pins their relationship
        when they do.

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
            event queue (see :mod:`repro.sim.eventqueue`).  It is called
            after every applied wave with the simulated time of the last
            settled hold, and at every round boundary (sharded runs pump
            at round boundaries only).  A ``True`` return means events
            mutated engine state: the in-flight round finishes against
            the live state and the cost series re-anchors from the
            engine's exact total.
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
        return self._run_batched(
            cost_model,
            first_holder if first_holder is not None else self._token.lowest_id,
            n_iterations,
            stop_when_stable,
            record_every_hold,
            event_pump,
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

    def _prepare_engines(self) -> CostModel:
        """Resync the fast engine if needed; return the active cost model.

        The round loop reads ``total_cost`` from it; the fast engine
        answers it from its incremental cache with the signature
        :class:`CostModel` gives it.
        """
        if not self._fast.in_sync:
            # Some writer bypassed the engine's update path since the
            # last run (direct allocation moves, out-of-band set_rate):
            # pay one full resync.  Mutations routed through the
            # scheduler's churn/delta APIs keep the engine in sync, so
            # multi-epoch dynamic runs skip this entirely.  Whatever
            # desynced the engine also bypassed the shard fleet.
            self._fast.rebuild()
            self._retire_shard_fleet()
        return self._fast

    def _run_batched(
        self,
        cost_model: CostModel,
        first_holder: int,
        n_iterations: int,
        stop_when_stable: bool,
        record_every_hold: bool,
        event_pump=None,
    ) -> SchedulerReport:
        """Wave-batched rounds over the policy's round-order snapshots,
        the first starting at ``first_holder``.

        The report keeps the per-hold layout — one decision per hold in
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
        rounds = self._rounds_class(
            self._engine, self._fast, profile=self._profile
        )
        cost = cost_model.total_cost(self._allocation, self._traffic)
        report = SchedulerReport(initial_cost=cost, final_cost=cost)
        report.recovered_from = self._recovered_from
        report.time_series.append((self._clock, cost))

        holder = first_holder
        for iteration in range(1, n_iterations + 1):
            order = self._policy.round_order(self._token, holder)
            injector = None
            if event_pump is not None:
                def injector(settled, _start=self._clock):
                    return event_pump(_start + self._interval * settled)

            result = rounds.run_round(order, injector)
            report.decisions.extend(result.decisions)
            # Per-hold cost series, attributed at each migrated hold in
            # visit order (cumulative exact deltas).
            hit = result.decisions.reason == 3
            costs = cost - np.cumsum(
                np.where(hit, result.decisions.delta, 0.0)
            )
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
            holder = self._policy.end_round(self._token, order, self._fast)
            if event_pump is not None and event_pump(self._clock):
                # Boundary events (arrivals join here; departures leave
                # before the next order snapshot).
                cost = float(
                    cost_model.total_cost(self._allocation, self._traffic)
                )
                report.time_series.append((self._clock, cost))
            if stop_when_stable and result.migrations == 0:
                break
        report.final_cost = cost
        report.next_holder = holder
        return report

    def _ensure_shard_fleet(self):
        """The live domain fleet, (re)built when absent or stale.

        The fleet — domains, worker processes, shared-memory slabs —
        persists across :meth:`run` calls until it goes stale: a
        mutation or a reconcile move marks it so, because its domains
        no longer mirror the global state.  A stale fleet is torn down
        only here or in :meth:`close`, never where it went stale.  A
        rebuild seeds the LPT worker packing with the measured
        per-domain solve times of the previous fleet.
        """
        from repro.shard import ShardedCoordinator

        coordinator = self._shard_coordinator
        if coordinator is not None and coordinator.stale:
            self._close_shard_fleet()
            coordinator = None
        if coordinator is None:
            n_pods = int(self._allocation.topology.host_pod_ids().max()) + 1
            n_domains = self._n_domains
            if n_domains is None:
                n_domains = min(16, n_pods)
            coordinator = ShardedCoordinator(
                self._engine,
                self._fast,
                self._policy,
                n_domains=n_domains,
                n_workers=self._n_workers,
                profile=self._profile,
            )
            self._shard_coordinator = coordinator
        return coordinator

    def _retire_shard_fleet(self) -> None:
        """Mark a live fleet stale (see :meth:`_ensure_shard_fleet`)."""
        if self._shard_coordinator is not None:
            self._shard_coordinator.stale = True

    def _close_shard_fleet(self) -> None:
        """Tear the live fleet down."""
        coordinator = self._shard_coordinator
        if coordinator is not None:
            self._shard_coordinator = None
            coordinator.close()

    def close(self) -> None:
        """Release live resources (the sharded worker fleet and slabs).

        Idempotent; non-sharded schedulers have nothing to release.
        The object remains usable — a subsequent sharded run simply
        rebuilds the fleet.
        """
        self._close_shard_fleet()

    def _apply(self, *mutations):
        """Write :mod:`repro.core.mutation` records to the live state, one
        arm per kind, then retire a live fleet (it no longer mirrors the
        global state).  A refused change raises before any write of its
        own.  Returns the last one's result."""
        fast, token = self._fast, self._token
        for mutation in mutations:
            result = None
            if isinstance(mutation, TrafficDelta):
                # One λ write through the engine, which splices the store
                # it binds and shifts its caches (a VM it does not place
                # raises KeyError first); counts the pair changes.
                result = fast.apply_traffic_delta(
                    (mutation.us, mutation.vs, mutation.rates)
                )
            elif isinstance(mutation, Admit):
                # The allocation validates the whole batch before placing;
                # the token then circulates its new id column.
                fast.add_vms(mutation.vms, mutation.hosts)
                token.admit(
                    [vm.vm_id for vm in mutation.vms],
                    self._allocation.columns()[0],
                )
            elif isinstance(mutation, Retire):
                fast.remove_vms(mutation.vm_ids)
                token.retire(mutation.vm_ids, self._allocation.columns()[0])
            elif isinstance(mutation, Capacity):
                self._allocation.set_host_capacity(
                    mutation.host, max_vms=mutation.max_vms,
                    nic_bps=mutation.nic_bps, ram_mb=mutation.ram_mb,
                    cpu=mutation.cpu,
                )
            elif isinstance(mutation, Threshold):
                self._engine.set_bandwidth_threshold(mutation.threshold)
            elif isinstance(mutation, Migrate):
                # A single move is a wave of one.
                fast.apply_moves(
                    fast.dense_indices([mutation.vm_id]), [mutation.target]
                )
            else:
                raise TypeError(f"not a mutation record: {mutation!r}")
        self._retire_shard_fleet()
        return result

    def __getstate__(self):
        # Snapshots pickle the whole scheduler graph; the live fleet
        # (worker processes, pipes, shared-memory slabs) never travels.
        # A restored scheduler rebuilds it lazily at its next run.
        # Profiling belongs to the process that enabled it, not to the
        # run: a resumed run profiles only when asked again.
        state = self.__dict__.copy()
        state["_shard_coordinator"] = None
        state["_profile"] = None
        return state

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
        through the scheduler's mutation APIs, which retire the fleet,
        so the next iteration rebuilds it (the reconcile after the last
        one only re-partitions for the boundary), and each boundary
        re-anchors the cost from the engine's exact total.
        Pipelined look-ahead is disabled while a pump (or
        ``stop_when_stable``) could change what the next iteration is.
        """
        # The global fast engine is authoritative for the whole sharded
        # run (merge and reconcile maintain it move by move), so anchor
        # the report on it too — the naive O(pairs × levels) recompute
        # costs seconds at hyperscale.
        cost = float(self._fast.total_cost())
        report = SchedulerReport(initial_cost=cost, final_cost=cost)
        report.recovered_from = self._recovered_from
        report.time_series.append((self._clock, cost))
        for iteration in range(1, n_iterations + 1):
            coordinator = self._ensure_shard_fleet()
            more_coming = (
                iteration < n_iterations
                and not stop_when_stable
                and event_pump is None
            )
            outcome = coordinator.run_iteration(more_coming)
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
                # Boundary events mutated engine state out-of-band (and
                # retired the fleet); re-anchor from the engine's exact
                # incremental total.
                cost = float(self._fast.total_cost())
                report.time_series.append((self._clock, cost))
            if stop_when_stable and outcome.migrations == 0:
                break
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
        label = coordinator.executor_kind
        if coordinator.n_workers > 1:
            label = f"{label} ×{coordinator.n_workers}"
        if coordinator.executor_fallback:
            label = f"{label} (fallback: {coordinator.executor_fallback})"
        report.shard_executor = label
        report.final_cost = cost
        report.next_holder = self._token.lowest_id
        return report

    def admit_vms(self, vms: Sequence, hosts: Sequence[int]) -> None:
        """Bring one batch of arriving VMs online (an empty batch is a
        no-op).

        The allocation validates the whole batch before placing anything
        (atomic on failure); the fast engine places it and splices its
        dense index in place, so no cold rebuild is paid at the next run.
        Arrivals join with no traffic — route their flows through
        :meth:`apply_traffic_delta` afterwards.
        """
        self._apply(Admit(tuple(vms), np.asarray(hosts, dtype=np.int64)))

    def retire_vms(self, vm_ids: Sequence[int]) -> None:
        """Take one batch of VMs offline (tenant departures).

        Their flows cease (the traffic matrix drops every pair touching
        them), they leave the allocation and the token, and the fast
        engine patches its dense index incrementally.  The token must
        keep at least one entry; duplicate or unknown ids raise before
        anything — λ included — is written.
        """
        ids = [int(v) for v in vm_ids]
        if not ids:
            return
        gone = set(ids)
        if len(gone) != len(ids):
            raise ValueError("duplicate VM IDs in the departure batch")
        if sum(1 for v in gone if v in self._token) >= len(self._token):
            raise ValueError("cannot retire every VM; the token needs a holder")
        missing = [v for v in ids if v not in self._allocation]
        if missing:
            raise KeyError(f"VM {missing[0]} is not placed")
        store = self._traffic.store
        dense, known = store.dense(ids)
        stale = store.pairs_touching(dense[known])
        ends = store.vm_ids[store.pair_u[stale]], store.vm_ids[store.pair_v[stale]]
        # Flows cease first (one λ write, while the engine still knows
        # the VMs), then the population shrinks.
        self._apply(
            TrafficDelta(*ends, np.zeros(len(stale))), Retire(tuple(ids))
        )

    def apply_traffic_delta(self, changed_pairs) -> int:
        """Patch λ for one batch of pairs — the incremental epoch transition.

        ``changed_pairs`` holds ``(vm_u, vm_v, new_rate)`` triples (or a
        ``(us, vs, rates)`` array tuple) with absolute new rates; 0
        removes a pair.  One write: through the fast engine, which
        splices the matrix's store it shares and shifts its caches — so
        the sliding-window re-estimation of §IV costs O(changed pairs).
        A whole new estimate is one such call: its pairs at their new
        rates, and every current pair it lacks at rate 0.
        Returns the number of pair changes applied.
        """
        return self._apply(TrafficDelta(*delta_arrays(changed_pairs)))

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
        out of service — their slot capacity drops to zero via
        :meth:`set_host_capacity`, so no later
        round migrates anything back onto them — until
        :meth:`restore_hosts` brings the saved capacity back.
        """
        drained = set(int(h) for h in hosts)
        topology = self._allocation.topology
        # The probe order depends on the drained host's rack only.
        probe_orders = {}
        moves: List[Tuple[int, int]] = []
        for host in sorted(drained):
            rack = topology.rack_of(host)
            candidates = probe_orders.get(rack)
            if candidates is None:
                order = np.asarray(
                    locality_probe_order(topology, rack), dtype=np.int64
                )
                candidates = probe_orders[rack] = order[
                    ~np.isin(order, list(drained))
                ]
            for vm_id in sorted(self._allocation.vms_on(host)):
                fit = self._allocation.fits(self._allocation.vm(vm_id))[
                    candidates
                ]
                if not fit.any():
                    raise CapacityError(
                        f"drain failed: no feasible host for VM {vm_id}"
                    )
                target = int(candidates[np.argmax(fit)])
                self._apply(Migrate(vm_id, target))
                moves.append((vm_id, target))
        if offline:
            for host in sorted(drained):
                capacity = self._allocation.cluster.capacity(host)
                self._saved_capacity.setdefault(host, capacity)
                self.set_host_capacity(host, max_vms=0)
        return moves

    def restore_hosts(self, hosts: Sequence[int]) -> None:
        """Bring hosts drained with ``offline=True`` back into service.

        Restores each host's saved capacity through the in-place patch —
        the freed hosts become candidate targets again at the next round
        (feasibility is re-probed from the allocation's live usage; scored
        rows need no invalidation).  Hosts that were never taken offline are
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

        :meth:`Allocation.set_host_capacity
        <repro.cluster.allocation.Allocation.set_host_capacity>` checks
        the new size against the host's slot, RAM and CPU usage (shrinking
        below it raises; drain first) and replaces the cluster's capacity
        columns, which the engine reads at each use, so nothing
        rebuilds.  Values left ``None`` keep their current setting.
        """
        self._apply(
            Capacity(int(host), max_vms=max_vms, nic_bps=nic_bps,
                     ram_mb=ram_mb, cpu=cpu)
        )

    def set_bandwidth_threshold(self, threshold: Optional[float]) -> None:
        """Change the §V-C migration-bandwidth budget mid-run.

        Models link contention events (a squeezed budget) and their
        lifting (``None`` or a looser fraction).  The new budget governs
        every decision made after the call; the round cache's scored
        deltas are budget-independent and survive.
        """
        self._apply(Threshold(threshold))
