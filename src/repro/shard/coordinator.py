"""The sharded run coordinator: partition, fan out, merge, reconcile.

One :class:`ShardedCoordinator` drives sharded schedules against the
scheduler's *global* state:

1. **Partition** the population into pod-aligned domains from the live
   traffic matrix (:mod:`repro.shard.partition`).
2. **Build** each domain's compacted stack (:mod:`repro.shard.domain`)
   and an executor over them (:mod:`repro.shard.executor`) — workers
   packed by LPT over per-domain work estimates.
3. Per iteration, **fan out** one round to every domain and **merge**
   each domain's waves into the global allocation and fast engine *as
   the domain's outcome arrives*, in ascending domain-id order (the
   canonical merge order every executor reproduces, so serial and
   parallel runs apply bit-identical move sequences).  A domain's
   waves are its migrated decisions grouped by their ``wave`` column,
   replayed in the order the domain applied them; each is one
   interference-free :meth:`~repro.core.fastcost.FastCostEngine.apply_moves`
   call, so the global incremental cost stays exact move for move.  With a process
   executor the merge is **pipelined**: early domains merge while later
   domains still solve, and (when another iteration is known to follow)
   workers start round ``k+1`` the moment their round-``k`` frames are
   decoded.
4. After the last iteration, **reconcile** the cross-domain edge set
   with exact Theorem-1 passes over the partition's boundary VMs
   (:mod:`repro.shard.reconcile`).

A fleet serves run after run only while nothing changes under it: any
mutation through the scheduler, and a reconcile that moved a VM, mark
it ``stale``.  The scheduler tears a stale fleet down at its next run
(or ``close()``) and rebuilds it from the global state.

The global cost is tracked by the global fast engine throughout, so the
coordinator's reported costs are exact (not a per-domain approximation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.shard.domain import ShardDomain
from repro.shard.executor import make_executor
from repro.shard.partition import build_partition
from repro.shard.reconcile import ReconcileOutcome, reconcile_boundary


@dataclass
class ShardedIteration:
    """One fan-out/merge cycle over every domain."""

    visits: int
    migrations: int
    waves: int
    cost_at_end: float
    #: Per-domain decision column blocks (global hosts), id order.
    decision_blocks: List[object] = field(default_factory=list)


class ShardedCoordinator:
    """Owns the domain fleet across one or more sharded schedules."""

    def __init__(
        self,
        engine,
        fast,
        policy,
        n_domains: int,
        n_workers: int = 1,
        profile=None,
    ) -> None:
        self._engine = engine
        self._fast = fast
        self._profile = profile
        self._n_domains = n_domains
        #: Set when the fleet no longer mirrors the global state; the
        #: scheduler rebuilds a stale coordinator before its next run.
        self.stale = False

        allocation = fast.allocation
        self.partition = self._partition()

        t0 = time.perf_counter()
        self.domains: List[ShardDomain] = [
            ShardDomain(
                domain_id=d,
                pods=self.partition.pods_of_domain[d],
                vm_ids=self.partition.vms_of_domain[d],
                intra_pairs=self.partition.intra_pairs[d],
                global_allocation=allocation,
                policy=policy.spawn(),
                migration_cost=engine.migration_cost,
                bandwidth_threshold=engine.bandwidth_threshold,
                max_candidates=engine.max_candidates,
                weights=engine.cost_model.weights,
            )
            for d in range(self.partition.n_domains)
        ]
        self._lap("domain-build", t0)
        self._executor = make_executor(self.domains, n_workers)

    # -- executor surface --------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self._executor.n_workers

    @property
    def executor_kind(self) -> str:
        return self._executor.kind

    @property
    def executor_fallback(self) -> Optional[str]:
        return self._executor.fallback_reason

    def _partition(self):
        """Partition the live global state into pod-aligned domains."""
        allocation = self._fast.allocation
        t0 = time.perf_counter()
        partition = build_partition(
            allocation, self._fast.traffic, allocation.topology,
            self._n_domains,
        )
        self._lap("partition", t0)
        return partition

    def _lap(self, phase: str, t0: float) -> None:
        if self._profile is not None:
            self._profile.add(phase, time.perf_counter() - t0)

    # -- fan out / merge ---------------------------------------------------

    def run_iteration(self, more_coming: bool = False) -> ShardedIteration:
        """Fan one round out to every domain and merge the moves back.

        Outcomes stream in ascending domain-id order and merge as they
        arrive; ``more_coming=True`` additionally lets workers start the
        next round as soon as their frames are posted (only legal when
        the caller knows another iteration follows unconditionally).
        """
        t_start = time.perf_counter()
        merge_s = 0.0
        migrations = 0
        waves = 0
        decision_blocks: List[object] = []
        for outcome in self._executor.run_all(more_coming):
            t0 = time.perf_counter()
            self._merge_waves(outcome.decisions)
            migrations += outcome.migrations
            waves = max(waves, outcome.waves)
            decision_blocks.append(outcome.decisions)
            merge_s += time.perf_counter() - t0
        total_s = time.perf_counter() - t_start
        if self._profile is not None:
            self._profile.add("merge", merge_s)
            self._profile.add("domain-solve", max(0.0, total_s - merge_s))
            self._profile.gauge("shard-imbalance", self._measure_imbalance())
        return ShardedIteration(
            visits=self._fast.allocation.n_vms,
            migrations=migrations,
            waves=waves,
            cost_at_end=float(self._fast.total_cost()),
            decision_blocks=decision_blocks,
        )

    def _merge_waves(self, cols) -> None:
        """Replay one domain round on the global engine: the
        ``apply_moves`` calls the domain made, one per wave
        (:meth:`~repro.core.rounds.DecisionColumns.waves`)."""
        for rows in cols.waves():
            self._fast.apply_moves(
                self._fast.dense_indices(cols.vm[rows]), cols.target[rows]
            )

    def _measure_imbalance(self) -> float:
        """Slowest worker's measured solve seconds over the mean."""
        solve = self._executor.solve_seconds
        loads = [
            sum(solve.get(d, 0.0) for d in ids)
            for ids in self._executor.domains_of_worker
        ]
        mean = sum(loads) / len(loads) if loads else 0.0
        return max(loads) / mean if mean > 0 else 1.0

    # -- reconcile ---------------------------------------------------------

    def reconcile(self, max_passes: int = 4) -> ReconcileOutcome:
        """Exact global correction over the live boundary VMs.

        The fleet's rounds move VMs only inside their domains, so its
        partition still sees the live boundary — unless a mutation came
        after the last round and left the fleet stale.  Then a fresh
        partition of the global state supplies the boundary; the fleet
        is not rebuilt for it.  A move leaves the fleet stale: the
        domains no longer mirror the global placement.
        """
        partition = self._partition() if self.stale else self.partition
        t0 = time.perf_counter()
        outcome = reconcile_boundary(
            self._engine,
            self._fast,
            partition.boundary_vms,
            max_passes=max_passes,
        )
        if outcome.migrations:
            self.stale = True
        self._lap("reconcile", t0)
        return outcome

    def close(self) -> None:
        self._executor.close()
