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
   parallel runs apply bit-identical move sequences).  Waves from
   different domains touch disjoint host sets, so each merged wave
   satisfies the interference-free contract of
   :meth:`~repro.core.fastcost.FastCostEngine.apply_moves` and the
   global incremental cost stays exact move for move.  With a process
   executor the merge is **pipelined**: early domains merge while later
   domains still solve, and (when another iteration is known to follow)
   workers start round ``k+1`` the moment their round-``k`` frames are
   decoded.
4. After the last iteration, **reconcile** the cross-domain edge set
   with exact Theorem-1 passes over the boundary VMs
   (:mod:`repro.shard.reconcile`), recomputed from the *live* traffic
   and population, and mirror the moves that stayed inside one domain
   back onto its long-lived stack.

The coordinator also owns the **mutation channel**: :meth:`forward`
routes the scheduler's :mod:`repro.core.mutation` values (rate deltas,
churn, capacity and threshold changes, in-domain reconcile moves) over
the partition maps and ships the per-domain slices to the live fleet,
so multi-epoch scenarios and the service daemon reuse one fleet instead
of rebuilding it every run.  A mutation the fleet cannot absorb (a VM
landing outside every domain, a cross-domain reconcile move) marks the
coordinator ``stale``; the scheduler rebuilds it at the next run,
seeding the packing with the measured per-domain solve times.

The global cost is tracked by the global fast engine throughout, so the
coordinator's reported costs are exact (not a per-domain approximation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.mutation import Migrate, Mutation, lookup
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
        solve_hints: Optional[Dict[int, float]] = None,
        profile=None,
    ) -> None:
        self._engine = engine
        self._fast = fast
        self._profile = profile
        #: Set when the fleet no longer mirrors the global state; the
        #: scheduler rebuilds a stale coordinator before its next run.
        self.stale = False

        allocation = fast.allocation
        t0 = time.perf_counter()
        self.partition = build_partition(
            allocation, fast.traffic, allocation.topology, n_domains
        )
        self._lap("partition", t0)

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
        self._executor = make_executor(
            self.domains, n_workers, hints=solve_hints
        )

        # The partition maps mutations route over: the domain of each
        # host and of each VM id (-1 = none).
        self._domain_of_host = self.partition.domain_of_pod[
            allocation.topology.host_pod_ids()
        ]
        ids, hosts = allocation.columns()[:2]
        self._domain_of_vm = np.full(int(ids[-1]) + 1, -1, dtype=np.int64)
        self._domain_of_vm[ids] = self._domain_of_host[hosts]

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

    @property
    def solve_hints(self) -> Dict[int, float]:
        """Measured per-domain solve seconds (packing hints on rebuild)."""
        return dict(self._executor.solve_seconds)

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
            for wave in outcome.wave_moves:
                if not wave:
                    continue
                vm_src_tgt = np.array(wave, dtype=np.int64)
                self._fast.apply_moves(
                    self._fast.dense_indices(vm_src_tgt[:, 0]),
                    vm_src_tgt[:, 2],
                )
            migrations += outcome.migrations
            waves = max(waves, outcome.waves)
            if outcome.decisions is not None:
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

    def _measure_imbalance(self) -> float:
        """Slowest worker's measured solve seconds over the mean."""
        solve = self._executor.solve_seconds
        loads = [
            sum(solve.get(d, 0.0) for d in ids)
            for ids in self._executor.domains_of_worker
        ]
        mean = sum(loads) / len(loads) if loads else 0.0
        return max(loads) / mean if mean > 0 else 1.0

    # -- mutation channel --------------------------------------------------

    def forward(self, *mutations: Mutation) -> bool:
        """Route mutations to the domains they touch and ship them in one
        batch (between rounds only).  ``False``, with nothing shipped and
        the fleet stale, when one has a VM or host outside every domain
        or moves a VM across domains (the partition is then outdated)."""
        routed = []
        for mutation in mutations:
            parts = mutation.route(self._domain_of_vm, self._domain_of_host)
            if parts is None:
                self.stale = True
                return False
            routed.extend(parts)
            self._domain_of_vm = mutation.relabel(
                self._domain_of_vm, self._domain_of_host
            )
        if routed:
            self._executor.apply(routed)
        return True

    # -- reconcile ---------------------------------------------------------

    def refresh_boundary(self) -> np.ndarray:
        """Boundary VMs recomputed from the live traffic and population."""
        us, vs, _rates = self._fast.traffic.pair_arrays()
        du, dv = lookup(self._domain_of_vm, us), lookup(self._domain_of_vm, vs)
        cross = (du != dv) | (du < 0)
        return np.unique(np.concatenate([us[cross], vs[cross]]))

    def reconcile(self, max_passes: int = 4) -> ReconcileOutcome:
        """Exact global correction over the live cross-domain boundary.

        Moves that stay inside one domain are mirrored back onto its
        long-lived stack; a move that crosses domains leaves the fleet
        stale (the partition itself is then out of date).
        """
        t0 = time.perf_counter()
        outcome = reconcile_boundary(
            self._engine,
            self._fast,
            self.refresh_boundary(),
            max_passes=max_passes,
            record_moves=True,
        )
        self.forward(
            *(Migrate(int(vm), int(tgt)) for vm, _src, tgt in outcome.moves)
        )
        self._lap("reconcile", t0)
        return outcome

    def close(self) -> None:
        self._executor.close()
