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

The coordinator also owns the **delta broadcast channel**: the
scheduler's incremental mutations (rate deltas, churn, capacity
changes, threshold changes) are sliced per domain and forwarded to the
live fleet, so multi-epoch scenarios and the service daemon reuse one
fleet instead of rebuilding it every run.  A mutation the fleet cannot
absorb (a VM landing outside every domain, a cross-domain reconcile
move, a whole-matrix swap) marks the coordinator ``stale``; the
scheduler rebuilds it at the next run, seeding the packing with the
measured per-domain solve times.

The global cost is tracked by the global fast engine throughout, so the
coordinator's reported costs are exact (not a per-domain approximation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.shard.domain import ShardDomain
from repro.shard.executor import make_executor
from repro.shard.partition import build_partition
from repro.shard.reconcile import ReconcileOutcome, reconcile_boundary
from repro.traffic.matrix import delta_arrays


@dataclass
class ShardedIteration:
    """One fan-out/merge cycle over every domain."""

    index: int
    visits: int
    migrations: int
    waves: int
    cost_at_end: float
    #: Per-domain decision column blocks (global hosts), id order.
    decision_blocks: List[object] = field(default_factory=list)
    #: Slowest worker's measured solve load over the mean (1.0 = balanced).
    imbalance: float = 1.0


class ShardedCoordinator:
    """Owns the domain fleet across one or more sharded schedules."""

    def __init__(
        self,
        allocation,
        traffic,
        engine,
        fast,
        policy,
        n_domains: int,
        n_workers: int = 1,
        solve_hints: Optional[Dict[int, float]] = None,
        profile=None,
    ) -> None:
        self._allocation = allocation
        self._traffic = traffic
        self._engine = engine
        self._fast = fast
        self._profile = profile
        #: Set when the fleet no longer mirrors the global state; the
        #: scheduler rebuilds a stale coordinator before its next run.
        self.stale = False

        t0 = time.perf_counter()
        self.partition = build_partition(
            allocation, traffic, allocation.topology, n_domains
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
        self.last_imbalance = 1.0

        # Live population bookkeeping for the delta channel: which domain
        # owns each VM (array indexed by id, -1 = unknown) and each host.
        self._population: Dict[int, int] = {
            d.domain_id: d.n_vms for d in self.domains
        }
        max_vm = max(
            (int(v[-1]) for v in self.partition.vms_of_domain if v.size),
            default=0,
        )
        self._domain_of_vm = np.full(max_vm + 1, -1, dtype=np.int64)
        for d, vms in enumerate(self.partition.vms_of_domain):
            self._domain_of_vm[vms] = d
        self._domain_of_host = np.full(
            allocation.topology.n_hosts, -1, dtype=np.int64
        )
        for domain in self.domains:
            self._domain_of_host[domain.global_hosts] = domain.domain_id

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

    def _vm_domain(self, vm_id: int) -> int:
        vm_id = int(vm_id)
        if 0 <= vm_id < len(self._domain_of_vm):
            return int(self._domain_of_vm[vm_id])
        return -1

    def _grow_vm_map(self, max_id: int) -> None:
        if max_id >= len(self._domain_of_vm):
            grown = np.full(max_id + 1, -1, dtype=np.int64)
            grown[: len(self._domain_of_vm)] = self._domain_of_vm
            self._domain_of_vm = grown

    # -- fan out / merge ---------------------------------------------------

    def run_iteration(
        self, index: int, more_coming: bool = False
    ) -> ShardedIteration:
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
        self.last_imbalance = self._measure_imbalance()
        if self._profile is not None:
            self._profile.gauge("shard-imbalance", self.last_imbalance)
        return ShardedIteration(
            index=index,
            visits=sum(self._population.values()),
            migrations=migrations,
            waves=waves,
            cost_at_end=float(self._fast.total_cost()),
            decision_blocks=decision_blocks,
            imbalance=self.last_imbalance,
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

    # -- delta broadcast channel -------------------------------------------
    #
    # Each forward_* slices one global mutation into per-domain ops and
    # ships them to the live fleet.  A ``False`` return means the fleet
    # could not absorb it; the caller must treat the coordinator as
    # stale (rebuild on next run).  All forwards happen between rounds.

    def forward_traffic_delta(self, changed_pairs) -> bool:
        """Route rate deltas (triples or a ``(us, vs, rates)`` array
        tuple) to the domains owning both endpoints.

        Cross-domain pairs are skipped on purpose: no domain matrix ever
        held them, and the reconcile pass re-reads the live global
        traffic.  Pairs with an endpoint outside every domain mark the
        fleet stale.
        """
        us, vs, rates = delta_arrays(changed_pairs)
        if us.size == 0:
            return True
        if int(us.max()) >= len(self._domain_of_vm) or int(
            vs.max()
        ) >= len(self._domain_of_vm):
            return False
        du = self._domain_of_vm[us]
        dv = self._domain_of_vm[vs]
        if bool(((du < 0) | (dv < 0)).any()):
            return False
        intra = du == dv
        ops = []
        for d in np.unique(du[intra]).tolist():
            inside = intra & (du == d)
            ops.append(("traffic", int(d), us[inside], vs[inside],
                        rates[inside]))
        if ops:
            self._executor.apply_delta(ops)
        return True

    def forward_admissions(self, vms, hosts) -> bool:
        """Place arriving VMs into the domains owning their hosts."""
        vms = list(vms)
        hosts = [int(h) for h in hosts]
        domains = [int(self._domain_of_host[h]) for h in hosts]
        if any(d < 0 for d in domains):
            return False
        ops: Dict[int, tuple] = {}
        for vm, host, d in zip(vms, hosts, domains):
            op = ops.setdefault(d, ("admit", d, [], []))
            op[2].append(vm)
            op[3].append(host)
        self._executor.apply_delta(list(ops.values()))
        max_id = max(vm.vm_id for vm in vms)
        self._grow_vm_map(max_id)
        for vm, d in zip(vms, domains):
            self._domain_of_vm[vm.vm_id] = d
            self._population[d] = self._population.get(d, 0) + 1
        return True

    def forward_retirements(self, vm_ids) -> bool:
        """Remove departing VMs from their domains (flows already zeroed)."""
        ids = [int(v) for v in vm_ids]
        domains = [self._vm_domain(v) for v in ids]
        if any(d < 0 for d in domains):
            return False
        ops: Dict[int, tuple] = {}
        for vm_id, d in zip(ids, domains):
            op = ops.setdefault(d, ("retire", d, []))
            op[2].append(vm_id)
        self._executor.apply_delta(list(ops.values()))
        for vm_id, d in zip(ids, domains):
            self._domain_of_vm[vm_id] = -1
            self._population[d] -= 1
        return True

    def forward_capacity(self, host: int, kwargs: dict) -> bool:
        """Resize one host on the domain that owns it."""
        d = int(self._domain_of_host[int(host)])
        if d < 0:
            return False
        self._executor.apply_delta([("capacity", d, int(host), dict(kwargs))])
        return True

    def forward_threshold(self, threshold) -> bool:
        """Broadcast a §V-C budget change to every domain."""
        self._executor.apply_delta([("threshold", None, threshold)])
        return True

    # -- reconcile ---------------------------------------------------------

    def refresh_boundary(self) -> np.ndarray:
        """Boundary VMs recomputed from the live traffic and population."""
        us, vs, _rates = self._traffic.pair_arrays()
        if us.size == 0:
            return np.empty(0, dtype=np.int64)
        limit = len(self._domain_of_vm)
        known = (us < limit) & (vs < limit)
        du = np.where(known, self._domain_of_vm[np.minimum(us, limit - 1)], -1)
        dv = np.where(known, self._domain_of_vm[np.minimum(vs, limit - 1)], -1)
        cross = (du != dv) | (du < 0) | (dv < 0)
        if not bool(cross.any()):
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([us[cross], vs[cross]]))

    def reconcile(self, max_passes: int = 4) -> ReconcileOutcome:
        """Exact global correction over the live cross-domain boundary.

        Moves that stay inside one domain are mirrored back onto its
        long-lived stack; a move that crosses domains leaves the fleet
        stale (the partition itself is then out of date).
        """
        t0 = time.perf_counter()
        outcome = reconcile_boundary(
            self._allocation,
            self._traffic,
            self._engine,
            self._fast,
            self.refresh_boundary(),
            max_passes=max_passes,
            record_moves=True,
        )
        if outcome.moves:
            ops = []
            for vm, _src, tgt in outcome.moves:
                d_vm = self._vm_domain(vm)
                d_tgt = int(self._domain_of_host[int(tgt)])
                if d_vm < 0 or d_vm != d_tgt:
                    self.stale = True
                    ops = []
                    break
                ops.append(("migrate", d_vm, int(vm), int(tgt)))
            if ops:
                self._executor.apply_delta(ops)
        self._lap("reconcile", t0)
        return outcome

    def close(self) -> None:
        self._executor.close()
