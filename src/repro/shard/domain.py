"""One scheduling domain: a compacted sub-cluster with its own engines.

A :class:`ShardDomain` owns a full, independent S-CORE stack — a
renumbered :class:`~repro.topology.tree.CanonicalTree` over just its
pods, a :class:`~repro.cluster.cluster.Cluster`/
:class:`~repro.cluster.allocation.Allocation` mirroring the global
capacities and placement, a :class:`~repro.traffic.matrix.TrafficMatrix`
holding only intra-domain pairs, and its own policy + token +
:class:`~repro.core.fastcost.FastCostEngine` +
:class:`~repro.core.rounds.BatchedRoundEngine`.  Host renumbering is the
whole trick: the dense candidate grids of ``candidate_batch`` are sized
by the *local* rack/host counts, so D domains do ~1/D of the single
engine's grid work between them — the decomposition is a speedup even on
one core, and embarrassingly parallel across workers.

Because pods keep their ascending global order, local host ``i`` is the
``i``-th host of the domain's sorted global host list; rack and pod
adjacency (and therefore every Eq. 1 level and §V-B5 probing order) are
preserved exactly.  On a domain whose traffic is fully confined, the
domain round is *bit-identical* to what the global engine would decide
for those VMs — the differential suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.server import ServerCapacity
from repro.core.cost import CostModel
from repro.core.fastcost import FastCostEngine
from repro.core.migration import MigrationEngine
from repro.core.policies import TokenPolicy
from repro.core.rounds import BatchedRoundEngine, RoundResult
from repro.core.token import Token
from repro.topology.tree import CanonicalTree
from repro.traffic.matrix import TrafficMatrix


@dataclass
class DomainRoundOutcome:
    """What one domain round sends back to the coordinator.

    Hosts are *global* ids throughout — the domain translates on the way
    out so the coordinator (and any fork-pool pipe) never sees local
    numbering.
    """

    domain_id: int
    #: Per-wave applied moves ``(vm_id, source_host, target_host)``.
    wave_moves: List[List[Tuple[int, int, int]]]
    migrations: int
    waves: int
    deferrals: int
    #: Final per-hold decision columns (global hosts); ``None`` when the
    #: domain had no VMs to visit.
    decisions: Optional[object] = None


class ShardDomain:
    """The per-domain stack plus its round runner."""

    def __init__(
        self,
        domain_id: int,
        pods: np.ndarray,
        vm_ids: np.ndarray,
        intra_pairs: Tuple[np.ndarray, np.ndarray, np.ndarray],
        global_allocation: Allocation,
        policy: TokenPolicy,
        migration_cost: float = 0.0,
        bandwidth_threshold: Optional[float] = None,
        max_candidates: Optional[int] = None,
        weights=None,
    ) -> None:
        # A canonical tree (checked once, when the sharded scheduler is
        # built): domains are whole-pod sub-trees of it.
        topology = global_allocation.topology
        self.domain_id = int(domain_id)
        hosts_per_rack = topology.hosts_per_rack
        tors_per_agg = topology.n_racks // topology.n_aggs
        hosts_per_pod = hosts_per_rack * tors_per_agg

        # Global host ids of this domain, ascending (pods are contiguous
        # host ranges, and ascending pods keep the global order).
        pods = np.asarray(pods, dtype=np.int64)
        self.global_hosts = (
            pods[:, None] * hosts_per_pod + np.arange(hosts_per_pod)
        ).reshape(-1)
        n_local = len(self.global_hosts)
        self.local_of_global = {
            int(g): i for i, g in enumerate(self.global_hosts.tolist())
        }
        local_of_global = self.local_of_global

        sub_topology = CanonicalTree(
            n_racks=len(pods) * tors_per_agg,
            hosts_per_rack=hosts_per_rack,
            tors_per_agg=tors_per_agg,
            n_cores=topology.n_cores,
        )
        # Mirror the global per-host capacities (drained hosts included).
        # One shared base capacity plus overrides only where a host
        # deviates — hyperscale clusters are near-uniform, and building
        # tens of thousands of identical ServerCapacity objects per
        # domain fleet dominates the construction profile otherwise.
        slots, ram, cpu, nic = global_allocation.cluster.capacity_arrays()
        g = self.global_hosts
        base = ServerCapacity(
            max_vms=int(slots[g[0]]),
            ram_mb=int(ram[g[0]]),
            cpu=float(cpu[g[0]]),
            nic_bps=float(nic[g[0]]),
        )
        deviants = np.flatnonzero(
            (slots[g] != slots[g[0]])
            | (ram[g] != ram[g[0]])
            | (cpu[g] != cpu[g[0]])
            | (nic[g] != nic[g[0]])
        )
        overrides = {
            int(i): ServerCapacity(
                max_vms=int(slots[g[i]]),
                ram_mb=int(ram[g[i]]),
                cpu=float(cpu[g[i]]),
                nic_bps=float(nic[g[i]]),
            )
            for i in deviants
        }
        cluster = Cluster(sub_topology, base, per_host_capacity=overrides)
        vm_ids = np.asarray(vm_ids, dtype=np.int64)
        if vm_ids.size:
            global_hosts_of_vms, _, _ = global_allocation.mapping_arrays(
                vm_ids
            )
            if np.all(np.diff(self.global_hosts) > 0):
                # The usual case: ascending pods × contiguous per-pod
                # blocks, so a local host id is just the searchsorted
                # position — no per-VM dict probe.
                local_hosts = np.searchsorted(
                    self.global_hosts, global_hosts_of_vms
                )
            else:
                local_hosts = np.fromiter(
                    (
                        local_of_global[int(h)]
                        for h in global_hosts_of_vms.tolist()
                    ),
                    dtype=np.int64,
                    count=len(global_hosts_of_vms),
                )
            self.allocation = Allocation.from_placement(
                cluster,
                global_allocation.vms_of(vm_ids.tolist()),
                local_hosts,
            )
        else:
            self.allocation = Allocation(cluster)
        # Slices of the global pair_arrays are unique and canonical, so
        # the bulk constructor applies.
        self.traffic = TrafficMatrix.from_pair_arrays(
            intra_pairs[0], intra_pairs[1], intra_pairs[2]
        )
        self.policy = policy
        self.token = Token(self.allocation.vm_ids())
        self.engine = MigrationEngine(
            CostModel(sub_topology, weights),
            migration_cost=migration_cost,
            bandwidth_threshold=bandwidth_threshold,
            max_candidates=max_candidates,
        )
        self.fast = FastCostEngine(
            self.allocation, self.traffic, weights=weights
        )
        self.engine.attach_fastcost(self.fast)
        self.rounds = BatchedRoundEngine(
            self.allocation,
            self.traffic,
            self.engine,
            self.fast,
            record_waves=True,
        )
        self.holder: Optional[int] = None
        #: When the delta channel retires the domain's whole population,
        #: the token keeps its last entry (a token cannot be emptied);
        #: the stale id is remembered here and evicted at the next admit.
        self._stale_token_vm: Optional[int] = None
        self._n_intra_pairs = int(len(intra_pairs[0]))
        self._n_local_racks = int(sub_topology.n_racks)
        assert n_local == sub_topology.n_hosts

    def work_estimate(self) -> float:
        """Static solve-cost proxy for LPT worker packing.

        The wave loop's dominant term is candidate scoring: one row per
        intra-domain pair endpoint against a candidate grid whose width
        scales with the local rack count.  Measured ``domain-solve``
        seconds supersede this estimate once a fleet has run
        (:func:`repro.shard.executor.pack_workers` hints).
        """
        return float(max(1, self._n_intra_pairs) * max(1, self._n_local_racks))

    # -- delta channel ------------------------------------------------------
    #
    # Compact per-domain operations the coordinator slices out of the
    # scheduler's global mutations, so a long-lived fleet (possibly in a
    # forked worker) tracks epoch transitions without a rebuild.  Call
    # order mirrors the scheduler's own update paths exactly.

    def apply_traffic(self, us, vs, rates) -> None:
        """Patch λ for intra-domain pairs (both endpoints live here)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        rates = np.asarray(rates, dtype=np.float64)
        if us.size == 0:
            return
        # Engine-side validation first, then the matrix — the same
        # ordering (and version-bump accounting) as the scheduler's
        # apply_traffic_delta.
        applied = self.fast.apply_traffic_delta((us, vs, rates))
        if applied:
            self.traffic.apply_delta(
                list(zip(us.tolist(), vs.tolist(), rates.tolist()))
            )

    def admit(self, vms, global_hosts) -> None:
        """Place arriving VMs (hosts are global ids of this domain)."""
        vms = list(vms)
        local = [self.local_of_global[int(h)] for h in global_hosts]
        self.allocation.add_vms(vms, local)
        for vm in vms:
            if vm.vm_id not in self.token:
                self.token.add_vm(vm.vm_id)
        self.fast.add_vms(vms)
        if self._stale_token_vm is not None:
            stale = self._stale_token_vm
            self._stale_token_vm = None
            if stale not in self.allocation and stale in self.token:
                self.token.remove_vm(stale)

    def retire(self, vm_ids) -> None:
        """Remove departing VMs (their flows were already zeroed)."""
        ids = [int(v) for v in vm_ids if int(v) in self.allocation]
        if not ids:
            return
        self.allocation.remove_vms(ids)
        for vm_id in ids:
            if len(self.token) > 1:
                self.token.remove_vm(vm_id)
            else:
                # A token must keep one entry; leave it stale and let
                # run_round's n_vms == 0 guard skip the empty domain.
                self._stale_token_vm = vm_id
        self.fast.remove_vms(ids)

    def set_capacity(self, global_host: int, kwargs: dict) -> None:
        """Resize one of this domain's hosts in place."""
        self.fast.set_host_capacity(
            self.local_of_global[int(global_host)], **kwargs
        )

    def set_bandwidth_threshold(self, threshold) -> None:
        """Mirror a mid-run §V-C budget change onto the domain engine."""
        self.engine.set_bandwidth_threshold(threshold)
        self.fast.invalidate_round_decisions()

    def apply_migration(self, vm_id: int, global_target: int) -> None:
        """Mirror one reconciliation move that stayed inside the domain."""
        local = self.local_of_global[int(global_target)]
        self.allocation.migrate(int(vm_id), local)
        self.fast.apply_migration(int(vm_id), local)

    @property
    def n_vms(self) -> int:
        return self.allocation.n_vms

    def run_round(self) -> DomainRoundOutcome:
        """One wave-batched token round over this domain's population."""
        if self.allocation.n_vms == 0:
            return DomainRoundOutcome(self.domain_id, [], 0, 0, 0)
        first = (
            self.holder
            if self.holder is not None and self.holder in self.token
            else self.token.lowest_id
        )
        order = self.policy.round_order(
            self.token, first, self.allocation, self.traffic, self.fast
        )
        if order is None:
            raise ValueError(
                f"policy {type(self.policy).__name__} cannot freeze a "
                "round order; sharded domains require an order-known "
                "policy (rr/hlf)"
            )
        result = self.rounds.run_round(order)
        self.holder = self.policy.end_round(
            self.token, order, self.allocation, self.traffic, self.fast
        )
        return DomainRoundOutcome(
            domain_id=self.domain_id,
            wave_moves=[
                self._globalize_wave(wave) for wave in result.wave_moves
            ],
            migrations=result.migrations,
            waves=result.waves,
            deferrals=result.deferrals,
            decisions=self._globalize_decisions(result),
        )

    def _globalize_wave(
        self, wave: List[Tuple[int, int, int]]
    ) -> List[Tuple[int, int, int]]:
        """Translate one wave's (vm, src, tgt) moves to global hosts."""
        if not wave:
            return []
        moves = np.asarray(wave, dtype=np.int64)
        return list(
            zip(
                moves[:, 0].tolist(),
                self.global_hosts[moves[:, 1]].tolist(),
                self.global_hosts[moves[:, 2]].tolist(),
            )
        )

    def _globalize_decisions(self, result: RoundResult):
        """Rewrite the round's decision columns to global host ids."""
        cols = result.decisions
        cols.source = self.global_hosts[cols.source]
        migrated = cols.target >= 0
        cols.target[migrated] = self.global_hosts[cols.target[migrated]]
        return cols
