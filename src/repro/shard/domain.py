"""One scheduling domain: a compacted sub-cluster with its own engines.

A :class:`ShardDomain` owns a full, independent S-CORE stack — a
renumbered :class:`~repro.topology.tree.CanonicalTree` over just its
pods, a :class:`~repro.cluster.cluster.Cluster`/
:class:`~repro.cluster.allocation.Allocation` mirroring the global
capacities and placement, a :class:`~repro.traffic.matrix.TrafficMatrix`
holding only intra-domain pairs, and its own policy + token +
:class:`~repro.core.fastcost.FastCostEngine` +
:class:`~repro.core.rounds.BatchedRoundEngine`.  Host renumbering keeps
every array a domain's engine sizes by hosts or racks local; the
candidate rows themselves (one per (owner, peer host) and per (owner,
peer rack)) do not depend on the rack count, so on one core the
decomposition pays only where the waves it splits are large, and the
domains are embarrassingly parallel across workers.

Because pods keep their ascending global order, local host ``i`` is the
``i``-th host of the domain's sorted global host list; rack and pod
adjacency (and therefore every Eq. 1 level and §V-B5 probing order) are
preserved exactly.  On a domain whose traffic is fully confined, the
domain round is *bit-identical* to what the global engine would decide
for those VMs — the differential suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.core.migration import MigrationEngine
from repro.core.policies import TokenPolicy
from repro.core.rounds import BatchedRoundEngine, DecisionColumns
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
    #: Final per-hold decision columns (global hosts); the migrated
    #: rows, grouped by their ``wave``, are the round's applied waves.
    decisions: DecisionColumns
    migrations: int
    waves: int


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
        sub_topology = CanonicalTree(
            n_racks=len(pods) * tors_per_agg,
            hosts_per_rack=hosts_per_rack,
            tors_per_agg=tors_per_agg,
            n_cores=topology.n_cores,
        )
        # Mirror the global per-host capacities (drained hosts included).
        cluster = global_allocation.cluster.subset(
            sub_topology, self.global_hosts
        )
        # A partition never builds an empty domain.
        vm_ids = np.asarray(vm_ids, dtype=np.int64)
        global_hosts_of_vms, _, _ = global_allocation.mapping_arrays(vm_ids)
        # Ascending pods × contiguous per-pod blocks: a local host id is
        # the searchsorted position.
        local_hosts = np.searchsorted(self.global_hosts, global_hosts_of_vms)
        self.allocation = global_allocation.subset(
            cluster, vm_ids, local_hosts
        )
        # Slices of the global pair_arrays are unique and canonical, so
        # the bulk constructor applies; the engine binds its store.
        self.traffic = TrafficMatrix.from_pair_arrays(
            intra_pairs[0], intra_pairs[1], intra_pairs[2]
        )
        self.policy = policy
        self.token = Token(self.allocation.columns()[0])
        self.engine = MigrationEngine(
            CostModel(sub_topology, weights),
            migration_cost=migration_cost,
            bandwidth_threshold=bandwidth_threshold,
            max_candidates=max_candidates,
        )
        self.fast = self.engine.bind(self.allocation, self.traffic)
        self.rounds = BatchedRoundEngine(self.engine, self.fast)
        self.holder: Optional[int] = None
        self._n_intra_pairs = int(len(intra_pairs[0]))
        assert len(self.global_hosts) == sub_topology.n_hosts

    def work_estimate(self) -> float:
        """Static solve-cost proxy for LPT worker packing: the domain's
        intra-domain pair count.  A domain's candidate rows, and so its
        scoring and wave work, grow with its pairs, not with its rack
        count (:func:`repro.shard.executor.pack_workers`).
        """
        return float(max(1, self._n_intra_pairs))

    @property
    def n_vms(self) -> int:
        return self.allocation.n_vms

    def run_round(self) -> DomainRoundOutcome:
        """One wave-batched token round over this domain's population."""
        first = self.holder if self.holder is not None else self.token.lowest_id
        order = self.policy.round_order(self.token, first)
        result = self.rounds.run_round(order)
        self.holder = self.policy.end_round(self.token, order, self.fast)
        return DomainRoundOutcome(
            domain_id=self.domain_id,
            decisions=self._globalize_decisions(result.decisions),
            migrations=result.migrations,
            waves=result.waves,
        )

    def _globalize_decisions(self, cols: DecisionColumns) -> DecisionColumns:
        """Rewrite the round's decision columns to global host ids."""
        cols.source = self.global_hosts[cols.source]
        migrated = cols.target >= 0
        cols.target[migrated] = self.global_hosts[cols.target[migrated]]
        return cols
