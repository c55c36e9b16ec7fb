"""Exact optimal VM allocation by branch-and-bound (tiny instances only).

The paper proves OVMA is NP-complete (Appendix), so exhaustive search is
hopeless at DC scale — but on instances of a dozen VMs it is tractable and
gives the *true* optimum.  The test suite uses it to sandwich the other
components: ``exact <= GA <= S-CORE-final <= initial`` must always hold,
which catches both a broken GA (worse than local search should be) and a
broken S-CORE (migrating above the provable floor).

Search: VMs are placed one by one (heaviest total traffic first — fails
fast); the running cost counts each pair as soon as both endpoints are
placed, which is an admissible lower bound because pair costs are
non-negative.  Symmetric branches are pruned by never opening more than
one *fresh* (so-far-empty) host per level of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.traffic.matrix import TrafficMatrix

#: Refuse instances bigger than this — the point is exactness, not scale.
MAX_VMS = 12
MAX_HOSTS = 12


@dataclass
class ExactResult:
    """The provably optimal allocation of a tiny instance."""

    best_mapping: Dict[int, int]
    best_cost: float
    nodes_explored: int


class ExactOptimizer:
    """Branch-and-bound solver for the Optimal VM Allocation problem."""

    def __init__(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> None:
        n_vms = allocation.n_vms
        n_hosts = allocation.cluster.n_servers
        if n_vms > MAX_VMS:
            raise ValueError(
                f"exact search is limited to {MAX_VMS} VMs, got {n_vms}"
            )
        if n_hosts > MAX_HOSTS:
            raise ValueError(
                f"exact search is limited to {MAX_HOSTS} hosts, got {n_hosts}"
            )
        self._allocation = allocation
        self._traffic = traffic
        self._model = cost_model
        topo = cost_model.topology
        self._path_weight = [
            cost_model.weights.path_weight(level)
            for level in range(topo.max_level + 1)
        ]
        self._topology = topo
        # Order VMs by descending total traffic so heavy edges bind early.
        self._vm_ids: List[int] = sorted(
            allocation.vm_ids(), key=lambda v: -traffic.vm_load(v)
        )
        self._slots = allocation.cluster.capacity_arrays()[0].tolist()
        # Adjacency among *earlier-placed* VMs only.
        index = {vm: i for i, vm in enumerate(self._vm_ids)}
        self._earlier_peers: List[List[Tuple[int, float]]] = [
            [] for _ in self._vm_ids
        ]
        for u, v, rate in traffic.pairs():
            if u in index and v in index:
                i, j = index[u], index[v]
                later, earlier = (i, j) if i > j else (j, i)
                self._earlier_peers[later].append((earlier, rate))

    def run(self) -> ExactResult:
        """Exhaustively find the minimum-cost feasible allocation."""
        n_hosts = len(self._slots)
        placement: List[int] = [-1] * len(self._vm_ids)
        used = [0] * n_hosts
        best = {
            "cost": float("inf"),
            "placement": None,
            "nodes": 0,
        }

        def recurse(position: int, cost_so_far: float) -> None:
            best["nodes"] += 1
            if cost_so_far >= best["cost"]:
                return
            if position == len(self._vm_ids):
                best["cost"] = cost_so_far
                best["placement"] = list(placement)
                return
            # Two still-empty hosts in the same rack (with equal slots) are
            # interchangeable: only branch on the first of each such class.
            tried_fresh: List[int] = []
            for host in range(n_hosts):
                if used[host] >= self._slots[host]:
                    continue
                fresh = used[host] == 0
                if fresh:
                    if self._same_shape_fresh_tried(host, tried_fresh):
                        continue
                    tried_fresh.append(host)
                added = 0.0
                for earlier, rate in self._earlier_peers[position]:
                    level = self._topology.level_between(
                        host, placement[earlier]
                    )
                    added += rate * self._path_weight[level]
                used[host] += 1
                placement[position] = host
                recurse(position + 1, cost_so_far + added)
                used[host] -= 1
                placement[position] = -1

        recurse(0, 0.0)
        assert best["placement"] is not None
        mapping = {
            vm_id: best["placement"][i] for i, vm_id in enumerate(self._vm_ids)
        }
        return ExactResult(
            best_mapping=mapping,
            best_cost=best["cost"],
            nodes_explored=best["nodes"],
        )

    def _same_shape_fresh_tried(self, host: int, tried: List[int]) -> bool:
        """Whether an interchangeable fresh host was already branched on."""
        topo = self._topology
        for other in tried:
            if (
                topo.rack_of(other) == topo.rack_of(host)
                and self._slots[other] == self._slots[host]
            ):
                return True
        return False
