"""Migration decision logic: Theorem 1 plus target search (§V-B5, §V-C).

When a VM holds the token, its hypervisor:

1. ranks the VM's communication peers from highest to lowest communication
   level (heaviest rate first within a level) — these peers' servers, and
   the other servers in their racks, are the candidate targets;
2. "probes" each candidate for capacity (free VM slot + RAM, §V-B5) and for
   the operator's link-load threshold (§V-C);
3. computes the Lemma 3 cost delta for each feasible candidate and migrates
   to the best one iff the delta exceeds the migration cost ``cm``
   (Theorem 1).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.core.fastcost import CandidateBatch, FastCostEngine
from repro.traffic.matrix import TrafficMatrix
from repro.util.validation import check_non_negative


def plan_wave(
    sources: np.ndarray,
    targets: np.ndarray,
    mover_vms: np.ndarray,
    peer_ptr: np.ndarray,
    peer_flat: np.ndarray,
    n_hosts: int,
    n_vms: int,
) -> np.ndarray:
    """Vectorized greedy wave selection over proposed migrations.

    Inputs are per-proposal arrays in visit order (``mover_vms`` holds
    *dense* VM indices; ``peer_ptr``/``peer_flat`` a CSR view of each
    mover's peers, also dense).  Returns the boolean acceptance mask of
    ``repro.reference.plan_wave_reference``: a maximal in-order subset in
    which no two accepted moves share a source host, a target host, or a
    communication peer relation.  The peer relation must be *symmetric* (undirected
    traffic, as in :class:`repro.traffic.matrix.TrafficMatrix`) — the
    round-based implementation checks it from the later mover's side and
    equals the reference only under that symmetry.

    Works in rounds: every proposal that is the *earliest* claimant of
    both its hosts among the still-eligible proposals is host-safe (any
    conflicting proposal has a larger index), so only the peer rule needs
    the short sequential sweep over that round's winners.
    """
    n = len(sources)
    accepted = np.zeros(n, dtype=bool)
    if n == 0:
        return accepted
    alive = np.ones(n, dtype=bool)
    host_used = np.zeros(n_hosts, dtype=bool)
    vm_blocked = np.zeros(n_vms, dtype=bool)
    index = np.arange(n)
    while True:
        eligible = (
            alive
            & ~host_used[sources]
            & ~host_used[targets]
            & ~vm_blocked[mover_vms]
        )
        rows = index[eligible]
        if rows.size == 0:
            break
        first_claim = np.full(n_hosts, n, dtype=np.int64)
        np.minimum.at(first_claim, sources[rows], rows)
        np.minimum.at(first_claim, targets[rows], rows)
        winners = rows[
            (first_claim[sources[rows]] == rows)
            & (first_claim[targets[rows]] == rows)
        ]
        progressed = False
        for i in winners:
            vm = mover_vms[i]
            if vm_blocked[vm]:
                continue
            accepted[i] = True
            alive[i] = False
            host_used[sources[i]] = True
            host_used[targets[i]] = True
            vm_blocked[peer_flat[peer_ptr[i] : peer_ptr[i + 1]]] = True
            progressed = True
        if not progressed:
            break
    return accepted


class MigrationDecision(NamedTuple):
    """Outcome of one token-hold decision.

    ``delta`` is the network-wide cost reduction of the chosen (or best
    rejected) move; ``migrated`` records whether the move was performed;
    ``reason`` explains why not, when it wasn't.  A ``NamedTuple`` rather
    than a dataclass: token rounds mint one decision per hold (tens of
    thousands per paper-scale iteration), and tuple construction is ~2.5×
    cheaper than a frozen dataclass while staying immutable and
    field-compatible.
    """

    vm_id: int
    source_host: int
    target_host: Optional[int]
    delta: float
    migrated: bool
    reason: str

    @property
    def improved(self) -> bool:
        """Whether this decision reduced the network-wide cost."""
        return self.migrated and self.delta > 0


class MigrationEngine:
    """Evaluates and (optionally) executes S-CORE migrations."""

    def __init__(
        self,
        cost_model: CostModel,
        migration_cost: float = 0.0,
        bandwidth_threshold: Optional[float] = None,
        max_candidates: Optional[int] = None,
    ) -> None:
        """
        Parameters
        ----------
        cost_model:
            The communication-cost model (topology + link weights).
        migration_cost:
            The paper's ``cm``: a move happens only when the cost reduction
            strictly exceeds it.  The paper sets 0 for the GA comparison and
            sweeps other values.
        bandwidth_threshold:
            Optional fraction of a target server's NIC capacity that its
            post-migration egress load may not exceed (§V-C); ``None``
            disables the check.
        max_candidates:
            Optional cap on the number of candidate servers probed per
            decision (bounds per-token-hold work on dense VMs).
        """
        check_non_negative("migration_cost", migration_cost)
        if bandwidth_threshold is not None and not 0 < bandwidth_threshold <= 1:
            raise ValueError(
                f"bandwidth_threshold must be in (0, 1], got {bandwidth_threshold}"
            )
        if max_candidates is not None and max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
        self._cost_model = cost_model
        self._migration_cost = migration_cost
        self._bandwidth_threshold = bandwidth_threshold
        self._max_candidates = max_candidates
        self._fastcost: Optional[FastCostEngine] = None

    @property
    def cost_model(self) -> CostModel:
        """The cost model used for deltas."""
        return self._cost_model

    @property
    def migration_cost(self) -> float:
        """The migration (overhead) cost ``cm``."""
        return self._migration_cost

    @property
    def bandwidth_threshold(self) -> Optional[float]:
        """The §V-C link-load threshold in force (None = disabled)."""
        return self._bandwidth_threshold

    def set_bandwidth_threshold(self, threshold: Optional[float]) -> None:
        """Change the §V-C link-load budget mid-run (None disables it).

        Models migration-bandwidth contention events: a squeezed budget
        takes effect for every decision made after the call.  Callers
        holding a round-score cache must also drop its carried decisions
        (:meth:`repro.core.fastcost.FastCostEngine
        .invalidate_round_decisions`) — the scheduler-level setter does.
        """
        if threshold is not None and not 0 < threshold <= 1:
            raise ValueError(
                f"bandwidth_threshold must be in (0, 1], got {threshold}"
            )
        self._bandwidth_threshold = threshold

    @property
    def max_candidates(self) -> Optional[int]:
        """Cap on probed candidate servers per decision (None = unlimited)."""
        return self._max_candidates

    @property
    def fastcost(self) -> Optional[FastCostEngine]:
        """The attached vectorized engine, if any."""
        return self._fastcost

    def attach_fastcost(self, engine: Optional[FastCostEngine]) -> None:
        """Attach (or detach, with ``None``) a vectorized cost engine.

        When the engine is bound to the (allocation, traffic) pair a call
        operates on, :meth:`evaluate` scores the VM through the engine's
        batched candidate scorer and :meth:`decide_and_migrate` moves the
        VM through the engine, which keeps its caches in step; other
        calls take the naive per-pair path.
        """
        if engine is not None and engine.topology is not self._cost_model.topology:
            raise ValueError(
                "fast engine and cost model disagree on the topology instance"
            )
        self._fastcost = engine

    # -- candidate generation ----------------------------------------------------

    def candidate_hosts(
        self, allocation: Allocation, traffic: TrafficMatrix, vm_u: int
    ) -> List[int]:
        """Candidate target servers for VM u, in probing order.

        Peers are ranked highest communication level first (heaviest traffic
        first within a level, §V-B5); each contributes its own server first,
        then the remaining servers of its rack (same level-1 benefit when
        the peer's server itself is full).
        """
        source = allocation.server_of(vm_u)
        topo = self._cost_model.topology
        peer_rates = traffic.peer_rates(vm_u)
        ranked = sorted(
            peer_rates.items(),
            key=lambda item: (
                -topo.level_between(source, allocation.server_of(item[0])),
                -item[1],
                item[0],
            ),
        )
        seen = {source}
        candidates: List[int] = []
        for peer, _rate in ranked:
            peer_host = allocation.server_of(peer)
            if peer_host not in seen:
                seen.add(peer_host)
                candidates.append(peer_host)
            for host in topo.hosts_in_rack(topo.rack_of(peer_host)):
                if host not in seen:
                    seen.add(host)
                    candidates.append(host)
            if self._max_candidates and len(candidates) >= self._max_candidates:
                return candidates[: self._max_candidates]
        return candidates

    # -- feasibility ----------------------------------------------------------------

    def host_egress_rate(
        self, allocation: Allocation, traffic: TrafficMatrix, host: int
    ) -> float:
        """Aggregate rate crossing ``host``'s NIC (bytes/second).

        Sums λ between each VM on the host and each of its peers placed
        elsewhere; intra-host traffic never touches the NIC.
        """
        total = 0.0
        for vm_id in allocation.vms_on(host):
            for peer, rate in traffic.peer_rates(vm_id).items():
                if allocation.server_of(peer) != host:
                    total += rate
        return total

    def bandwidth_feasible(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        vm_u: int,
        target_host: int,
    ) -> bool:
        """§V-C check: target NIC load after the move stays under threshold."""
        if self._bandwidth_threshold is None:
            return True
        capacity = allocation.cluster.server(target_host).capacity.nic_bps
        budget = self._bandwidth_threshold * capacity
        load = self.host_egress_rate(allocation, traffic, target_host)
        # After the move, u's flows to VMs already on the target become
        # intra-host (drop off the NIC); the rest are added to it.
        incoming = 0.0
        for peer, rate in traffic.peer_rates(vm_u).items():
            if allocation.server_of(peer) == target_host:
                load -= rate
            else:
                incoming += rate
        return load + incoming <= budget

    def feasible(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        vm_u: int,
        target_host: int,
    ) -> bool:
        """Capacity (§V-B5) plus bandwidth (§V-C) feasibility of a move."""
        vm = allocation.vm(vm_u)
        if not allocation.can_host(target_host, vm):
            return False
        return self.bandwidth_feasible(allocation, traffic, vm_u, target_host)

    # -- decision -----------------------------------------------------------------------

    def evaluate(
        self, allocation: Allocation, traffic: TrafficMatrix, vm_u: int
    ) -> MigrationDecision:
        """Pick the best feasible target for VM u (no mutation).

        Returns a decision with ``migrated=False``; ``target_host`` is the
        chosen target when the Theorem 1 condition is met, else ``None``.
        With an attached engine bound to this (allocation, traffic) pair,
        u is scored as a one-owner batch — the scorer every token round
        runs; otherwise by the naive per-candidate loop.
        """
        fast = self._fastcost
        if fast is not None and fast.is_bound_to(allocation, traffic):
            batch = fast.candidate_batch(
                fast.dense_indices([vm_u]), self._max_candidates
            )
            return self.decisions_from_batch(batch, fast)[0]
        return self._evaluate_naive(allocation, traffic, vm_u)

    def _evaluate_naive(
        self, allocation: Allocation, traffic: TrafficMatrix, vm_u: int
    ) -> MigrationDecision:
        """:meth:`evaluate` over the naive cost model, candidate by candidate."""
        source = allocation.server_of(vm_u)
        if not traffic.peers_of(vm_u):
            return MigrationDecision(
                vm_id=vm_u,
                source_host=source,
                target_host=None,
                delta=0.0,
                migrated=False,
                reason="no_peers",
            )
        best_host: Optional[int] = None
        best_delta = 0.0
        saw_candidate = False
        for host in self.candidate_hosts(allocation, traffic, vm_u):
            if not self.feasible(allocation, traffic, vm_u, host):
                continue
            saw_candidate = True
            delta = self._cost_model.migration_delta(
                allocation, traffic, vm_u, host
            )
            if delta > best_delta:
                best_delta = delta
                best_host = host
        if best_host is not None and best_delta > self._migration_cost:
            return MigrationDecision(
                vm_id=vm_u,
                source_host=source,
                target_host=best_host,
                delta=best_delta,
                migrated=False,
                reason="beneficial",
            )
        reason = "no_gain" if saw_candidate else "no_feasible_target"
        return MigrationDecision(
            vm_id=vm_u,
            source_host=source,
            target_host=None,
            delta=best_delta,
            migrated=False,
            reason=reason,
        )

    # -- batch decisions (wave-batched token rounds) -----------------------------

    def decisions_from_batch(
        self, batch: CandidateBatch, fast: FastCostEngine
    ) -> List[MigrationDecision]:
        """Turn one scored :class:`CandidateBatch` into per-VM decisions.

        Applies the current feasibility mask, the first-max tie-breaking
        and the Theorem 1 threshold — decision-for-decision the outcome of
        the naive per-VM loop on each VM against the same state (the
        batch differential suite pins this).
        """
        feasible = fast.candidate_feasible(batch, self._bandwidth_threshold)
        choice, best_delta, _ = fast.best_candidates(batch, feasible)
        # Theorem 1's strict inequality is decided on the exact per-peer
        # delta of each tentative winner (the batch scores with the
        # aggregated level-hierarchy formula, which can differ in the last
        # ulp); the exact value is also what gets reported.
        tentative = (
            (choice >= 0) & (best_delta > 0) & (best_delta > self._migration_cost)
        )
        rows = np.nonzero(tentative)[0]
        exact = np.zeros(batch.n_owners)
        if rows.size:
            exact[rows] = fast.exact_deltas(
                batch.vms[rows], batch.host[choice[rows]]
            )
        decisions: List[MigrationDecision] = []
        for i in range(batch.n_owners):
            vm_id = int(fast.snapshot.vm_ids[batch.vms[i]])
            source = int(batch.source[i])
            if batch.degree[i] == 0:
                decisions.append(
                    MigrationDecision(vm_id, source, None, 0.0, False, "no_peers")
                )
                continue
            row = int(choice[i])
            if row < 0:
                decisions.append(
                    MigrationDecision(
                        vm_id, source, None, 0.0, False, "no_feasible_target"
                    )
                )
                continue
            if tentative[i]:
                delta = float(exact[i])
                if delta > 0 and delta > self._migration_cost:
                    decisions.append(
                        MigrationDecision(
                            vm_id, source, int(batch.host[row]), delta, False,
                            "beneficial",
                        )
                    )
                    continue
            decisions.append(
                MigrationDecision(
                    vm_id,
                    source,
                    None,
                    max(0.0, float(exact[i]) if tentative[i] else float(best_delta[i])),
                    False,
                    "no_gain",
                )
            )
        return decisions

    def decide_and_migrate(
        self, allocation: Allocation, traffic: TrafficMatrix, vm_u: int
    ) -> MigrationDecision:
        """Evaluate VM u and perform the migration when Theorem 1 holds."""
        decision = self.evaluate(allocation, traffic, vm_u)
        if decision.target_host is None:
            return decision
        fast = self._fastcost
        if fast is not None and fast.is_bound_to(allocation, traffic):
            fast.apply_migration(vm_u, decision.target_host)
        else:
            allocation.migrate(vm_u, decision.target_host)
        return MigrationDecision(
            vm_id=decision.vm_id,
            source_host=decision.source_host,
            target_host=decision.target_host,
            delta=decision.delta,
            migrated=True,
            reason="migrated",
        )
