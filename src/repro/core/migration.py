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
    """Theorem 1's settings (``cm``, the §V-C budget, the candidate cap)
    and the gate that turns scored candidates into decisions.

    Every decision takes the :class:`~repro.core.fastcost.FastCostEngine`
    it scores on as an argument.  The readable per-candidate statement of
    the same decision is :func:`repro.reference.evaluate_naive`.
    """

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
        takes effect for every decision made after the call.  A
        round-score cache needs no notice: its scored deltas do not
        depend on the budget, and every round re-masks §V-C feasibility
        under the budget in force.
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

    def bind(
        self, allocation: Allocation, traffic: TrafficMatrix
    ) -> FastCostEngine:
        """A fast engine over ``allocation`` and ``traffic`` with this
        engine's link weights — what every decision is then scored on.

        Raises ``ValueError`` when the allocation lives on another
        topology instance than the cost model: decisions would be scored
        on one topology while policies and oracles read the other.
        """
        if allocation.topology is not self._cost_model.topology:
            raise ValueError(
                "allocation and cost model disagree on the topology instance"
            )
        return FastCostEngine(
            allocation, traffic, weights=self._cost_model.weights
        )

    # -- decisions ----------------------------------------------------------------

    def decisions_from_batch(
        self, batch: CandidateBatch, fast: FastCostEngine
    ) -> List[MigrationDecision]:
        """Turn one scored :class:`CandidateBatch` into per-VM decisions.

        Applies the current feasibility mask, the first-max tie-breaking
        and the Theorem 1 threshold — decision-for-decision the outcome of
        :func:`repro.reference.evaluate_naive` on each VM against the same
        state (the batch differential suite pins this).  Reasons are
        gain-first: an owner none of whose candidates gains
        (:meth:`FastCostEngine.gaining`) is ``no_gain``, whatever the
        masks say.
        """
        targets = fast.candidate_feasible(batch, self._bandwidth_threshold)
        choice, best_delta, _ = fast.best_candidates(batch, targets)
        unplaced = np.flatnonzero(choice < 0)
        blocked = np.zeros(batch.n_owners, dtype=bool)
        blocked[unplaced] = fast.gaining(batch, unplaced)
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
                batch.vms[rows], targets[choice[rows]]
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
            if blocked[i]:
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
                            vm_id, source, int(targets[row]), delta, False,
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

    def evaluate(self, fast: FastCostEngine, vm_u: int) -> MigrationDecision:
        """Pick the best feasible target for VM u (no mutation).

        Returns a decision with ``migrated=False``; ``target_host`` is the
        chosen target when the Theorem 1 condition is met, else ``None``.
        u is scored on ``fast`` as a one-owner batch — the scorer every
        token round runs.
        """
        batch = fast.candidate_batch(
            fast.dense_indices([vm_u]), self._max_candidates
        )
        return self.decisions_from_batch(batch, fast)[0]

    def decide_and_migrate(
        self, fast: FastCostEngine, vm_u: int
    ) -> MigrationDecision:
        """Evaluate VM u on ``fast`` and move it through the engine, as a
        wave of one, when Theorem 1 holds."""
        decision = self.evaluate(fast, vm_u)
        if decision.target_host is None:
            return decision
        fast.apply_moves(fast.dense_indices([vm_u]), [decision.target_host])
        return decision._replace(migrated=True, reason="migrated")
