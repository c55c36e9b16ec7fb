"""Centralized GA approximation of the optimal allocation (paper §VI-A).

"The GA starts with a population of 1,000 individuals representing
densely-packed VM distributions … The crossover operator has been
implemented using edge assembly crossover (EAX), and the replacement of
individuals is based on tournament selection.  Mutation happens by swapping
a random number of VMs between racks.  The GA stops when there is no
significant improvement in communication cost reduction (< 1%) in 10
consecutive generations."

Implementation notes
--------------------
* An individual is a host-assignment vector (one host index per VM); the
  population lives as ONE ``(pop, n_vms)`` int32 matrix so a whole
  generation — tournament selection, EAX-style crossover, capacity repair,
  swap mutation, Eq. 2 scoring and replacement — is numpy end-to-end with
  no per-individual python loop (the :mod:`repro.baselines.population`
  kernels).
* The EAX-style crossover assembles children from the parents' *co-location
  structure*: for each connected component of the traffic graph (a "service"
  whose internal edges are what the allocation should keep local), the child
  inherits the whole component's placement from one parent.  Batched, that
  is one coin matrix per generation expanded through the per-VM component-id
  vector into a boolean inheritance mask.
* Capacity uses the slot limit only, matching the paper's GP reduction
  where all VMs have vertex weight 1 (uniform size).
* The pre-batching per-individual generation survives as
  ``repro.reference.ga_step_reference`` — the differential-test and
  benchmark reference the batched path is pinned against.  The batched
  engine draws its random numbers in matrix-shaped blocks, so the RNG
  stream necessarily differs from the per-individual reference; seeded runs
  remain exactly reproducible against themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.population import (
    apply_swap_mutations,
    owner_host_rate_lookup,
    owner_host_rate_table,
    population_cost,
    population_repair,
    tournament_select,
)
from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.core.fastcost import (
    TrafficSnapshot,
    assignment_cost,
    path_weight_table,
)
from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import make_rng
from repro.util.validation import check_positive, check_probability

#: Dtype of the population matrix; host indices comfortably fit 32 bits and
#: the paper-scale matrix (1,000 x ~35k VMs) halves to ~140 MB.
ASSIGNMENT_DTYPE = np.int32


@dataclass(frozen=True)
class GAConfig:
    """Genetic-algorithm hyper-parameters.

    Defaults are scaled down from the paper's 1,000-individual / 12-hour
    run to laptop budgets; :meth:`paper_scale` restores the published
    values.
    """

    population_size: int = 100
    tournament_k: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    max_mutation_swaps: int = 4
    improvement_threshold: float = 0.01
    patience: int = 10
    max_generations: int = 150
    seed: Optional[int] = None
    #: Population-diversity early stop for full runs: when the relative
    #: fitness spread ``(max − min) / |mean|`` of the population falls
    #: below this, selection pressure is spent and the run ends without
    #: waiting out the <1%/patience window.  0 disables the check.
    diversity_stop: float = 1e-6

    def __post_init__(self) -> None:
        check_positive("population_size", self.population_size)
        if self.tournament_k < 2:
            raise ValueError(f"tournament_k must be >= 2, got {self.tournament_k}")
        check_probability("crossover_rate", self.crossover_rate)
        check_probability("mutation_rate", self.mutation_rate)
        check_positive("max_mutation_swaps", self.max_mutation_swaps)
        check_positive("improvement_threshold", self.improvement_threshold)
        check_positive("patience", self.patience)
        check_positive("max_generations", self.max_generations)
        if self.diversity_stop < 0:
            raise ValueError(
                f"diversity_stop must be >= 0, got {self.diversity_stop}"
            )

    @classmethod
    def paper_scale(cls, seed: Optional[int] = None) -> "GAConfig":
        """The paper's configuration (population 1,000; <1% over 10 gens)."""
        return cls(population_size=1000, max_generations=10_000, seed=seed)


@dataclass
class GAResult:
    """Outcome of a GA run."""

    best_mapping: Dict[int, int]
    best_cost: float
    initial_cost: float
    generations: int
    history: List[float] = field(default_factory=list)

    @property
    def cost_reduction(self) -> float:
        """Fractional improvement over the starting allocation."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.best_cost / self.initial_cost


class GeneticOptimizer:
    """Approximates the optimal allocation by heuristic global search."""

    def __init__(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
        config: GAConfig = GAConfig(),
    ) -> None:
        self._allocation = allocation
        self._traffic = traffic
        self._cost_model = cost_model
        self._config = config
        self._rng = make_rng(config.seed)
        self._topology = cost_model.topology

        # Index spaces: VM ids -> dense indices; hosts are already dense.
        self._vm_ids: List[int] = sorted(allocation.vm_ids())
        self._vm_index = {vm_id: i for i, vm_id in enumerate(self._vm_ids)}
        self._n_vms = len(self._vm_ids)
        self._n_hosts = allocation.cluster.n_servers

        # Shared vectorized cost machinery (repro.core.fastcost): the CSR
        # traffic snapshot, the cached per-host rack/pod vectors and the
        # path-weight table are all the scoring and repair passes need.
        topo = self._topology
        self._rack_of = topo.host_rack_ids()
        self._pod_of = topo.host_pod_ids()
        self._snapshot = TrafficSnapshot.build(traffic, self._vm_ids)
        self._pair_u = self._snapshot.pair_u
        self._pair_v = self._snapshot.pair_v
        self._pair_rate = self._snapshot.pair_rate
        self._path_weight = path_weight_table(
            cost_model.weights, topo.max_level
        )
        self._slots = allocation.cluster.capacity_arrays()[0]
        self._components = self._traffic_components()
        self._n_components = len(self._components)
        self._component_id = np.empty(self._n_vms, dtype=np.int64)
        for cid, members in enumerate(self._components):
            self._component_id[members] = cid
        # Slot sequence for dense packing: host h repeated slots[h] times,
        # with per-host start offsets for rotation to a random first host.
        self._slot_hosts = np.repeat(
            np.arange(self._n_hosts, dtype=ASSIGNMENT_DTYPE), self._slots
        )
        self._slot_offset = np.concatenate(
            [[0], np.cumsum(self._slots)[:-1]]
        )

    # -- fitness ---------------------------------------------------------------

    def cost_of(self, assignment: np.ndarray) -> float:
        """Eq. (2) cost of a host-assignment vector (vectorized).

        The per-individual reference the batched :meth:`population_costs`
        path is differentially tested against.
        """
        return assignment_cost(
            np.asarray(assignment, dtype=np.int64),
            self._snapshot,
            self._rack_of,
            self._pod_of,
            self._path_weight,
        )

    def population_costs(self, population: np.ndarray) -> np.ndarray:
        """Eq. (2) cost of every row of a ``(pop, n_vms)`` matrix."""
        return population_cost(
            population,
            self._snapshot,
            self._rack_of,
            self._pod_of,
            self._path_weight,
        )

    def is_feasible(self, assignment: np.ndarray) -> bool:
        """Slot-capacity feasibility of an assignment vector."""
        counts = np.bincount(assignment, minlength=self._n_hosts)
        return bool(np.all(counts <= self._slots))

    @staticmethod
    def population_diversity(costs: np.ndarray) -> float:
        """Relative fitness spread of the population: (max − min)/|mean|.

        Zero means every individual scores identically — replacement can
        no longer improve anything and full runs may stop early
        (``GAConfig.diversity_stop``).
        """
        mean = float(np.abs(costs).mean())
        if mean == 0.0:
            return 0.0
        return float(costs.max() - costs.min()) / mean

    # -- search -------------------------------------------------------------------

    def run(self) -> GAResult:
        """Run the GA until the paper's stopping rule triggers."""
        config = self._config
        population = self.initial_population()
        costs = self.population_costs(population)
        initial_assignment = self._assignment_from_allocation()
        initial_cost = self.cost_of(initial_assignment)

        history = [float(costs.min())]
        best_cost = float(costs.min())
        best = population[int(costs.argmin())].copy()
        stall = 0
        generation = 0
        for generation in range(1, config.max_generations + 1):
            self.step(population, costs)
            generation_best = float(costs.min())
            if generation_best < best_cost:
                best = population[int(costs.argmin())].copy()
            # Paper stop rule: < threshold relative improvement for
            # `patience` consecutive generations.
            if best_cost - generation_best < config.improvement_threshold * max(
                best_cost, 1e-12
            ):
                stall += 1
            else:
                stall = 0
            best_cost = min(best_cost, generation_best)
            history.append(best_cost)
            if stall >= config.patience:
                break
            if config.diversity_stop and self.population_diversity(
                costs
            ) < config.diversity_stop:
                break

        # Memetic finish: greedy local refinement of the champion (the GA's
        # global search finds the right clusters; the polish snaps each VM
        # to its locally best host, mirroring a converged local search).
        # The batched polish applies one pass of moves against a frozen
        # snapshot of the assignment, so interacting moves can in principle
        # regress; keep the polished copy only when it actually improves.
        polished = best.copy()
        self._greedy_polish(polished, max_passes=10)
        polished_cost = self.cost_of(polished)
        if polished_cost < best_cost:
            best, best_cost = polished, polished_cost
        history.append(best_cost)

        mapping = {
            self._vm_ids[i]: int(best[i]) for i in range(self._n_vms)
        }
        return GAResult(
            best_mapping=mapping,
            best_cost=best_cost,
            initial_cost=initial_cost,
            generations=generation,
            history=history,
        )

    # -- population construction -------------------------------------------------

    def _assignment_from_allocation(self) -> np.ndarray:
        return self._allocation.mapping_arrays(self._vm_ids)[0].astype(
            ASSIGNMENT_DTYPE
        )

    def initial_population(self) -> np.ndarray:
        """Densely-packed individuals (paper §VI-A) + the current allocation.

        Returns the whole population as one ``(pop, n_vms)`` matrix.  Half
        the seeds pack VMs *by traffic component* (communicating services
        land on consecutive hosts — strong locality building blocks), half
        pack a random VM order (diversity); a locally-refined copy of the
        current allocation and of one clustered packing give the search
        strong anchors (memetic seeding).
        """
        pop = self._config.population_size
        population = np.empty((pop, self._n_vms), dtype=ASSIGNMENT_DTYPE)
        population[0] = self._assignment_from_allocation()
        filled = 1
        anchors = []
        if filled < pop:
            anchors.append(self._assignment_from_allocation())
            filled += 1
        if filled < pop:
            anchors.append(self._component_packed_assignment())
            filled += 1
        if anchors:
            # Memetic seeding: polish all anchor rows through one batched
            # multi-row sweep instead of one polish call per anchor.
            anchor_matrix = np.stack(anchors)
            self.polish_population(anchor_matrix, max_passes=10)
            population[1:filled] = anchor_matrix
        for i in range(filled, pop):
            if i % 2 == 0:
                population[i] = self._random_packed_assignment()
            else:
                population[i] = self._component_packed_assignment()
        return population

    def _packed_from_order(self, order: np.ndarray) -> np.ndarray:
        """Assign VMs (in ``order``) to consecutive slots from a random host.

        Keeps each individual dense — VMs fill consecutive hosts — which is
        the paper's seeding strategy and a strong starting point for
        locality.
        """
        start_host = int(self._rng.integers(0, self._n_hosts))
        sequence = np.roll(self._slot_hosts, -int(self._slot_offset[start_host]))
        assignment = np.empty(self._n_vms, dtype=ASSIGNMENT_DTYPE)
        assignment[order] = sequence[: self._n_vms]
        return assignment

    def _random_packed_assignment(self) -> np.ndarray:
        """Pack VMs (in random order) onto hosts starting at a random offset."""
        return self._packed_from_order(self._rng.permutation(self._n_vms))

    def _component_packed_assignment(self) -> np.ndarray:
        """Pack whole traffic components onto consecutive hosts.

        Random per-component and per-VM sort keys realize "shuffle the
        components, shuffle members within each" as one lexsort.
        """
        component_key = self._rng.random(self._n_components)
        vm_key = self._rng.random(self._n_vms)
        order = np.lexsort((vm_key, component_key[self._component_id]))
        return self._packed_from_order(order)

    def _traffic_components(self) -> List[np.ndarray]:
        """Connected components of the traffic graph, as VM-index arrays."""
        parent = list(range(self._n_vms))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in zip(self._pair_u, self._pair_v):
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                parent[ru] = rv
        groups: Dict[int, List[int]] = {}
        for i in range(self._n_vms):
            groups.setdefault(find(i), []).append(i)
        return [np.array(members, dtype=np.int64) for members in groups.values()]

    # -- batched generation --------------------------------------------------------

    def step(self, population: np.ndarray, costs: np.ndarray) -> None:
        """One steady-state generation over the population matrix, in place.

        Breeds ``pop // 2`` offspring — tournament parents, component-mask
        crossover, batched capacity repair, swap mutation — scores them in
        one :func:`repro.baselines.population.population_cost` pass, and
        replaces the losers of reverse tournaments.  Entirely numpy; the
        only python loops are over mutation swap slots (a small constant)
        and repair rounds (three).
        """
        config = self._config
        rng = self._rng
        pop = population.shape[0]
        n_offspring = max(1, pop // 2)
        k = config.tournament_k

        parent_a = tournament_select(
            costs, rng.integers(0, pop, size=(n_offspring, k))
        )
        children = population[parent_a].copy()

        # EAX-style crossover: each crossing child inherits whole traffic
        # components from a second tournament parent under a fair coin.
        crossing = np.nonzero(rng.random(n_offspring) < config.crossover_rate)[0]
        if crossing.size:
            parent_b = tournament_select(
                costs, rng.integers(0, pop, size=(crossing.size, k))
            )
            coin = rng.random((crossing.size, self._n_components)) < 0.5
            take_b = coin[:, self._component_id]
            mixed = np.where(take_b, population[parent_b], children[crossing])
            population_repair(mixed, self._slots, self._rack_of, self._pod_of)
            children[crossing] = mixed

        # Swap mutation (§VI-A).  Swaps permute a row, so per-host counts —
        # and hence feasibility — are untouched: no repair needed after.
        mutating = np.nonzero(rng.random(n_offspring) < config.mutation_rate)[0]
        if mutating.size:
            max_swaps = config.max_mutation_swaps
            n_swaps = rng.integers(1, max_swaps + 1, size=mutating.size)
            swap_pairs = rng.integers(
                0, self._n_vms, size=(mutating.size, max_swaps, 2)
            )
            apply_swap_mutations(children, mutating, swap_pairs, n_swaps)

        # Untouched children are verbatim parent copies: inherit the parent
        # cost and score only the rows crossover or mutation actually moved.
        child_costs = costs[parent_a].copy()
        touched = np.union1d(crossing, mutating)
        if touched.size:
            child_costs[touched] = self.population_costs(children[touched])

        # Replacement by reverse tournament: each child challenges the loser
        # of a tournament over the current population.  Children contending
        # for the same slot are resolved best-first (deterministically), so
        # the batched outcome matches applying the replacements one by one
        # with the strongest claim winning.
        losers = tournament_select(
            costs, rng.integers(0, pop, size=(n_offspring, k)), worst=True
        )
        order = np.lexsort((child_costs, losers))
        losers_sorted = losers[order]
        first_per_slot = np.concatenate(
            [[True], losers_sorted[1:] != losers_sorted[:-1]]
        )
        chosen = order[first_per_slot]
        slots_challenged = losers[chosen]
        better = child_costs[chosen] < costs[slots_challenged]
        population[slots_challenged[better]] = children[chosen[better]]
        costs[slots_challenged[better]] = child_costs[chosen[better]]

    # -- batched local polish --------------------------------------------------------

    def polish_population(
        self, population: np.ndarray, max_passes: int = 3
    ) -> None:
        """Greedy-polish every row of a ``(rows, n_vms)`` matrix at once.

        Runs the per-row sweep of :meth:`_greedy_polish` over all rows
        simultaneously by embedding them as disjoint copies of the
        instance — row ``r``'s VMs live at super-index ``r·n_vms + vm``
        and its hosts at ``r·n_hosts + host``, so one flat sweep polishes
        the whole matrix and rows converge independently.  This is what
        makes the memetic seeding of :meth:`initial_population` one
        batched pass instead of per-anchor loops.
        """
        population = np.asarray(population)
        rows, n_vms = population.shape
        if rows == 1:
            self._greedy_polish(population[0], max_passes=max_passes)
            return
        snap = self._snapshot
        n_hosts, n_racks = self._n_hosts, self._topology.n_racks
        n_pods = int(self._pod_of.max()) + 1 if n_hosts else 1
        n_edges = len(snap.row)
        r = np.arange(rows, dtype=np.int64)
        row_s = (snap.row[None, :] + (r * n_vms)[:, None]).ravel()
        peer_s = (snap.peer[None, :] + (r * n_vms)[:, None]).ravel()
        rate_s = np.tile(snap.rate, rows)
        ptr_s = np.concatenate(
            [(snap.ptr[:-1][None, :] + (r * n_edges)[:, None]).ravel(),
             [rows * n_edges]]
        )
        rack_s = (self._rack_of[None, :] + (r * n_racks)[:, None]).ravel()
        pod_s = (self._pod_of[None, :] + (r * n_pods)[:, None]).ravel()
        slots_s = np.tile(self._slots, rows)
        offsets = (r * n_hosts)[:, None]
        assignment_s = (population.astype(np.int64) + offsets).ravel()
        _greedy_polish_flat(
            assignment_s,
            row_s,
            peer_s,
            rate_s,
            ptr_s,
            rack_s,
            pod_s,
            slots_s,
            n_hosts // n_racks,
            self._path_weight,
            max_passes,
        )
        population[:] = (
            assignment_s.reshape(rows, n_vms) - offsets
        ).astype(population.dtype)

    def _greedy_polish(self, assignment: np.ndarray, max_passes: int = 3) -> None:
        """Move each VM toward its best feasible host near its peers.

        Each pass scores, for every communicating VM at once, every host in
        its peers' racks (one flat candidate × peer expansion over the CSR
        snapshot), then applies the improving moves in descending-gain
        order under the live slot counts.  Scores are computed against the
        pass-start assignment, so a pass is a batched best-response sweep
        rather than the sequential per-VM descent of the pre-batching
        implementation; callers that must not regress compare costs before
        adopting the polished vector.
        """
        snap = self._snapshot
        if snap.row.size == 0:
            return
        out = np.asarray(assignment, dtype=np.int64)
        _greedy_polish_flat(
            out,
            snap.row,
            snap.peer,
            snap.rate,
            snap.ptr,
            self._rack_of,
            self._pod_of,
            self._slots,
            self._n_hosts // self._topology.n_racks,
            self._path_weight,
            max_passes,
        )
        assignment[:] = out.astype(assignment.dtype)


def _greedy_polish_flat(
    assignment: np.ndarray,
    row: np.ndarray,
    peer: np.ndarray,
    rate: np.ndarray,
    ptr: np.ndarray,
    rack_of: np.ndarray,
    pod_of: np.ndarray,
    slots: np.ndarray,
    hosts_per_rack: int,
    path_weight: np.ndarray,
    max_passes: int,
) -> None:
    """One flat greedy-polish sweep over an arbitrary CSR instance.

    The engine behind both :meth:`GeneticOptimizer._greedy_polish` (one
    assignment vector) and :meth:`GeneticOptimizer.polish_population`
    (many rows embedded as disjoint instance copies).  Each pass scores,
    for every communicating VM at once, every host in its peers' racks,
    then applies the improving moves in descending-gain order under the
    live slot counts; passes repeat until no VM moves or ``max_passes``
    is hit.

    Scoring uses the level-hierarchy decomposition (what the wave-batched
    candidate engine uses): for candidate host x of VM u,

    ``Σ_p λ_p·w[l(x,p)] = w3·R_total + (w2−w3)·R_pod(pod_x)
                        + (w1−w2)·R_rack(rack_x) + (w0−w1)·R_host(x)``

    so every candidate costs O(1) gathers against per-owner rate
    aggregates instead of an O(degree) peer expansion — the difference
    between minutes and seconds for the paper-scale memetic seeding.
    """
    if row.size == 0:
        return
    n_hosts = len(slots)
    n_vms = len(ptr) - 1
    n_racks = int(rack_of.max()) + 1
    n_pods = int(pod_of.max()) + 1
    counts = np.bincount(assignment, minlength=n_hosts)
    pw = path_weight
    w3 = pw[3] if len(pw) > 3 else pw[-1]
    w2d, w1d, w0d = pw[2] - w3, pw[1] - pw[2], pw[0] - pw[1]
    total_rate = np.bincount(row, weights=rate, minlength=n_vms)
    per = hosts_per_rack
    #: Owner-chunk size bounding the dense (owners x racks) scatter maps.
    chunk = max(1, 8_000_000 // max(1, n_racks))
    for _pass in range(max_passes):
        peer_host = assignment[peer]
        peer_rack = rack_of[peer_host]
        peer_pod = pod_of[peer_host]
        # Host-level aggregate via the shared sparse (owner, host) table.
        hkeys, hsums = owner_host_rate_table(row, peer_host, rate, n_hosts)

        def r_host(owners, hosts):
            return owner_host_rate_lookup(hkeys, hsums, owners, hosts, n_hosts)

        # Candidates: for every directed edge, the hosts of the peer's
        # rack (the peer's own host included).  Duplicates across edges
        # of one VM only re-derive the same score.
        cand_host = (
            (peer_rack * per)[:, None] + np.arange(per)
        ).ravel()
        cand_owner = np.repeat(row, per)
        score = np.empty(cand_host.size)
        current = np.empty(n_vms)
        # Rack/pod aggregates via chunked dense maps over the owner space;
        # `row` is CSR-ordered, so edge/candidate blocks line up with
        # owner ranges.
        for o_lo in range(0, n_vms, chunk):
            o_hi = min(n_vms, o_lo + chunk)
            e_lo, e_hi = ptr[o_lo], ptr[o_hi]
            local_owner = row[e_lo:e_hi] - o_lo
            e_rate = rate[e_lo:e_hi]
            r_rack = np.bincount(
                local_owner * n_racks + peer_rack[e_lo:e_hi],
                weights=e_rate,
                minlength=(o_hi - o_lo) * n_racks,
            )
            r_pod = np.bincount(
                local_owner * n_pods + peer_pod[e_lo:e_hi],
                weights=e_rate,
                minlength=(o_hi - o_lo) * n_pods,
            )
            c_lo, c_hi = e_lo * per, e_hi * per
            block_host = cand_host[c_lo:c_hi]
            block_owner = cand_owner[c_lo:c_hi]
            score[c_lo:c_hi] = (
                w3 * total_rate[block_owner]
                + w2d * r_pod[(block_owner - o_lo) * n_pods + pod_of[block_host]]
                + w1d
                * r_rack[(block_owner - o_lo) * n_racks + rack_of[block_host]]
                + w0d * r_host(block_owner, block_host)
            )
            # Current per-VM placement cost (Eq. 1 restricted to peers),
            # via the same decomposition at the VM's own host.
            owners = np.arange(o_lo, o_hi)
            cur_host = assignment[o_lo:o_hi]
            current[o_lo:o_hi] = (
                w3 * total_rate[o_lo:o_hi]
                + w2d * r_pod[(owners - o_lo) * n_pods + pod_of[cur_host]]
                + w1d * r_rack[(owners - o_lo) * n_racks + rack_of[cur_host]]
                + w0d * r_host(owners, cur_host)
            )
        # NOTE: `current` at the VM's own host includes intra-host peers at
        # level 0, exactly like a candidate equal to the current host.

        best = np.full(n_vms, np.inf)
        starts = ptr[:-1] * per
        nonempty = ptr[1:] > ptr[:-1]
        if not np.any(nonempty):
            break
        best[nonempty] = np.minimum.reduceat(score, starts[nonempty])
        improving = best < current - 1e-12
        winner_rows = np.nonzero(
            (score <= best[cand_owner]) & improving[cand_owner]
        )[0]
        movers, first_idx = np.unique(
            cand_owner[winner_rows], return_index=True
        )
        targets = cand_host[winner_rows[first_idx]]

        gain_order = np.argsort(
            -(current[movers] - best[movers]), kind="stable"
        )
        moved = 0
        for idx in gain_order:
            vm = int(movers[idx])
            target = int(targets[idx])
            source = int(assignment[vm])
            if target == source or counts[target] >= slots[target]:
                continue
            counts[source] -= 1
            counts[target] += 1
            assignment[vm] = target
            moved += 1
        if moved == 0:
            break
