"""Oracles: the slow, readable execution paths production is pinned against.

Production has one path per concern.
:class:`~repro.core.scheduler.SCOREScheduler` runs every policy's round
order as wave rounds on the fast engine's round cache, and the batched
kernels (wave planner, GA generation, link routing) are numpy end to end.
The readable versions they replaced survive here, once each:

* :class:`PerHoldScheduler` — the per-hold token loop: it walks the
  policy's round order one Theorem 1 decision per hold and closes the
  round with the policy's ``end_round``; events are pumped at round
  boundaries only.  Hooked in through the scheduler's one round method,
  ``_run_batched``.
* :class:`NaiveScheduler` — the per-hold loop scored on the naive
  :class:`~repro.core.cost.CostModel` (the executable statement of
  Eq. 1–2 and Lemma 3); it scores naively and writes through the
  engine, like every scheduler.
* :func:`evaluate_naive` — the per-VM Theorem 1 decision of §V-B5,
  candidate by candidate: :func:`candidate_hosts` ranks the peers'
  hosts, :func:`feasible` probes capacity and the §V-C budget
  (:func:`bandwidth_feasible` over :func:`host_egress_rate`), and the
  Lemma 3 delta must exceed ``cm``.  The twin of
  :meth:`MigrationEngine.evaluate
  <repro.core.migration.MigrationEngine.evaluate>`, which scores on the
  fast engine's candidate batch.
* :func:`score_rows_reference` / :func:`adjust_rows_reference` — the
  per-host candidate scorer and stale-delta correction, one row per
  candidate host: the twins of the block rows of
  :meth:`FastCostEngine.candidate_batch
  <repro.core.fastcost.FastCostEngine.candidate_batch>` and of the round
  engine's correction, compared through :func:`host_rows`.
* :class:`UncachedScheduler` — wave rounds through the uncached wave
  loop, the twin the round cache is pinned bit-exact against.
* :func:`run_at_boundaries` — an event runner whose due events all
  defer to the next round boundary, the twin of the mid-round pump
  (:meth:`repro.sim.eventqueue.EventQueueRunner.run`).
* :func:`plan_wave_reference` — the greedy interference-free wave
  selection as a python loop (:func:`repro.core.migration.plan_wave`).
* :func:`ga_step_reference` — the per-individual GA generation
  (:meth:`repro.baselines.ga.GeneticOptimizer.step`).
* :func:`loads_reference` / :func:`vm_contributions_reference` — the
  per-pair routing loops (:class:`repro.sim.network.LinkLoadCalculator`).

Only tests and benchmarks import this module; no production module may
(``tests/test_execution_paths.py`` checks the import graph).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.core.fastcost import (
    BLOCK_WIDTH,
    CandidateBatch,
    FastCostEngine,
    path_weight_table,
)
from repro.core.migration import MigrationDecision, MigrationEngine
from repro.core.mutation import Migrate
from repro.core.rounds import BatchedRoundEngine, DecisionColumns, RoundResult
from repro.core.scheduler import IterationStats, SchedulerReport, SCOREScheduler
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.sim.network import _pair_flow_key
from repro.topology.links import LinkId
from repro.traffic.matrix import TrafficMatrix


class PerHoldScheduler(SCOREScheduler):
    """S-CORE's per-hold token loop: the round order without waves.

    Each hold decides through the same cost engine as :meth:`run`; only
    the round batching is bypassed.  The holders are the policy's round
    order, the same as production's, each deciding on the placement
    the holds before it left.
    """

    def __init__(self, *args, use_sharding: bool = False, **kwargs) -> None:
        if use_sharding:
            raise ValueError(
                f"{type(self).__name__} cannot shard: sharded domains run "
                "wave rounds on the fast engine"
            )
        super().__init__(*args, **kwargs)

    def _run_batched(
        self,
        cost_model: CostModel,
        first_holder: int,
        n_iterations: int,
        stop_when_stable: bool,
        record_every_hold: bool,
        event_pump=None,
    ) -> SchedulerReport:
        cost = cost_model.total_cost(self._allocation, self._traffic)
        report = SchedulerReport(initial_cost=cost, final_cost=cost)
        report.recovered_from = self._recovered_from
        report.time_series.append((self._clock, cost))

        holder = first_holder
        for iteration in range(1, n_iterations + 1):
            order = self._policy.round_order(self._token, holder)
            decisions = []
            for vm in order.tolist():
                decision = self._hold(vm)
                decisions.append(decision)
                if decision.migrated:
                    cost -= decision.delta
                self._clock += self._interval
                if decision.migrated or record_every_hold:
                    report.time_series.append((self._clock, cost))
            holder = self._policy.end_round(self._token, order, self._fast)
            block = DecisionColumns.from_decisions(decisions)
            report.decisions.extend(block)
            migrations = block.migrated_count()
            report.iterations.append(
                IterationStats(
                    index=iteration,
                    visits=len(order),
                    migrations=migrations,
                    cost_at_end=cost,
                )
            )
            report.time_series.append((self._clock, cost))
            if event_pump is not None and event_pump(self._clock):
                # Events changed cost out-of-band of the migration deltas.
                cost = float(
                    cost_model.total_cost(self._allocation, self._traffic)
                )
                report.time_series.append((self._clock, cost))
            if stop_when_stable and migrations == 0:
                break

        report.final_cost = cost
        report.next_holder = holder
        return report

    def _hold(self, holder: int) -> MigrationDecision:
        """One Theorem 1 decision, performed when it holds."""
        return self._engine.decide_and_migrate(self._fast, holder)


class NaiveScheduler(PerHoldScheduler):
    """The per-hold loop on the naive :class:`CostModel`: it scores
    naively, writes through the engine.  Every decision and the cost
    anchor run python per-pair math; each move is a
    :class:`~repro.core.mutation.Migrate` like any other write."""

    def _run_batched(self, cost_model: CostModel, *args) -> SchedulerReport:
        return super()._run_batched(self._engine.cost_model, *args)

    def _hold(self, holder: int) -> MigrationDecision:
        decision = evaluate_naive(
            self._engine, self._allocation, self._traffic, holder
        )
        if decision.target_host is None:
            return decision
        self._apply(Migrate(holder, decision.target_host))
        return decision._replace(migrated=True, reason="migrated")


def candidate_hosts(
    engine: MigrationEngine,
    allocation: Allocation,
    traffic: TrafficMatrix,
    vm_u: int,
) -> List[int]:
    """Candidate target servers for VM u, in probing order.

    Peers are ranked highest communication level first (heaviest traffic
    first within a level, §V-B5); each contributes its own server first,
    then the remaining servers of its rack (same level-1 benefit when
    the peer's server itself is full).  ``engine.max_candidates`` caps
    the list.
    """
    source = allocation.server_of(vm_u)
    topo = engine.cost_model.topology
    cap = engine.max_candidates
    ranked = sorted(
        traffic.peer_rates(vm_u).items(),
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
        if cap and len(candidates) >= cap:
            return candidates[:cap]
    return candidates


def host_egress_rate(
    allocation: Allocation, traffic: TrafficMatrix, host: int
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
    engine: MigrationEngine,
    allocation: Allocation,
    traffic: TrafficMatrix,
    vm_u: int,
    target_host: int,
) -> bool:
    """§V-C check: target NIC load after the move stays under
    ``engine.bandwidth_threshold`` of its line rate."""
    threshold = engine.bandwidth_threshold
    if threshold is None:
        return True
    capacity = allocation.cluster.capacity(target_host).nic_bps
    load = host_egress_rate(allocation, traffic, target_host)
    # After the move, u's flows to VMs already on the target become
    # intra-host (drop off the NIC); the rest are added to it.
    incoming = 0.0
    for peer, rate in traffic.peer_rates(vm_u).items():
        if allocation.server_of(peer) == target_host:
            load -= rate
        else:
            incoming += rate
    return load + incoming <= threshold * capacity


def feasible(
    engine: MigrationEngine,
    allocation: Allocation,
    traffic: TrafficMatrix,
    vm_u: int,
    target_host: int,
) -> bool:
    """Capacity (§V-B5) plus bandwidth (§V-C) feasibility of a move."""
    if not allocation.can_host(target_host, allocation.vm(vm_u)):
        return False
    return bandwidth_feasible(engine, allocation, traffic, vm_u, target_host)


def evaluate_naive(
    engine: MigrationEngine,
    allocation: Allocation,
    traffic: TrafficMatrix,
    vm_u: int,
) -> MigrationDecision:
    """S-CORE's per-VM decision (§V-B5, Theorem 1) over the naive cost
    model, candidate by candidate (no mutation).

    Returns a decision with ``migrated=False``; ``target_host`` is the
    best feasible candidate when its Lemma 3 delta exceeds
    ``engine.migration_cost``, else ``None``.  Reasons are gain-first:
    with no candidate of delta > 0, feasible or not, the VM is
    ``no_gain``; ``no_feasible_target`` means some candidate would gain
    but none fits.
    """
    source = allocation.server_of(vm_u)
    if not traffic.peers_of(vm_u):
        return MigrationDecision(vm_u, source, None, 0.0, False, "no_peers")
    best_host: Optional[int] = None
    best_delta = 0.0
    saw_candidate = saw_gain = False
    for host in candidate_hosts(engine, allocation, traffic, vm_u):
        delta = engine.cost_model.migration_delta(
            allocation, traffic, vm_u, host
        )
        saw_gain = saw_gain or delta > 0
        if not feasible(engine, allocation, traffic, vm_u, host):
            continue
        saw_candidate = True
        if delta > best_delta:
            best_delta = delta
            best_host = host
    if best_host is not None and best_delta > engine.migration_cost:
        return MigrationDecision(
            vm_u, source, best_host, best_delta, False, "beneficial"
        )
    blocked = saw_gain and not saw_candidate
    reason = "no_feasible_target" if blocked else "no_gain"
    return MigrationDecision(vm_u, source, None, best_delta, False, reason)


def host_rows(batch: CandidateBatch):
    """A candidate batch expanded to one row per candidate host, each
    owner's in probing order: ``(owner, host, delta, onto, row)`` arrays,
    ``row`` being the batch row that covers the host."""
    row = np.repeat(np.arange(batch.n_rows), BLOCK_WIDTH)
    offset = np.tile(np.arange(BLOCK_WIDTH), batch.n_rows)
    covered = (batch.cover[row] >> offset.astype(np.uint64)) & np.uint64(1)
    row, offset = row[covered == 1], offset[covered == 1]
    owner = batch.owner[row]
    order = np.lexsort((batch.rank[row] + offset, owner))
    onto = batch.onto_rate if len(batch.onto_rate) else np.zeros(batch.n_rows)
    row = row[order]
    return (
        owner[order],
        batch.host[row].astype(np.int64) + offset[order],
        batch.delta[row],
        onto[row],
        row,
    )


def _level(rack_of, pod_of, a: int, b: int) -> int:
    return (
        3 - int(pod_of[a] == pod_of[b]) - int(rack_of[a] == rack_of[b])
        - int(a == b)
    )


def score_rows_reference(
    fast: FastCostEngine,
    dense_vms: Sequence[int],
    max_candidates: Optional[int] = None,
):
    """The per-host candidate scorer, owner by owner: ``(owner, host,
    delta, onto)`` of every (owner, candidate host) in probing order (the
    :func:`candidate_hosts` order, capped), owners none of whose
    candidates gains dropped.

    Each delta is ``Eq. 1 restricted to the owner's peers`` minus the
    post-move sum, the latter decomposed over the level hierarchy
    (``w3·R_total + (w2−w3)·R_pod + (w1−w2)·R_rack``, plus
    ``(w0−w1)·R_host`` on a host that holds peers) with every aggregate
    summed over the ranked peers in rank order — the float chain of
    :meth:`FastCostEngine.candidate_batch`, which must expand
    (:func:`host_rows`) to these rows bit for bit.
    """
    snap = fast.snapshot
    host_of = fast.allocation.columns()[1]
    topology = fast.topology
    rack_of, pod_of = topology.host_rack_ids(), topology.host_pod_ids()
    pw = [float(w) for w in path_weight_table(fast.weights, topology.max_level)]
    w3 = pw[3] if len(pw) > 3 else pw[-1]
    w2d, w1d, w0d = pw[2] - w3, pw[1] - pw[2], pw[0] - pw[1]
    per = topology.n_hosts // topology.n_racks
    out = ([], [], [], [])
    for position, dense in enumerate(dense_vms):
        source = int(host_of[dense])
        lo, hi = int(snap.ptr[dense]), int(snap.ptr[dense + 1])
        peers = [
            (
                _level(rack_of, pod_of, source, int(host_of[snap.peer[e]])),
                float(snap.rate[e]),
                e,
                int(host_of[snap.peer[e]]),
            )
            for e in range(lo, hi)
        ]
        # Level desc, rate desc, peer id asc (CSR order).
        peers.sort(key=lambda p: (-p[0], -p[1], p[2]))
        total = local = 0.0
        r_pod: Dict[int, float] = {}
        r_rack: Dict[int, float] = {}
        on_host: Dict[int, List[float]] = {}
        for level, rate, _e, peer_host in peers:
            total += rate
            local += rate * pw[level]
            pod, rack = int(pod_of[peer_host]), int(rack_of[peer_host])
            r_pod[pod] = r_pod.get(pod, 0.0) + rate
            r_rack[rack] = r_rack.get(rack, 0.0) + rate
            on_host.setdefault(peer_host, []).append(rate)
        seen = {source}
        hosts: List[int] = []
        for _level_, _rate, _e, peer_host in peers:
            rack = int(rack_of[peer_host])
            for host in [peer_host, *range(rack * per, (rack + 1) * per)]:
                if host not in seen:
                    seen.add(host)
                    hosts.append(host)
        if max_candidates:
            hosts = hosts[:max_candidates]
        rows = []
        for host in hosts:
            base = (
                w3 * total
                + w2d * r_pod[int(pod_of[host])]
                + w1d * r_rack[int(rack_of[host])]
            )
            if host in on_host:
                # Co-hosted peers' rates sum as one segment reduction.
                onto = float(np.add.reduceat(np.array(on_host[host]), [0])[0])
                rows.append((host, local - (base + w0d * onto), onto))
            else:
                rows.append((host, local - base, 0.0))
        if any(delta > 0 for _h, delta, _o in rows):
            for host, delta, onto in rows:
                for column, value in zip(out, (position, host, delta, onto)):
                    column.append(value)
    return tuple(
        np.array(column, dtype=dtype)
        for column, dtype in zip(out, (np.int64, np.int64, float, float))
    )


def adjust_rows_reference(
    fast: FastCostEngine,
    batch: CandidateBatch,
    rows,
    moved: np.ndarray,
    old_hosts: np.ndarray,
    new_hosts: np.ndarray,
):
    """The per-host stale-delta correction of one wave, row by row:
    ``(delta, onto)`` of the per-host ``rows`` (:func:`host_rows` of
    ``batch``) after the ``moved`` peers went from ``old_hosts`` to
    ``new_hosts``.  A row gains ``λ·(w[l(src, new)] − w[l(src, old)])``
    summed over the owner's moved peers (CSR order), less the same terms
    at the row's host over the peers whose old or new host shares its pod,
    and its landing rate ``λ`` per peer landing on it (less per peer
    leaving it): the float chain of the round engine's adjustment."""
    snap = fast.snapshot
    topology = fast.topology
    rack_of, pod_of = topology.host_rack_ids(), topology.host_pod_ids()
    pw = [float(w) for w in path_weight_table(fast.weights, topology.max_level)]
    where = {
        int(v): (int(o), int(n)) for v, o, n in zip(moved, old_hosts, new_hosts)
    }
    owner, host, delta, onto = rows[:4]
    delta, onto = delta.copy(), onto.copy()
    for i in range(len(owner)):
        o = int(owner[i])
        vm, source, x = int(batch.vms[o]), int(batch.source[o]), int(host[i])
        lo, hi = int(snap.ptr[vm]), int(snap.ptr[vm + 1])
        moves = [
            (float(snap.rate[e]),) + where[int(snap.peer[e])]
            for e in range(lo, hi)
            if int(snap.peer[e]) in where
        ]
        if not moves:
            continue
        src_adjust = cand = landing = 0.0
        for rate, old, new in moves:
            src_adjust += rate * (
                pw[_level(rack_of, pod_of, source, new)]
                - pw[_level(rack_of, pod_of, source, old)]
            )
            if pod_of[x] in (pod_of[new], pod_of[old]):
                cand += rate * (
                    pw[_level(rack_of, pod_of, x, new)]
                    - pw[_level(rack_of, pod_of, x, old)]
                )
                landing += rate * (float(new == x) - float(old == x))
        delta[i] = delta[i] + (src_adjust - cand)
        onto[i] = onto[i] + landing
    return delta, onto


class _UncachedRounds(BatchedRoundEngine):
    def run_round(self, order, injector=None) -> RoundResult:
        """Every order, full or partial, scores a round-local batch in
        visit order: the round cache is never consulted."""
        fast = self._fast
        batch = fast.candidate_batch(
            fast.dense_indices(order), self._engine.max_candidates
        )
        positions = np.arange(len(order), dtype=np.int64)
        return self._run_batch(order, batch, positions, injector)


class UncachedScheduler(SCOREScheduler):
    """S-CORE whose wave rounds always score a round-local candidate
    batch: no round cache, the same wave loop."""

    _rounds_class = _UncachedRounds


def run_oracle(cls, config: ExperimentConfig) -> SchedulerReport:
    """``run_experiment(config).report``, on oracle scheduler ``cls``.

    The stack is the one :func:`~repro.sim.experiment.make_scheduler`
    wires for ``config``, re-hosted on ``cls``, so an oracle run always
    compares against the configuration production would run.
    """
    wired = make_scheduler(build_environment(config))
    scheduler = cls(
        wired.allocation,
        wired.traffic,
        wired._policy,
        wired._engine,
        token_interval_s=wired.token_interval_s,
        use_sharding=wired._use_sharding,
        n_domains=wired._n_domains,
        n_workers=wired._n_workers,
    )
    return scheduler.run(n_iterations=config.n_iterations)


def run_at_boundaries(
    runner, n_iterations: int = 5, **kwargs
) -> List[SchedulerReport]:
    """Drive ``runner`` with every due event deferred to the nearest
    round boundary: one scheduler run per iteration, pumping between
    them.  Same events, same total simulated time as
    :meth:`EventQueueRunner.run <repro.sim.eventqueue.EventQueueRunner.run>`
    — only the injection granularity differs."""
    reports: List[SchedulerReport] = []
    for _ in range(n_iterations):
        runner.pump(runner.scheduler.clock)
        reports.append(runner.scheduler.run(n_iterations=1, **kwargs))
    runner.pump(runner.scheduler.clock)
    return reports


def plan_wave_reference(
    sources: Sequence[int],
    targets: Sequence[int],
    peers: Sequence[Sequence[int]],
    vms: Sequence[int],
) -> List[bool]:
    """Greedy interference-free wave selection, as a readable loop.

    Scans proposed migrations in order and accepts each one whose source
    host, target host and VM are untouched by every previously accepted
    move — where "touched" means sharing a source/target host with it or
    being one of its communication peers.  The vectorized
    :func:`~repro.core.migration.plan_wave` must select exactly this set.
    """
    used_hosts: set = set()
    blocked_vms: set = set()
    accepted: List[bool] = []
    for vm, src, tgt, vm_peers in zip(vms, sources, targets, peers):
        if vm in blocked_vms or src in used_hosts or tgt in used_hosts:
            accepted.append(False)
            continue
        accepted.append(True)
        used_hosts.add(src)
        used_hosts.add(tgt)
        blocked_vms.update(vm_peers)
    return accepted


def ga_step_reference(
    ga,
    population: np.ndarray,
    costs: np.ndarray,
    n_offspring: Optional[int] = None,
) -> None:
    """The pre-batching per-individual generation of
    :class:`~repro.baselines.ga.GeneticOptimizer` ``ga``, in place.

    Same operators as the batched ``ga.step``, as python loops over
    individuals and traffic components, drawing from ``ga``'s own
    generator.  ``n_offspring`` trims the brood (benchmarks time a sample
    and extrapolate); defaults to the production ``pop // 2``.
    """
    config = ga._config
    pop = population.shape[0]
    if n_offspring is None:
        n_offspring = max(1, pop // 2)
    offspring: List[np.ndarray] = []
    for _ in range(n_offspring):
        a = _ga_tournament(ga, costs)
        if ga._rng.random() < config.crossover_rate:
            b = _ga_tournament(ga, costs)
            child = _ga_crossover(ga, population[a], population[b])
        else:
            child = population[a].copy()
        if ga._rng.random() < config.mutation_rate:
            _ga_mutate(ga, child)
            _ga_repair(ga, child)
        offspring.append(child)
    offspring_costs = np.array([ga.cost_of(ind) for ind in offspring])
    # Replacement by reverse tournament: offspring replace the losers of
    # tournaments over the current population.
    for child, child_cost in zip(offspring, offspring_costs):
        contenders = ga._rng.integers(0, pop, size=config.tournament_k)
        loser = int(contenders[np.argmax(costs[contenders])])
        if child_cost < costs[loser]:
            population[loser] = child
            costs[loser] = child_cost


def _ga_tournament(ga, costs: np.ndarray) -> int:
    """Index of the tournament winner (lowest cost)."""
    contenders = ga._rng.integers(0, len(costs), size=ga._config.tournament_k)
    return int(contenders[np.argmin(costs[contenders])])


def _ga_crossover(ga, parent_a: np.ndarray, parent_b: np.ndarray) -> np.ndarray:
    """EAX-style: inherit whole traffic components from either parent."""
    child = parent_a.copy()
    for component in ga._components:
        if ga._rng.random() < 0.5:
            child[component] = parent_b[component]
    _ga_repair(ga, child)
    return child


def _ga_mutate(ga, individual: np.ndarray) -> None:
    """Swap a random number of VMs between racks (paper §VI-A)."""
    n_swaps = int(ga._rng.integers(1, ga._config.max_mutation_swaps + 1))
    for _ in range(n_swaps):
        i, j = ga._rng.integers(0, ga._n_vms, size=2)
        individual[i], individual[j] = individual[j], individual[i]


def _ga_repair(ga, assignment: np.ndarray) -> None:
    """Move VMs off over-capacity hosts to the nearest free host."""
    slots, rack_of, pod_of = ga._slots, ga._rack_of, ga._pod_of
    counts = np.bincount(assignment, minlength=ga._n_hosts)
    for host in np.where(counts > slots)[0]:
        excess = int(counts[host] - slots[host])
        for vm in np.where(assignment == host)[0][:excess]:
            # Prefer a host in the same rack, then same pod, then any.
            free = counts < slots
            same_rack = free & (rack_of == rack_of[host])
            same_pod = free & (pod_of == pod_of[host])
            target = next(
                int(np.flatnonzero(pool)[0])
                for pool in (same_rack, same_pod, free)
                if pool.any()
            )
            assignment[vm] = target
            counts[host] -= 1
            counts[target] += 1


def loads_reference(calculator, allocation, traffic) -> Dict[LinkId, float]:
    """:meth:`LinkLoadCalculator.loads
    <repro.sim.network.LinkLoadCalculator.loads>` as the readable
    per-pair routing loop: every pair's flowlets through
    ``Topology.path_links`` one at a time."""
    loads: Dict[LinkId, float] = {}
    topo = calculator.topology
    k = calculator.flowlets
    for u, v, rate in traffic.pairs():
        base_key = _pair_flow_key(u, v)
        share = rate / k
        for sub in range(k):
            path = topo.path_links(
                allocation.server_of(u),
                allocation.server_of(v),
                flow_key=base_key + sub * 0x9E3779B9,
            )
            for link in path:
                loads[link] = loads.get(link, 0.0) + share
    return loads


def vm_contributions_reference(
    calculator, allocation, traffic, link_id: LinkId
) -> Dict[int, float]:
    """One link's slice of :meth:`LinkLoadCalculator.vm_contributions_many
    <repro.sim.network.LinkLoadCalculator.vm_contributions_many>` as the
    readable per-pair routing loop."""
    topo = calculator.topology
    contributions: Dict[int, float] = {}
    for u, v, rate in traffic.pairs():
        path = topo.path_links(
            allocation.server_of(u),
            allocation.server_of(v),
            flow_key=_pair_flow_key(u, v),
        )
        if link_id in path:
            contributions[u] = contributions.get(u, 0.0) + rate
            contributions[v] = contributions.get(v, 0.0) + rate
    return contributions
