"""Wave-batched token rounds: interference properties and differentials.

Pins the three contracts of :mod:`repro.core.rounds`:

* **Interference rule** — no two migrations applied in one wave share a
  source host, a destination host, or a communication-peer relation
  (checked on *live* waves recorded by the engine, plus the standalone
  wave planner against its readable reference).
* **Exactness** — every applied delta is exact at application time: the
  incrementally tracked final cost of a batched run equals a from-scratch
  recomputation, the cost series is monotone under ``cm = 0``, and
  capacity invariants hold throughout.
* **Differential vs the sequential loop** — when no decisions interact
  the batched round reproduces the per-hold oracle
  (``repro.reference.PerHoldScheduler``) decision for decision;
  on the matched-seed battery below (both topologies × both order-known
  policies, converged with ``stop_when_stable``) the batched final cost
  is never worse than the reference's.  Individual greedy trajectories
  can land in different local optima in either direction on adversarial
  instances — the battery's measured margins are listed beside it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Allocation,
    CanonicalTree,
    Cluster,
    CostModel,
    DCTrafficGenerator,
    DENSE,
    FatTree,
    MigrationEngine,
    PlacementManager,
    RoundRobinPolicy,
    SCOREScheduler,
    SPARSE,
    ServerCapacity,
    TrafficMatrix,
    place_random,
)
from repro.core.fastcost import FastCostEngine
from repro.core.migration import plan_wave
from repro.core.policies import HighestLevelFirstPolicy
from repro.core.rounds import BatchedRoundEngine
from repro.reference import (
    PerHoldScheduler,
    evaluate_naive,
    plan_wave_reference,
)


def build_scenario(seed, fattree=False, scale=1, pattern=SPARSE, fill=0.85):
    """Random cluster + traffic; ``scale=1`` is test-sized, 4 is battery-sized."""
    if fattree:
        topology = FatTree(k=4 if scale == 1 else 6)
    else:
        topology = CanonicalTree(
            n_racks=8 * scale, hosts_per_rack=4, tors_per_agg=4, n_cores=2
        )
    cluster = Cluster(
        topology, ServerCapacity(max_vms=8, ram_mb=8192, cpu=8.0)
    )
    manager = PlacementManager(cluster)
    n_vms = int(cluster.total_vm_slots * fill)
    vms = manager.create_vms(n_vms, ram_mb=512, cpu=0.5)
    allocation = place_random(cluster, vms, seed=seed)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], pattern, seed=seed
    ).generate()
    return topology, allocation, traffic


def run_batched_round(allocation, traffic, model, **engine_kw):
    """One wave-batched round (RR order) over a fresh engine stack."""
    engine = MigrationEngine(model, **engine_kw)
    fast = FastCostEngine(allocation, traffic, weights=model.weights)
    rounds = BatchedRoundEngine(engine, fast)
    return rounds.run_round(sorted(allocation.vm_ids()))


def waves_of(decisions):
    """Per wave (``DecisionColumns.waves``), the migrated holds'
    ``(vm_id, source_host, target_host)`` triples."""
    return [
        list(
            zip(
                decisions.vm[rows].tolist(),
                decisions.source[rows].tolist(),
                decisions.target[rows].tolist(),
            )
        )
        for rows in decisions.waves()
    ]


class TestWaveDisjointness:
    """No two migrations in one live wave interfere."""

    @pytest.mark.parametrize("fattree", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_waves_are_interference_free(self, seed, fattree):
        topology, allocation, traffic = build_scenario(seed, fattree)
        model = CostModel(topology)
        result = run_batched_round(allocation.copy(), traffic, model)
        assert result.migrations > 0
        waves = waves_of(result.decisions)
        assert waves, "the migrated holds must carry their waves"
        for wave in waves:
            hosts: set = set()
            movers = [vm for vm, _, _ in wave]
            for vm, src, tgt in wave:
                assert src not in hosts, "shared source host in a wave"
                assert tgt not in hosts, "shared target host in a wave"
                hosts.update((src, tgt))
            mover_set = set(movers)
            for vm in movers:
                assert not (traffic.peers_of(vm) & mover_set - {vm}), (
                    f"VM {vm} migrated alongside one of its traffic peers"
                )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_the_wave_column_replays_the_applied_waves(
        self, seed, monkeypatch
    ):
        topology, allocation, traffic = build_scenario(seed, pattern=DENSE)
        calls = []
        real = FastCostEngine.apply_moves

        def spy(fast, dense, targets):
            vm_ids = fast.snapshot.vm_ids
            calls.append(
                (vm_ids[np.asarray(dense)].tolist(), np.asarray(targets).tolist())
            )
            return real(fast, dense, targets)

        monkeypatch.setattr(FastCostEngine, "apply_moves", spy)
        result = run_batched_round(
            allocation.copy(), traffic, CostModel(topology)
        )
        replay = [
            ([vm for vm, _, _ in wave], [tgt for _, _, tgt in wave])
            for wave in waves_of(result.decisions)
        ]
        assert result.waves > 1, "the round must interfere to test the order"
        assert calls == replay
        assert sum(len(vms) for vms, _ in calls) == result.migrations


class TestPlanWave:
    """The vectorized greedy planner equals its readable reference."""

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference_on_random_proposals(self, seed):
        rng = np.random.default_rng(seed)
        n_hosts = int(rng.integers(4, 24))
        n_vms = int(rng.integers(4, 60))
        n_prop = int(rng.integers(1, n_vms + 1))
        movers = rng.choice(n_vms, size=n_prop, replace=False)
        sources = rng.integers(0, n_hosts, size=n_prop)
        targets = (sources + rng.integers(1, n_hosts, size=n_prop)) % n_hosts
        # Random *symmetric* peer relation (undirected traffic), sliced
        # per mover — the documented plan_wave contract.
        adjacency = {v: set() for v in range(n_vms)}
        for _ in range(int(rng.integers(0, 3 * n_vms))):
            a, b = rng.integers(0, n_vms, size=2)
            if a != b:
                adjacency[int(a)].add(int(b))
                adjacency[int(b)].add(int(a))
        peers = [sorted(adjacency[int(vm)]) for vm in movers]
        ptr = np.zeros(n_prop + 1, dtype=np.int64)
        np.cumsum([len(p) for p in peers], out=ptr[1:])
        flat = np.array(
            [p for ps in peers for p in ps], dtype=np.int64
        )
        got = plan_wave(
            sources,
            targets,
            movers,
            ptr,
            flat,
            n_hosts=n_hosts,
            n_vms=n_vms,
        )
        want = plan_wave_reference(sources, targets, peers, movers)
        assert got.tolist() == want

    def test_accepts_everything_disjoint(self):
        sources = np.array([0, 2, 4])
        targets = np.array([1, 3, 5])
        movers = np.array([0, 1, 2])
        ptr = np.zeros(4, dtype=np.int64)
        flat = np.empty(0, dtype=np.int64)
        assert plan_wave(
            sources, targets, movers, ptr, flat, n_hosts=6, n_vms=3
        ).all()

    def test_defers_peer_conflicts(self):
        # VMs 0 and 1 communicate; only the first may move this wave.
        sources = np.array([0, 2])
        targets = np.array([1, 3])
        movers = np.array([0, 1])
        ptr = np.array([0, 1, 2], dtype=np.int64)
        flat = np.array([1, 0], dtype=np.int64)
        got = plan_wave(sources, targets, movers, ptr, flat, n_hosts=4, n_vms=2)
        assert got.tolist() == [True, False]


class TestInterferenceFreeEquivalence:
    """With no interacting decisions, batched == sequential exactly."""

    def test_single_wave_round_matches_reference(self):
        # Three communicating pairs (u_k, v_k): u_k's whole rack is packed
        # so only v-side targets exist for u, and v_k's candidates (u's
        # rack) are all full so v never proposes.  The three u-moves touch
        # disjoint racks and the movers are not each other's peers —
        # nothing interferes.
        topology = CanonicalTree(
            n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2
        )
        cluster = Cluster(topology, ServerCapacity(max_vms=2, ram_mb=4096, cpu=4.0))
        manager = PlacementManager(cluster)
        vms = manager.create_vms(39, ram_mb=512, cpu=0.5)
        allocation = Allocation(cluster)
        traffic = TrafficMatrix()
        idle = iter(vms[6:])
        for k in range(3):
            u, v = vms[k], vms[3 + k]
            # u's rack: completely packed (u can only leave, v can't enter).
            allocation.add_vm(u, 4 * k)
            allocation.add_vm(next(idle), 4 * k)
            for host in (4 * k + 1, 4 * k + 2, 4 * k + 3):
                allocation.add_vm(next(idle), host)
                allocation.add_vm(next(idle), host)
            # v's rack: v's host full, each rack mate with exactly one free
            # slot — u lands beside v and fills it, so v never gains a
            # better host even after u's move (level 1 either way).
            allocation.add_vm(v, 16 + 4 * k)
            allocation.add_vm(next(idle), 16 + 4 * k)
            for host in (17 + 4 * k, 18 + 4 * k, 19 + 4 * k):
                allocation.add_vm(next(idle), host)
            traffic.set_rate(u.vm_id, v.vm_id, 1000.0 * (k + 1))
        model = CostModel(topology)

        batched_alloc = allocation.copy()
        result = run_batched_round(batched_alloc, traffic, model)
        assert result.interference_free
        assert result.waves == 1

        ref_alloc = allocation.copy()
        scheduler = PerHoldScheduler(
            ref_alloc,
            traffic.copy(),  # another allocation binds its own matrix
            RoundRobinPolicy(),
            MigrationEngine(model),
        )
        ref = scheduler.run(n_iterations=1)
        assert batched_alloc.as_dict() == ref_alloc.as_dict()
        ref_decisions = [
            (d.vm_id, d.target_host, d.migrated) for d in ref.decisions
        ]
        got_decisions = [
            (d.vm_id, d.target_host, d.migrated) for d in result.decisions
        ]
        assert got_decisions == ref_decisions


#: Matched-seed battery: (fattree, policy name, seed) — scenarios where the
#: gain-prioritized wave trajectory converges below the sequential loop.
#: Margins (reference − batched) / reference, measured with the per-hold
#: loop walking the policy's round order: canonical rr 2 / 3: 38.0 % /
#: 45.5 %; canonical hlf 2 / 9 / 13: 34.1 % / 34.2 % / 3.8 %; fat-tree
#: rr 7 / 13: 46.1 % / 46.6 %; fat-tree hlf 4 / 9: 20.8 % / 22.1 %.
#: Canonical hlf 13 is the thin one: unrelated trajectory jitter could
#: flip it, and such a flip needs a look, not a re-seed.
BATTERY = [
    (False, "rr", 2),
    (False, "rr", 3),
    (False, "hlf", 2),
    (False, "hlf", 9),
    (False, "hlf", 13),
    (True, "rr", 7),
    (True, "rr", 13),
    (True, "hlf", 4),
    (True, "hlf", 9),
]


class TestBatchedVsReferenceDifferential:
    @pytest.mark.parametrize("fattree,policy,seed", BATTERY)
    def test_converged_cost_not_worse_on_matched_seeds(
        self, fattree, policy, seed
    ):
        topology, allocation, traffic = build_scenario(seed, fattree, scale=2)
        model = CostModel(topology)
        policies = {"rr": RoundRobinPolicy, "hlf": HighestLevelFirstPolicy}
        ref_alloc = allocation.copy()
        batched = SCOREScheduler(
            allocation, traffic, policies[policy](), MigrationEngine(model)
        ).run(n_iterations=20, stop_when_stable=True)
        reference = PerHoldScheduler(
            ref_alloc, traffic.copy(), policies[policy](), MigrationEngine(model)
        ).run(n_iterations=20, stop_when_stable=True)
        assert batched.final_cost <= reference.final_cost * (1 + 1e-9)

    @pytest.mark.parametrize("fattree", [False, True])
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    def test_exactness_and_invariants(self, fattree, policy):
        """Independent of trajectory: exact accounting on every seed."""
        policies = {"rr": RoundRobinPolicy, "hlf": HighestLevelFirstPolicy}
        for seed in range(4):
            topology, allocation, traffic = build_scenario(seed, fattree)
            model = CostModel(topology)
            scheduler = SCOREScheduler(
                allocation, traffic, policies[policy](), MigrationEngine(model)
            )
            report = scheduler.run(n_iterations=10, stop_when_stable=True)
            recomputed = model.total_cost(allocation, traffic)
            assert report.final_cost == pytest.approx(recomputed, rel=1e-9)
            delta_sum = sum(d.delta for d in report.decisions if d.migrated)
            assert report.initial_cost - report.final_cost == pytest.approx(
                delta_sum, rel=1e-9, abs=1e-9
            )
            costs = [c for _, c in report.time_series]
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
            allocation.validate()
            assert report.iterations[-1].migrations == 0

    def test_batched_report_layout_matches_reference(self):
        """One decision per hold, reference-shaped series and iterations."""
        topology, allocation, traffic = build_scenario(5)
        model = CostModel(topology)
        scheduler = SCOREScheduler(
            allocation, traffic, RoundRobinPolicy(), MigrationEngine(model)
        )
        report = scheduler.run(n_iterations=2, record_every_hold=True)
        n_vms = allocation.n_vms
        assert len(report.decisions) == 2 * n_vms
        assert [it.visits for it in report.iterations] == [n_vms, n_vms]
        # initial point + per-hold points + one per iteration end.
        assert len(report.time_series) == 1 + 2 * n_vms + 2


class TestEvaluateMany:
    """Batch decisions mirror the naive per-VM loop decision-for-decision."""

    @pytest.mark.parametrize("fattree", [False, True])
    @pytest.mark.parametrize(
        "engine_kw",
        [
            {},
            {"migration_cost": 5000.0},
            {"max_candidates": 3},
            {"bandwidth_threshold": 0.9},
        ],
    )
    def test_matches_scalar_evaluate(self, fattree, engine_kw):
        topology, allocation, traffic = build_scenario(11, fattree)
        model = CostModel(topology)
        engine = MigrationEngine(model, **engine_kw)
        fast = FastCostEngine(allocation, traffic, weights=model.weights)
        vm_ids = sorted(allocation.vm_ids())
        batch = fast.candidate_batch(
            fast.dense_indices(vm_ids), engine.max_candidates
        )
        batch_decisions = engine.decisions_from_batch(batch, fast)
        for vm_id, got in zip(vm_ids, batch_decisions):
            want = evaluate_naive(engine, allocation, traffic, vm_id)
            assert got.vm_id == want.vm_id == vm_id
            assert got.target_host == want.target_host
            assert got.reason == want.reason
            # Migrated-quality deltas agree to 1e-9 relative; the
            # informational best-rejected delta of a no-gain decision may
            # carry aggregate-formula rounding noise near zero.
            assert got.delta == pytest.approx(want.delta, rel=1e-9, abs=1e-6)
