"""Differential suite: FastCostEngine vs the naive CostModel reference.

Seeded randomized scenarios over both topologies x all traffic patterns x
all placement strategies assert that every quantity the fast engine
computes — ``total_cost``, ``highest_levels``, the exact per-peer Lemma 3
deltas (``exact_deltas``) and the batched scorer's candidate rows
(``candidate_batch``) — matches the readable per-pair reference to within
1e-9 (relative), both on the initial placement and after a stream of
migrations applied through the engine's incremental caches.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro import (
    CanonicalTree,
    Cluster,
    CostModel,
    DCTrafficGenerator,
    FatTree,
    PlacementManager,
    ServerCapacity,
)
from repro.cluster.placement import place_by_name
from repro.core.fastcost import FastCostEngine
from repro.core.migration import MigrationEngine
from repro.reference import (
    bandwidth_feasible,
    evaluate_naive,
    host_egress_rate,
    host_rows,
)
from repro.traffic.generator import PATTERNS

REL = 1e-9

TOPOLOGY_BUILDERS = {
    "canonical": lambda: CanonicalTree(
        n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2
    ),
    "fattree": lambda: FatTree(k=4),
}
PATTERN_NAMES = sorted(PATTERNS)
PLACEMENTS = ["random", "round_robin", "packed", "striped"]

SCENARIOS = [
    (topo, pattern, placement)
    for topo in sorted(TOPOLOGY_BUILDERS)
    for pattern in PATTERN_NAMES
    for placement in PLACEMENTS
]


def build_scenario(topo_name: str, pattern: str, placement: str, seed: int):
    topology = TOPOLOGY_BUILDERS[topo_name]()
    cluster = Cluster(topology, ServerCapacity(max_vms=4, ram_mb=4096, cpu=4.0))
    manager = PlacementManager(cluster)
    n_vms = int(cluster.total_vm_slots * 0.8)
    vms = manager.create_vms(n_vms, ram_mb=512, cpu=0.5)
    allocation = place_by_name(placement, cluster, vms, seed=seed)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], PATTERNS[pattern], seed=seed
    ).generate()
    return topology, allocation, traffic


def assert_engines_agree(naive, fast, allocation, traffic, rng):
    """Every query of both engines agrees on the current placement."""
    assert fast.total_cost(allocation, traffic) == pytest.approx(
        naive.total_cost(allocation, traffic), rel=REL
    )
    assert fast.recompute_total_cost() == pytest.approx(
        fast.total_cost(allocation, traffic), rel=REL
    )
    n_hosts = allocation.cluster.n_servers
    # HLF's round end reads every VM's level from one array, peerless
    # VMs (level 0) included.
    levels = dict(
        zip(fast.snapshot.vm_ids.tolist(), fast.highest_levels().tolist())
    )
    assert sorted(levels) == sorted(allocation.vm_ids())
    for vm_id, level in levels.items():
        assert level == naive.highest_level(allocation, traffic, vm_id)
    sample = rng.choice(
        np.fromiter(allocation.vm_ids(), dtype=np.int64), size=20, replace=False
    )
    # Exact per-peer deltas of arbitrary moves.
    vms = np.repeat(sample, 6)
    targets = rng.integers(0, n_hosts, size=len(vms))
    exact = fast.exact_deltas(fast.dense_indices(vms), targets)
    for vm_id, target, delta in zip(vms, targets, exact):
        assert delta == pytest.approx(
            naive.migration_delta(allocation, traffic, int(vm_id), int(target)),
            rel=REL,
            abs=1e-9,
        )
    # The batched scorer's rows: every candidate of every sampled VM.  It
    # sums over the level hierarchy, so its rounding noise scales with
    # the owner's traffic, not with the (possibly zero) delta.
    batch = fast.candidate_batch(fast.dense_indices(sample))
    w_top = naive.weights.path_weight(naive.topology.max_level)
    for owner, host, delta, _onto, _row in zip(*host_rows(batch)):
        assert delta == pytest.approx(
            naive.migration_delta(
                allocation, traffic, int(sample[owner]), int(host)
            ),
            rel=REL,
            abs=REL * w_top * batch.total_rate[owner],
        )


@pytest.mark.parametrize("topo_name,pattern,placement", SCENARIOS)
def test_fast_engine_matches_naive(topo_name, pattern, placement):
    # Stable per-scenario seed (str hash() is salted per process).
    seed = zlib.crc32(f"{topo_name}|{pattern}|{placement}".encode()) % 10_000
    topology, allocation, traffic = build_scenario(
        topo_name, pattern, placement, seed=seed
    )
    naive = CostModel(topology)
    fast = FastCostEngine(allocation, traffic)
    rng = np.random.default_rng(seed)

    assert_engines_agree(naive, fast, allocation, traffic, rng)

    # Apply a stream of random feasible migrations through the engine and
    # re-verify: the incremental caches must not drift from the reference.
    vm_ids = np.fromiter(allocation.vm_ids(), dtype=np.int64)
    applied = 0
    for _ in range(200):
        if applied >= 30:
            break
        vm_id = int(rng.choice(vm_ids))
        target = int(rng.integers(0, allocation.cluster.n_servers))
        vm = allocation.vm(vm_id)
        if target == allocation.server_of(vm_id) or not allocation.can_host(
            target, vm
        ):
            continue
        expected = naive.migration_delta(allocation, traffic, vm_id, target)
        deltas = fast.apply_moves(fast.dense_indices([vm_id]), [target])
        assert deltas[0] == pytest.approx(expected, rel=REL, abs=1e-9)
        applied += 1
    assert applied > 0
    assert_engines_agree(naive, fast, allocation, traffic, rng)


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGY_BUILDERS))
def test_batched_evaluate_matches_naive_evaluate(topo_name):
    """MigrationEngine.evaluate on the fast engine == the naive oracle."""
    topology, allocation, traffic = build_scenario(
        topo_name, "sparse", "random", seed=7
    )
    engine = MigrationEngine(CostModel(topology), max_candidates=12)
    fast = FastCostEngine(allocation, traffic)
    for vm_id in allocation.vm_ids():
        naive_d = evaluate_naive(engine, allocation, traffic, vm_id)
        fast_d = engine.evaluate(fast, vm_id)
        assert naive_d.target_host == fast_d.target_host
        assert naive_d.reason == fast_d.reason
        assert fast_d.delta == pytest.approx(naive_d.delta, rel=REL, abs=1e-9)


@pytest.mark.parametrize("topo_name,pattern", [
    ("canonical", "sparse"),
    ("fattree", "dense"),
])
def test_engine_egress_matches_naive_host_egress_rate(topo_name, pattern):
    """Incremental per-host egress == the naive per-VM walk, pre and post
    a stream of migrations applied through the engine's caches."""
    seed = zlib.crc32(f"egress|{topo_name}|{pattern}".encode()) % 10_000
    topology, allocation, traffic = build_scenario(
        topo_name, pattern, "random", seed=seed
    )
    fast = FastCostEngine(allocation, traffic)
    rng = np.random.default_rng(seed)

    def assert_egress_agrees():
        for host in range(allocation.cluster.n_servers):
            assert fast.host_egress(host) == pytest.approx(
                host_egress_rate(allocation, traffic, host),
                rel=REL,
                abs=1e-6,
            )

    assert_egress_agrees()
    vm_ids = np.fromiter(allocation.vm_ids(), dtype=np.int64)
    applied = 0
    for _ in range(200):
        if applied >= 25:
            break
        vm_id = int(rng.choice(vm_ids))
        target = int(rng.integers(0, allocation.cluster.n_servers))
        vm = allocation.vm(vm_id)
        if target == allocation.server_of(vm_id) or not allocation.can_host(
            target, vm
        ):
            continue
        fast.apply_moves(fast.dense_indices([vm_id]), [target])
        applied += 1
    assert applied > 0
    assert_egress_agrees()

    # The batched scorer's §V-C mask == the naive per-candidate check,
    # over every candidate row of the sampled VMs.
    sample = rng.choice(vm_ids, size=15, replace=False)
    # Each row resolves to its first covered host, in probing order,
    # that passes the naive probe.
    batch = fast.candidate_batch(fast.dense_indices(sample))
    owner, host, _delta, _onto, row = host_rows(batch)
    owners = sample[owner]
    capacity = np.array([
        allocation.can_host(int(h), allocation.vm(int(vm)))
        for vm, h in zip(owners, host)
    ], dtype=bool)

    def first_passing(fits):
        want = np.full(batch.n_rows, -1)
        for r, h, ok in zip(row[::-1], host[::-1], fits[::-1]):
            if ok:
                want[r] = h
        return want

    assert np.array_equal(
        fast.candidate_feasible(batch), first_passing(capacity)
    )
    for threshold in (0.2, 0.5, 0.9):
        naive_engine = MigrationEngine(
            CostModel(topology), bandwidth_threshold=threshold
        )
        fits = capacity & np.array([
            bandwidth_feasible(
                naive_engine, allocation, traffic, int(vm), int(h)
            )
            for vm, h in zip(owners, host)
        ], dtype=bool)
        assert np.array_equal(
            fast.candidate_feasible(batch, threshold), first_passing(fits)
        )


def test_bandwidth_threshold_decisions_match_naive_path():
    """Full evaluate() with a threshold: engine-backed == naive oracle."""
    topology, allocation, traffic = build_scenario(
        "canonical", "medium", "packed", seed=21
    )
    engine = MigrationEngine(
        CostModel(topology), bandwidth_threshold=0.6, max_candidates=12
    )
    fast = FastCostEngine(allocation, traffic)
    for vm_id in allocation.vm_ids():
        naive_d = evaluate_naive(engine, allocation, traffic, vm_id)
        fast_d = engine.evaluate(fast, vm_id)
        assert naive_d.target_host == fast_d.target_host
        assert naive_d.reason == fast_d.reason
        assert fast_d.delta == pytest.approx(naive_d.delta, rel=REL, abs=1e-9)


SETTINGS = {
    "cm0": dict(),
    "cm": dict(migration_cost=1.0),
    "budget": dict(bandwidth_threshold=0.6),
    "cap": dict(max_candidates=3),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("pattern", PATTERN_NAMES)
@pytest.mark.parametrize("topo_name", sorted(TOPOLOGY_BUILDERS))
def test_decision_sweeps_match_the_oracle(topo_name, pattern, setting):
    """Two per-hold sweeps of ``decide_and_migrate`` on the engine, and
    the oracle's decisions applied to a twin placement, take the same
    decision at every hold: each move changes what the next VM sees, so
    the two paths stay in step only if every write lands the same way."""
    seed = zlib.crc32(f"sweep|{topo_name}|{pattern}".encode()) % 10_000
    topology, allocation, traffic = build_scenario(
        topo_name, pattern, "random", seed=seed
    )
    _, twin, twin_traffic = build_scenario(
        topo_name, pattern, "random", seed=seed
    )
    engine = MigrationEngine(CostModel(topology), **SETTINGS[setting])
    fast = FastCostEngine(allocation, traffic)
    w_top = engine.cost_model.weights.path_weight(topology.max_level)
    moved = 0
    for vm_id in sorted(allocation.vm_ids()) * 2:
        want = evaluate_naive(engine, twin, twin_traffic, vm_id)
        got = engine.decide_and_migrate(fast, vm_id)
        assert got.target_host == want.target_host
        if want.target_host is None:
            # A refusal reports the batch scorer's best delta, whose
            # rounding noise scales with the VM's traffic.
            assert got.reason == want.reason
            assert got.delta == pytest.approx(
                want.delta, rel=REL,
                abs=REL * w_top * sum(twin_traffic.peer_rates(vm_id).values()),
            )
            continue
        assert got.migrated and got.reason == "migrated"
        assert got.delta == pytest.approx(want.delta, rel=REL, abs=1e-9)
        twin.migrate_many([(vm_id, want.target_host)])
        moved += 1
    assert moved > 0
    assert fast.in_sync
    assert {v: allocation.server_of(v) for v in allocation.vm_ids()} == {
        v: twin.server_of(v) for v in twin.vm_ids()
    }
    assert fast.total_cost() == pytest.approx(
        CostModel(topology).total_cost(twin, twin_traffic), rel=REL
    )
