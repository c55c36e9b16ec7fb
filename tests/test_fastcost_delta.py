"""Differential suite: incremental state deltas vs the pinned rebuild path.

``FastCostEngine.apply_traffic_delta`` / ``add_vms`` / ``remove_vms``
splice the matrix's store and shift the Lemma 3 caches and the per-host
mirrors in place.  The contract is that after any sequence of deltas the
engine is indistinguishable (within 1e-9 relative, i.e. float-summation
reordering) from an engine built fresh over the same placement and a
matrix rebuilt from a fresh sort of the pair list (:func:`rebuilt` —
never a store shared with the engine under test) — including scheduler
runs driven off the delta path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CanonicalTree,
    Cluster,
    CostModel,
    DCTrafficGenerator,
    FatTree,
    MigrationEngine,
    PlacementManager,
    SPARSE,
    SCOREScheduler,
    ServerCapacity,
    place_random,
    policy_by_name,
)
from repro.core.fastcost import FastCostEngine
from repro.traffic.generator import MEDIUM
from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import make_rng

RTOL = 1e-9


def build_env(seed=0, fattree=False, pattern=SPARSE, slots=4):
    topo = (
        FatTree(k=4)
        if fattree
        else CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)
    )
    cluster = Cluster(topo, ServerCapacity(max_vms=slots, ram_mb=8192, cpu=8.0))
    manager = PlacementManager(cluster)
    vms = manager.create_vms(
        int(cluster.total_vm_slots * 0.8), ram_mb=512, cpu=0.5
    )
    allocation = place_random(cluster, vms, seed=seed)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], pattern, seed=seed
    ).generate()
    return topo, cluster, manager, allocation, traffic


def rebuilt(allocation, traffic) -> FastCostEngine:
    """The reference: a fresh engine over a matrix re-sorted from the
    pair list, so it shares no store with the engine under test."""
    return FastCostEngine(
        allocation, TrafficMatrix.from_pair_arrays(*traffic.pair_arrays())
    )


def assert_engines_match(fast: FastCostEngine, reference: FastCostEngine):
    """Every observable cache of ``fast`` matches the fresh rebuild."""
    assert (fast.snapshot.vm_ids == reference.snapshot.vm_ids).all()
    assert fast.snapshot.n_pairs == reference.snapshot.n_pairs
    assert np.allclose(fast.total_cost(), reference.total_cost(), rtol=RTOL)
    assert np.allclose(fast._egress, reference._egress, rtol=RTOL, atol=1e-6)
    assert np.allclose(
        fast.total_cost(), fast.recompute_total_cost(), rtol=RTOL
    )
    # The CSR itself: same adjacency, same rates.
    assert (fast.snapshot.ptr == reference.snapshot.ptr).all()
    assert (fast.snapshot.peer == reference.snapshot.peer).all()
    assert np.allclose(fast.snapshot.rate, reference.snapshot.rate, rtol=RTOL)


class TestTrafficDelta:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fattree", [False, True])
    def test_rate_only_delta_matches_rebuild(self, seed, fattree):
        _, _, _, allocation, traffic = build_env(seed, fattree)
        fast = FastCostEngine(allocation, traffic)
        rng = make_rng(seed)
        pairs = list(traffic.pairs())
        picked = [pairs[int(i)] for i in rng.choice(len(pairs), 25, replace=False)]
        delta = [
            (u, v, r * float(0.2 + 2 * rng.random())) for u, v, r in picked
        ]
        applied = fast.apply_traffic_delta(delta)
        assert applied == len(delta)
        assert fast.in_sync
        assert_engines_match(fast, rebuilt(allocation, traffic))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_structural_delta_matches_rebuild(self, seed):
        _, _, _, allocation, traffic = build_env(seed)
        fast = FastCostEngine(allocation, traffic)
        rng = make_rng(seed)
        pairs = list(traffic.pairs())
        ids = sorted(allocation.vm_ids())
        # Remove some existing pairs, add some fresh ones, update others.
        delta = [(u, v, 0.0) for u, v, _ in pairs[:5]]
        existing = {(u, v) for u, v, _ in pairs}
        added = 0
        for a in ids:
            for b in ids:
                if a < b and (a, b) not in existing and added < 7:
                    delta.append((a, b, float(50 + 100 * rng.random())))
                    added += 1
        delta += [(u, v, r * 1.5) for u, v, r in pairs[5:10]]
        fast.apply_traffic_delta(delta)
        assert_engines_match(fast, rebuilt(allocation, traffic))

    def test_duplicate_pair_last_wins(self):
        _, _, _, allocation, traffic = build_env(5)
        fast = FastCostEngine(allocation, traffic)
        u, v, _ = next(traffic.pairs())
        delta = [(u, v, 111.0), (v, u, 222.0)]
        fast.apply_traffic_delta(delta)
        assert traffic.rate(u, v) == 222.0
        assert_engines_match(fast, rebuilt(allocation, traffic))

    def test_unknown_vm_raises_and_leaves_state_clean(self):
        _, _, _, allocation, traffic = build_env(6)
        fast = FastCostEngine(allocation, traffic)
        before = fast.total_cost()
        with pytest.raises(KeyError):
            fast.apply_traffic_delta([(10**6, 1, 5.0)])
        assert fast.total_cost() == before
        assert_engines_match(fast, rebuilt(allocation, traffic))

    def test_negative_rate_rejected(self):
        _, _, _, allocation, traffic = build_env(6)
        fast = FastCostEngine(allocation, traffic)
        u, v, _ = next(traffic.pairs())
        with pytest.raises(ValueError):
            fast.apply_traffic_delta([(u, v, -1.0)])

    def test_array_tuple_form(self):
        _, _, _, allocation, traffic = build_env(7)
        fast = FastCostEngine(allocation, traffic)
        pairs = list(traffic.pairs())[:10]
        us = np.array([p[0] for p in pairs])
        vs = np.array([p[1] for p in pairs])
        rates = np.array([p[2] * 2.0 for p in pairs])
        fast.apply_traffic_delta((us, vs, rates))
        assert_engines_match(fast, rebuilt(allocation, traffic))

    def test_empty_delta_is_noop(self):
        _, _, _, allocation, traffic = build_env(8)
        fast = FastCostEngine(allocation, traffic)
        assert fast.apply_traffic_delta([]) == 0
        assert fast.in_sync


class TestPopulationDelta:
    def test_add_vms_matches_rebuild(self):
        _, _, manager, allocation, traffic = build_env(10)
        fast = FastCostEngine(allocation, traffic)
        new = manager.create_vms(5, ram_mb=512, cpu=0.5)
        free = [
            h
            for h in range(allocation.cluster.n_servers)
            for _ in range(allocation.free_slots(h))
        ]
        fast.add_vms(new, free[:5])
        assert fast.in_sync
        assert_engines_match(fast, rebuilt(allocation, traffic))
        # And their traffic can be wired in incrementally afterwards.
        anchor = sorted(allocation.vm_ids())[0]
        delta = [(vm.vm_id, anchor, 70.0) for vm in new]
        fast.apply_traffic_delta(delta)
        assert_engines_match(fast, rebuilt(allocation, traffic))

    def test_remove_vms_matches_rebuild(self):
        _, _, _, allocation, traffic = build_env(11, pattern=MEDIUM)
        fast = FastCostEngine(allocation, traffic)
        # Remove a mix of talkative and quiet VMs.
        ids = sorted(allocation.vm_ids())
        victims = [ids[0], ids[7], ids[-1]]
        ceased = [
            (v, peer, 0.0)
            for v in victims
            for peer in traffic.peers_of(v)
            if peer not in victims or peer > v
        ]
        # The retire protocol: flows cease first (one delta into the
        # shared store), then the engine shrinks the population.
        fast.apply_traffic_delta(ceased)
        fast.remove_vms(victims)
        assert fast.in_sync
        assert_engines_match(fast, rebuilt(allocation, traffic))

    def test_interleaved_churn_and_migrations(self):
        """A realistic life: deltas, churn, migrations — never rebuilt."""
        topo, _, manager, allocation, traffic = build_env(12)
        fast = FastCostEngine(allocation, traffic)
        engine = MigrationEngine(CostModel(topo))
        rng = make_rng(12)
        for step in range(4):
            pairs = list(traffic.pairs())
            picked = [
                pairs[int(i)]
                for i in rng.choice(len(pairs), 10, replace=False)
            ]
            delta = [(u, v, r * float(0.5 + rng.random())) for u, v, r in picked]
            fast.apply_traffic_delta(delta)
            new = manager.create_vms(2, ram_mb=512, cpu=0.5)
            free = [
                h
                for h in range(allocation.cluster.n_servers)
                if allocation.free_slots(h) >= 1
            ]
            fast.add_vms(new, free[:2])
            for vm_id in list(sorted(allocation.vm_ids()))[:10]:
                engine.decide_and_migrate(fast, vm_id)
            assert fast.in_sync
            assert_engines_match(fast, rebuilt(allocation, traffic))


class TestSchedulerOnDeltaPath:
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    def test_multi_epoch_run_matches_full_rebuild_path(self, policy):
        """Twin schedulers: delta-path epochs == full-rebuild epochs."""
        _, _, _, alloc_a, traffic_a = build_env(20)
        _, _, _, alloc_b, traffic_b = build_env(20)
        sched_a = SCOREScheduler(
            alloc_a, traffic_a, policy_by_name(policy),
            MigrationEngine(CostModel(alloc_a.topology)),
        )
        sched_b = SCOREScheduler(
            alloc_b, traffic_b, policy_by_name(policy),
            MigrationEngine(CostModel(alloc_b.topology)),
        )
        rng = make_rng(99)
        for epoch in range(3):
            if epoch:
                pairs = list(traffic_a.pairs())
                picked = [
                    pairs[int(i)]
                    for i in rng.choice(len(pairs), 15, replace=False)
                ]
                delta = [
                    (u, v, r * float(0.3 + rng.random()))
                    for u, v, r in picked
                ]
                # A: incremental delta path.  B: the same rates written
                # behind its engine, which the next run answers with a
                # full rebuild.
                sched_a.apply_traffic_delta(delta)
                traffic_b.apply_delta(delta)
                assert not sched_b.fastcost.in_sync
            report_a = sched_a.run(n_iterations=2)
            report_b = sched_b.run(n_iterations=2)
            assert report_a.total_migrations == report_b.total_migrations
            assert np.allclose(
                report_a.final_cost, report_b.final_cost, rtol=RTOL
            )
            assert [d.target_host for d in report_a.decisions] == [
                d.target_host for d in report_b.decisions
            ]
        # The delta path never cold-rebuilds: its engine stayed in sync.
        assert sched_a.fastcost.in_sync

    def test_three_triples_as_a_tuple_is_not_the_array_form(self):
        # Regression: a plain tuple of exactly three (u, v, rate) triples
        # must parse as a triple list, not as transposed (us, vs, rates)
        # arrays — the array form requires actual ndarrays.
        _, _, _, allocation, traffic = build_env(22)
        scheduler = SCOREScheduler(
            allocation, traffic, policy_by_name("rr"),
            MigrationEngine(CostModel(allocation.topology)),
        )
        scheduler.run(n_iterations=1)
        pairs = list(traffic.pairs())[:3]
        delta = tuple((u, v, r * 2.0) for u, v, r in pairs)
        scheduler.apply_traffic_delta(delta)
        for u, v, r in pairs:
            assert traffic.rate(u, v) == pytest.approx(r * 2.0)
        assert scheduler.fastcost.in_sync
        assert_engines_match(
            scheduler.fastcost, rebuilt(allocation, traffic)
        )

    def test_scheduler_churn_apis_keep_engine_consistent(self):
        _, _, manager, allocation, traffic = build_env(21)
        scheduler = SCOREScheduler(
            allocation, traffic, policy_by_name("hlf"),
            MigrationEngine(CostModel(allocation.topology)),
        )
        scheduler.run(n_iterations=1)
        fast = scheduler.fastcost
        new = manager.create_vms(3, ram_mb=512, cpu=0.5)
        free = [
            h
            for h in range(allocation.cluster.n_servers)
            if allocation.free_slots(h) >= 1
        ]
        scheduler.admit_vms(new, free[:3])
        scheduler.apply_traffic_delta(
            [(new[0].vm_id, new[1].vm_id, 120.0)]
        )
        scheduler.retire_vms([sorted(allocation.vm_ids())[0]])
        assert fast.in_sync
        assert_engines_match(fast, rebuilt(allocation, traffic))
        report = scheduler.run(n_iterations=2)
        assert np.allclose(
            report.final_cost, fast.recompute_total_cost(), rtol=RTOL
        )
        allocation.validate()
