"""HLF mid-round token refresh in wave-batched rounds (Algorithm 1).

The batched round used to refresh token levels only at round end; the
``TokenPolicy.wave_refresh`` hook now applies Algorithm 1's updates —
own entry ← measured highest level, peers raised to ``l(u, v)`` — per
wave, pinned here against the per-hold reference loop.
"""

from __future__ import annotations

import pytest

from repro import (
    CanonicalTree,
    Cluster,
    CostModel,
    DCTrafficGenerator,
    MigrationEngine,
    PlacementManager,
    SPARSE,
    SCOREScheduler,
    ServerCapacity,
    Token,
    place_random,
)
from repro.core.fastcost import FastCostEngine
from repro.core.policies import HighestLevelFirstPolicy
from repro.core.rounds import BatchedRoundEngine
from repro.reference import PerHoldScheduler


def build_env(seed=0):
    topo = CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)
    cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=8192, cpu=8.0))
    manager = PlacementManager(cluster)
    vms = manager.create_vms(64, ram_mb=512, cpu=0.5)
    allocation = place_random(cluster, vms, seed=seed)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], SPARSE, seed=seed
    ).generate()
    return topo, allocation, traffic


class TestRaiseLevels:
    def test_raise_only_semantics(self):
        token = Token([1, 2, 3])
        token.set_level(2, 3)
        raised = token.raise_levels({1: 2, 2: 1, 3: 0})
        assert raised == 1
        assert token.level_of(1) == 2
        assert token.level_of(2) == 3  # 1 < 3: not lowered
        assert token.level_of(3) == 0

    def test_single_version_bump(self):
        token = Token([1, 2, 3])
        before = token.version
        token.raise_levels({1: 3, 2: 2})
        assert token.version == before + 1
        token.raise_levels({1: 1})  # nothing raised
        assert token.version == before + 1

    def test_buckets_follow(self):
        token = Token([1, 2, 3])
        token.raise_levels({1: 2, 3: 2})
        assert token.vms_at_level(2) == [1, 3]
        assert token.vms_at_level(0) == [2]

    def test_validation_is_atomic(self):
        token = Token([1, 2])
        with pytest.raises(KeyError):
            token.raise_levels({1: 2, 99: 1})
        assert token.level_of(1) == 0
        with pytest.raises(ValueError):
            token.raise_levels({1: 999})


class TestWaveRefreshPins:
    def test_static_round_matches_reference_loop_levels(self):
        """With migrations suppressed (huge cm), the per-wave refresh must
        leave exactly the token levels the per-hold reference loop's
        on_hold sequence produces — the placement never changes, so both
        reduce to Algorithm 1's updates over the same state."""
        topo, allocation, traffic = build_env(3)
        cm = 1e18

        # Reference: per-hold loop, HLF on_hold per visit.
        ref_sched = PerHoldScheduler(
            allocation.copy(), traffic, HighestLevelFirstPolicy(),
            MigrationEngine(CostModel(topo), migration_cost=cm),
        )
        ref_sched.run(n_iterations=1)
        ref_levels = {e.vm_id: e.level for e in ref_sched.token.entries()}

        # Batched: one round with the wave_refresh callback, levels read
        # BEFORE any end-of-round overwrite.
        batched_alloc = allocation.copy()
        policy = HighestLevelFirstPolicy()
        engine = MigrationEngine(CostModel(topo), migration_cost=cm)
        fast = FastCostEngine(batched_alloc, traffic)
        engine.attach_fastcost(fast)
        token = Token(batched_alloc.vm_ids())
        rounds = BatchedRoundEngine(
            batched_alloc, traffic, engine, fast,
            wave_callback=lambda vm_ids: policy.wave_refresh(
                token, vm_ids, batched_alloc, traffic, fast
            ),
        )
        result = rounds.run_round(sorted(batched_alloc.vm_ids()))
        assert result.migrations == 0
        wave_levels = {e.vm_id: e.level for e in token.entries()}
        assert wave_levels == ref_levels
        # ... and both equal the measured highest levels.
        measured = fast.highest_levels()
        for dense, vm_id in enumerate(fast.snapshot.vm_ids.tolist()):
            assert wave_levels[vm_id] == int(measured[dense])

    def test_every_hold_reported_exactly_once(self):
        topo, allocation, traffic = build_env(4)
        engine = MigrationEngine(CostModel(topo))
        fast = FastCostEngine(allocation, traffic)
        engine.attach_fastcost(fast)
        seen = []
        rounds = BatchedRoundEngine(
            allocation, traffic, engine, fast,
            wave_callback=seen.extend,
        )
        order = sorted(allocation.vm_ids())
        result = rounds.run_round(order)
        assert result.migrations > 0
        assert sorted(seen) == order, "each hold settles in exactly one wave"

    def test_refresh_does_not_change_run_outcomes(self):
        """end_round's measured overwrite still closes every round, so the
        mid-round refresh improves token observability without altering
        decisions, costs or the next round's order."""
        topo, allocation, traffic = build_env(5)

        class NoRefreshHLF(HighestLevelFirstPolicy):
            wave_refresh = None

        with_refresh = SCOREScheduler(
            allocation.copy(), traffic, HighestLevelFirstPolicy(),
            MigrationEngine(CostModel(topo)),
        ).run(n_iterations=3)
        without_refresh = SCOREScheduler(
            allocation.copy(), traffic, NoRefreshHLF(),
            MigrationEngine(CostModel(topo)),
        ).run(n_iterations=3)
        assert with_refresh.final_cost == without_refresh.final_cost
        assert with_refresh.total_migrations == without_refresh.total_migrations
        assert [d.target_host for d in with_refresh.decisions] == [
            d.target_host for d in without_refresh.decisions
        ]

    def test_mid_round_levels_track_settled_placement(self):
        """On a migrating round, every settled VM's entry holds its
        measured level at (or after) settle time — never a stale one —
        by the time the round ends."""
        topo, allocation, traffic = build_env(6)
        policy = HighestLevelFirstPolicy()
        engine = MigrationEngine(CostModel(topo))
        fast = FastCostEngine(allocation, traffic)
        engine.attach_fastcost(fast)
        token = Token(allocation.vm_ids())
        rounds = BatchedRoundEngine(
            allocation, traffic, engine, fast,
            wave_callback=lambda vm_ids: policy.wave_refresh(
                token, vm_ids, allocation, traffic, fast
            ),
        )
        result = rounds.run_round(sorted(allocation.vm_ids()))
        assert result.migrations > 0
        measured = fast.highest_levels()
        vm_ids = fast.snapshot.vm_ids.tolist()
        # For every pair, the later-settling endpoint's refresh (own
        # measured set, or the raise-only peer update) sees the final
        # placement, so entries may run stale-HIGH (a peer moved closer
        # after the owner settled — exactly the live algorithm's
        # raise-only estimates) but never stale-LOW.
        for dense, vm_id in enumerate(vm_ids):
            assert token.level_of(vm_id) >= int(measured[dense])
