"""Differential battery for the incremental round cache.

Pins the tentpole invariant: a scheduler running wave-batched rounds
against the persistent :class:`repro.core.roundcache.RoundScoreCache`
(the default :class:`~repro.core.scheduler.SCOREScheduler`) produces
*exactly* the trajectory of the uncached wave loop
(:class:`repro.reference.UncachedScheduler`) — decision for decision
(vm, target, migrated, reason and delta), migration for migration, run
after run — across policies, churn, traffic deltas and adversarial
invalidation patterns (freed better hosts, filled picks, mid-round
token-level raises).  Plus the capacity-resize satellite:
``set_host_capacity`` patches capacity in place and the drain
offline/restore paths ride on it.  And the splice differential: after
every step of a move / drift script, the cache's spliced arrays equal a
from-scratch re-score, array for array — also after every round of a
scheduler-driven drift / drain / fill / free script; and a converged
epoch never sorts anything the size of the cache.

``pytest -m roundcache`` runs the multi-run battery and the splice
differentials over a wider seed matrix (``REPRO_CACHE_SEEDS`` —
comma-separated ints; CI runs it as its own job).
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.server import ServerCapacity
from repro.cluster.vm import VM
from repro.core.cost import CostModel
from repro.core.fastcost import FastCostEngine
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.rounds import BatchedRoundEngine
from repro.core.scheduler import SCOREScheduler
from repro.reference import PerHoldScheduler, UncachedScheduler
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.topology.tree import CanonicalTree
from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import make_rng


def build_twins(seed=1, policy="rr", bandwidth_threshold=None, **overrides):
    """Two identical environments + schedulers: cached and uncached."""
    config = ExperimentConfig(policy=policy, seed=seed, **overrides)
    out = []
    for scheduler_class in (SCOREScheduler, UncachedScheduler):
        env = build_environment(config)
        engine = MigrationEngine(
            env.cost_model, bandwidth_threshold=bandwidth_threshold
        )
        out.append(
            (
                env,
                scheduler_class(
                    env.allocation,
                    env.traffic,
                    policy_by_name(policy, seed=seed),
                    engine,
                ),
            )
        )
    return out[0], out[1]


def decisions_key(report):
    return [
        (d.vm_id, d.target_host, d.migrated, d.reason, d.delta)
        for d in report.decisions
    ]


def assert_reports_equal(cached, uncached):
    assert decisions_key(cached) == decisions_key(uncached)
    assert cached.total_migrations == uncached.total_migrations
    assert cached.final_cost == uncached.final_cost
    assert [i.migrations for i in cached.iterations] == [
        i.migrations for i in uncached.iterations
    ]


def _cache_seeds(default):
    raw = os.environ.get("REPRO_CACHE_SEEDS", "")
    if raw.strip():
        return [int(s) for s in raw.split(",") if s.strip()]
    return default


class TestMatchedSeedBattery:
    @pytest.mark.roundcache
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    @pytest.mark.parametrize("seed", _cache_seeds([1, 2, 5, 9]))
    def test_cached_equals_uncached_across_runs(self, policy, seed):
        """Three consecutive runs: the cache keeps scored rows across
        rounds, runs and convergence — the trajectory must not drift."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=seed, policy=policy, n_iterations=4
        )
        for _ in range(3):
            assert_reports_equal(
                sched_c.run(n_iterations=4), sched_u.run(n_iterations=4)
            )

    @pytest.mark.parametrize("seed", [3, 7])
    def test_bandwidth_threshold_path(self, seed):
        """§V-C budgets disable per-host feasibility shortcuts; the
        degenerate cached path must still match exactly."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=seed, policy="rr", bandwidth_threshold=0.9, n_iterations=3
        )
        for _ in range(2):
            assert_reports_equal(
                sched_c.run(n_iterations=3), sched_u.run(n_iterations=3)
            )

    def test_cache_actually_caches(self):
        """A converged re-run re-scores a small fraction of owners."""
        (env_c, sched_c), _ = build_twins(seed=4, policy="rr", n_iterations=4)
        profile = sched_c.enable_profiling()
        sched_c.run(n_iterations=6)
        before = profile.counts["owners_rescored"]
        seen_before = profile.counts["owners"]
        sched_c.run(n_iterations=2)
        rescored = profile.counts["owners_rescored"] - before
        seen = profile.counts["owners"] - seen_before
        assert rescored < seen * 0.5
        assert 0.0 < profile.cache_hit_ratio <= 1.0


class TestChurnAndDeltas:
    def test_traffic_deltas_between_rounds(self):
        """λ re-estimates between runs invalidate exactly the endpoints;
        trajectories stay equal over a multi-epoch drift loop."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=6, policy="rr", n_iterations=2
        )
        rng = make_rng(6)
        pairs = list(env_c.traffic.pairs())
        for epoch in range(4):
            picked = [
                pairs[int(i)]
                for i in rng.choice(len(pairs), 12, replace=False)
            ]
            delta = [
                (u, v, r * float(0.2 + 2 * rng.random()))
                for u, v, r in picked
            ]
            sched_c.apply_traffic_delta(delta)
            sched_u.apply_traffic_delta(delta)
            assert_reports_equal(
                sched_c.run(n_iterations=2), sched_u.run(n_iterations=2)
            )

    def test_churn_between_rounds(self):
        """Arrivals/departures flush the cache (dense remap); the next
        run rebuilds it and stays exact."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=8, policy="hlf", n_iterations=2
        )
        assert_reports_equal(
            sched_c.run(n_iterations=2), sched_u.run(n_iterations=2)
        )
        victims = sorted(env_c.allocation.vm_ids())[:3]
        sched_c.retire_vms(victims)
        sched_u.retire_vms(victims)
        assert_reports_equal(
            sched_c.run(n_iterations=2), sched_u.run(n_iterations=2)
        )
        next_id = max(env_c.allocation.vm_ids()) + 1
        template = next(iter(env_c.allocation.vms()))
        for env, sched in ((env_c, sched_c), (env_u, sched_u)):
            vms = [
                VM(next_id + i, ram_mb=template.ram_mb, cpu=template.cpu)
                for i in range(3)
            ]
            free = [
                h
                for h in env.topology.hosts
                if env.allocation.free_slots(h) > 0
            ]
            sched.admit_vms(vms, free[:3])
            hot = max(
                env.allocation.vm_ids(), key=lambda v: env.traffic.vm_load(v)
            )
            sched.apply_traffic_delta(
                [(vm.vm_id, hot, 400.0) for vm in vms]
            )
        assert_reports_equal(
            sched_c.run(n_iterations=3), sched_u.run(n_iterations=3)
        )


class TestAdversarialInvalidation:
    def test_freed_better_host_between_runs(self):
        """Retiring VMs frees strictly-better hosts after owners settled;
        the cached next round must notice without a full re-score."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=11, policy="rr", n_iterations=3, fill_fraction=0.95
        )
        assert_reports_equal(
            sched_c.run(n_iterations=3), sched_u.run(n_iterations=3)
        )
        # Free a whole host's worth of slots on the busiest host.
        busiest = max(
            env_c.topology.hosts, key=lambda h: len(env_c.allocation.vms_on(h))
        )
        victims = sorted(env_c.allocation.vms_on(busiest))[:3]
        sched_c.retire_vms(victims)
        sched_u.retire_vms(victims)
        assert_reports_equal(
            sched_c.run(n_iterations=3), sched_u.run(n_iterations=3)
        )

    def test_hlf_level_raise_mid_round(self):
        """HLF rewrites token levels at every round end; order
        snapshots and cached decisions must agree run after run."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=13, policy="hlf", n_iterations=3, pattern="medium"
        )
        for _ in range(3):
            assert_reports_equal(
                sched_c.run(n_iterations=3), sched_u.run(n_iterations=3)
            )
        assert [v for v in sched_c.token.vm_ids] == [
            v for v in sched_u.token.vm_ids
        ]
        assert sched_c.token.levels.tolist() == sched_u.token.levels.tolist()


class TestSetHostCapacity:
    def make_engine(self):
        topo = CanonicalTree(n_racks=4, hosts_per_rack=2)
        cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=8192, cpu=8.0))
        allocation = Allocation(cluster)
        rng = make_rng(3)
        for vm_id in range(12):
            allocation.add_vm(
                VM(vm_id, ram_mb=1024, cpu=1.0), int(rng.integers(0, 8))
            )
        traffic = TrafficMatrix()
        ids = sorted(allocation.vm_ids())
        for i in range(0, len(ids) - 1, 2):
            traffic.set_rate(ids[i], ids[i + 1], 100.0 + i)
        return allocation, traffic, FastCostEngine(allocation, traffic)

    def test_resize_is_seen_without_a_rebuild(self):
        allocation, traffic, fast = self.make_engine()
        allocation.set_host_capacity(0, max_vms=6, nic_bps=2e9)
        slots, _, _, nic = allocation.cluster.capacity_arrays()
        assert slots[0] == 6 and nic[0] == 2e9
        assert allocation.cluster.capacity(0).max_vms == 6
        # The engine agrees with a freshly built one (no rebuild needed).
        fresh = FastCostEngine(allocation, traffic)
        ids = sorted(allocation.vm_ids())
        batch = fast.candidate_batch(fast.dense_indices(ids))
        assert np.array_equal(
            fast.candidate_feasible(batch), fresh.candidate_feasible(batch)
        )
        assert np.array_equal(fast.uniform_host_ok(), fresh.uniform_host_ok())

    def test_shrink_below_usage_rejected(self):
        allocation, traffic, fast = self.make_engine()
        loaded = max(
            range(8), key=lambda h: len(allocation.vms_on(h))
        )
        with pytest.raises(ValueError):
            allocation.set_host_capacity(loaded, max_vms=0)

    def test_drain_offline_and_restore(self):
        """Offline drains zero a host's slots through the in-place patch;
        restore brings the saved capacity back and the host becomes a
        candidate again.  Cached and uncached twins stay equal."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=17, policy="rr", n_iterations=2
        )
        assert_reports_equal(
            sched_c.run(n_iterations=2), sched_u.run(n_iterations=2)
        )
        hosts = env_c.topology.hosts_in_rack(0)
        for sched in (sched_c, sched_u):
            moves = sched.drain_hosts(hosts, offline=True)
            assert all(t not in hosts for _, t in moves)
        for env in (env_c, env_u):
            for h in hosts:
                assert env.allocation.cluster.capacity(h).max_vms == 0
        assert_reports_equal(
            sched_c.run(n_iterations=2), sched_u.run(n_iterations=2)
        )
        # Nothing migrated back onto the offline rack.
        for env in (env_c, env_u):
            assert all(len(env.allocation.vms_on(h)) == 0 for h in hosts)
        for sched in (sched_c, sched_u):
            sched.restore_hosts(hosts)
        for env in (env_c, env_u):
            for h in hosts:
                assert env.allocation.cluster.capacity(h).max_vms > 0
        assert_reports_equal(
            sched_c.run(n_iterations=3), sched_u.run(n_iterations=3)
        )


def one_shot(action):
    """An ``event_pump`` that fires ``action`` exactly once — at the
    first pump, i.e. right after the first applied wave of the first
    round — then stays silent.  Returns (pump, fired_times)."""
    fired = []

    def pump(now):
        if fired:
            return False
        fired.append(now)
        return bool(action())

    return pump, fired


def assert_exact_vs_fresh(env, sched):
    fresh = FastCostEngine(env.allocation, env.traffic)
    live = sched.fastcost.total_cost()
    assert abs(live - fresh.total_cost()) <= 1e-9 * max(
        1.0, abs(fresh.total_cost())
    )


class TestMidRoundChurn:
    """Churn edge cases injected *between waves of an in-flight round*
    through the wave-loop pump: the cached and uncached twins must stay
    bit-exact, and the engine must match a from-scratch rebuild."""

    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    def test_retire_token_holder_mid_wave(self, policy):
        """The round's first visitor (already settled) and its last
        (still holding a pending visit) both retire after wave one: the
        decided retirement shrinks the allocation, the undecided one
        settles with the ``retired`` reason — identically in both twins."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=21, policy=policy, n_iterations=2
        )
        victims = {}
        pumps = []
        for key, sched in (("c", sched_c), ("u", sched_u)):

            def retire(sched=sched, key=key):
                ids = sorted(sched.token.vm_ids)
                victims[key] = [ids[0], ids[-1]]
                sched.retire_vms(victims[key])
                return True

            pumps.append(one_shot(retire)[0])
        rep_c = sched_c.run(n_iterations=2, event_pump=pumps[0])
        rep_u = sched_u.run(n_iterations=2, event_pump=pumps[1])
        assert victims["c"] == victims["u"]
        assert_reports_equal(rep_c, rep_u)
        assert rep_c.iterations[0].waves >= 2, "never went mid-round"
        for env, sched in ((env_c, sched_c), (env_u, sched_u)):
            for vm_id in victims["c"]:
                assert vm_id not in env.allocation
                assert vm_id not in sched.token
            assert_exact_vs_fresh(env, sched)
        # The highest id sits at the tail of the visit order under both
        # policies' first round here; its hold settles as retired.
        assert any(d.reason == "retired" for d in rep_c.decisions)

    def test_retire_pending_movers_peer_mid_wave(self):
        """A VM due to migrate late in the round loses its heaviest
        traffic peer after wave one — the Lemma-3 delta that justified
        the move changes under its feet, identically in both twins."""
        # Dry run on a third identically-seeded twin to find a late mover.
        (_, dry), _ = build_twins(seed=22, policy="rr", n_iterations=1)
        dry_rep = dry.run(n_iterations=1)
        movers = [d for d in dry_rep.decisions if d.migrated]
        assert movers, "seed 22 must produce migrations"
        late = movers[-1]
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=22, policy="rr", n_iterations=2
        )
        peer = max(
            (
                (v if u == late.vm_id else u, r)
                for u, v, r in env_c.traffic.pairs()
                if late.vm_id in (u, v)
            ),
            key=lambda t: t[1],
        )[0]
        pumps = [
            one_shot(lambda s=s: bool(s.retire_vms([peer]) or True))[0]
            for s in (sched_c, sched_u)
        ]
        rep_c = sched_c.run(n_iterations=2, event_pump=pumps[0])
        rep_u = sched_u.run(n_iterations=2, event_pump=pumps[1])
        assert_reports_equal(rep_c, rep_u)
        for env, sched in ((env_c, sched_c), (env_u, sched_u)):
            assert peer not in env.allocation
            assert_exact_vs_fresh(env, sched)

    def test_drain_wave_destination_host_mid_round(self):
        """The host a later wave wants to move onto drains offline after
        wave one: every cached candidate aimed there must be re-proposed,
        and nothing may land on the offline host."""
        (_, dry), _ = build_twins(seed=23, policy="rr", n_iterations=1)
        dry_rep = dry.run(n_iterations=1)
        movers = [d for d in dry_rep.decisions if d.migrated]
        assert movers, "seed 23 must produce migrations"
        target = movers[-1].target_host
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=23, policy="rr", n_iterations=2
        )
        pumps = [
            one_shot(
                lambda s=s: bool(
                    s.drain_hosts([target], offline=True) or True
                )
            )[0]
            for s in (sched_c, sched_u)
        ]
        rep_c = sched_c.run(n_iterations=2, event_pump=pumps[0])
        rep_u = sched_u.run(n_iterations=2, event_pump=pumps[1])
        assert_reports_equal(rep_c, rep_u)
        for env, sched in ((env_c, sched_c), (env_u, sched_u)):
            assert len(env.allocation.vms_on(target)) == 0
            assert env.allocation.cluster.capacity(target).max_vms == 0
            assert_exact_vs_fresh(env, sched)

    def test_admit_vms_between_waves(self):
        """Arrivals admitted after wave one sit out the in-flight round
        (its visit-order snapshot is fixed) and join the very next one:
        visits go n, then n + 2 — identically in both twins."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=24, policy="hlf", n_iterations=2
        )
        n_before = len(sched_c.token)
        pumps = []
        for env, sched in ((env_c, sched_c), (env_u, sched_u)):

            def admit(env=env, sched=sched):
                next_id = max(env.allocation.vm_ids()) + 1
                template = next(iter(env.allocation.vms()))
                vms = [
                    VM(next_id + i, ram_mb=template.ram_mb, cpu=template.cpu)
                    for i in range(2)
                ]
                free = [
                    h
                    for h in env.topology.hosts
                    if env.allocation.free_slots(h) > 0
                ]
                sched.admit_vms(vms, free[:2])
                hot = max(
                    env.allocation.vm_ids(),
                    key=lambda v: (env.traffic.vm_load(v), -v),
                )
                sched.apply_traffic_delta(
                    [(vm.vm_id, hot, 300.0) for vm in vms]
                )
                return True

            pumps.append(one_shot(admit)[0])
        rep_c = sched_c.run(n_iterations=2, event_pump=pumps[0])
        rep_u = sched_u.run(n_iterations=2, event_pump=pumps[1])
        assert_reports_equal(rep_c, rep_u)
        assert [i.visits for i in rep_c.iterations] == [
            n_before,
            n_before + 2,
        ]
        for env, sched in ((env_c, sched_c), (env_u, sched_u)):
            assert_exact_vs_fresh(env, sched)


class TestEngineInvalidation:
    def test_a_move_invalidates_exactly_its_mover_and_peers(self):
        allocation, traffic, fast = TestSetHostCapacity().make_engine()
        cache = fast.round_cache(None)
        cache.refresh()
        assert cache.valid.all()
        vm_id = sorted(allocation.vm_ids())[0]
        dense = fast.dense_indices([vm_id])
        source = allocation.server_of(vm_id)
        target = next(
            h
            for h in range(8)
            if h != source and allocation.can_host(h, allocation.vm(vm_id))
        )
        deltas = fast.apply_moves(dense, np.array([target], dtype=np.int64))
        assert len(deltas) == 1
        peers, _ = fast.snapshot.peers_slice(int(dense[0]))
        assert len(peers) > 0
        assert set(np.flatnonzero(~cache.valid).tolist()) == {
            int(dense[0]), *peers.tolist()
        }

    def test_structural_ops_flush(self):
        allocation, traffic, fast = TestSetHostCapacity().make_engine()
        cache = fast.round_cache(None)
        cache.refresh()
        assert cache.valid is not None and cache.batch is not None
        new_vm = VM(100, ram_mb=1024, cpu=1.0)
        assert fast.add_vms([new_vm], [0]) is None
        assert cache.valid is None and cache.batch is None  # flushed


def test_trajectory_stays_exact_across_rate_and_structural_deltas():
    """Cached vs uncached twins agree over epochs mixing rate-only and
    pair-removing deltas, each refresh re-scoring only dirty owners."""
    (env_c, sched_c), (env_u, sched_u) = build_twins(
        seed=14, policy="rr", n_iterations=2
    )
    profile = sched_c.enable_profiling()
    rng = make_rng(14)
    for epoch in range(4):
        us, vs, rates = env_c.traffic.pair_arrays()
        picked = rng.choice(len(us), 10, replace=False)
        delta = []
        for j, i in enumerate(picked):
            if j < 5:
                delta.append(
                    (int(us[i]), int(vs[i]), float(rates[i]) * 1.3)
                )
            else:
                delta.append((int(us[i]), int(vs[i]), 0.0))
        sched_c.apply_traffic_delta(delta)
        sched_u.apply_traffic_delta(delta)
        assert_reports_equal(
            sched_c.run(n_iterations=2), sched_u.run(n_iterations=2)
        )
    assert profile.counts["owners_rescored"] < profile.counts["owners"]


# -- splice differential -------------------------------------------------------

BATCH_ARRAYS = (
    "ptr", "host", "cover", "rank", "delta", "onto_rate", "source",
    "degree", "total_rate",
)


def small_config(seed, **overrides):
    settings = dict(
        n_racks=8, hosts_per_rack=4, tors_per_agg=2, n_cores=2,
        vms_per_host=4, policy="rr", seed=seed,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def drift_delta(traffic, rng, n_rate, n_removed=0):
    """Rate changes on random pairs; ``n_removed`` of them cease (which
    shrinks their endpoints' candidate sets and forces a real splice)."""
    us, vs, rates = traffic.pair_arrays()
    picked = rng.choice(len(us), n_rate + n_removed, replace=False)
    return [
        (
            int(us[i]),
            int(vs[i]),
            0.0 if j >= n_rate else float(rates[i]) * (0.5 + rng.random()),
        )
        for j, i in enumerate(picked)
    ]


def assert_cache_equals_fresh_scores(fast, cache):
    """Refresh, pin the cache against a from-scratch re-score and return
    the owners the refresh re-scored."""
    _, dirty = cache.refresh()
    fresh = fast.candidate_batch(
        np.arange(fast.snapshot.n_vms, dtype=np.int64), cache.max_candidates
    )
    for name in BATCH_ARRAYS:
        got, want = getattr(cache.batch, name), getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    return dirty


def _refreshed_cache(seed):
    """A small environment, its engine and a fully scored round cache."""
    env = build_environment(small_config(seed))
    fast = FastCostEngine(env.allocation, env.traffic)
    cache = fast.round_cache(None)
    cache.refresh()
    return env, fast, cache


@pytest.mark.roundcache
@pytest.mark.parametrize("seed", _cache_seeds([12]))
def test_refresh_splices_a_rate_only_delta(seed):
    """After a delta that only re-rates pairs, the refreshed cache equals
    a from-scratch re-score, array for array, having re-scored only the
    dirty owners."""
    env, fast, cache = _refreshed_cache(seed)
    us, vs, rates = env.traffic.pair_arrays()
    rate_only = [
        (int(us[i]), int(vs[i]), float(rates[i]) * 1.7) for i in range(6)
    ]
    env.traffic.apply_delta(rate_only)
    fast.apply_traffic_delta(rate_only)
    dirty = assert_cache_equals_fresh_scores(fast, cache)
    assert 0 < dirty.size < fast.snapshot.n_vms


@pytest.mark.roundcache
@pytest.mark.parametrize("seed", _cache_seeds([12]))
def test_refresh_splices_a_count_changing_delta(seed):
    """A delta that re-rates pairs and removes every pair of an owner
    holding rows (so its row count drops to 0): the refreshed cache
    equals a from-scratch re-score, array for array, having re-scored
    only the dirty owners, that owner among them."""
    env, fast, cache = _refreshed_cache(seed)
    n = fast.snapshot.n_vms
    owner = int(np.flatnonzero(np.diff(cache.batch.ptr))[0])
    vm = int(fast.snapshot.vm_ids[owner])
    us, vs, rates = env.traffic.pair_arrays()
    removed = [(int(u), int(v), 0.0) for u, v in zip(us, vs) if vm in (u, v)]
    others = [
        (int(u), int(v), float(r) * 1.7)
        for u, v, r in zip(us, vs, rates) if vm not in (u, v)
    ][:6]
    mixed = others + removed
    env.traffic.apply_delta(mixed)
    fast.apply_traffic_delta(mixed)
    dirty = assert_cache_equals_fresh_scores(fast, cache)
    assert 0 < dirty.size < n and owner in dirty
    assert cache.batch.ptr[owner + 1] == cache.batch.ptr[owner]


@pytest.mark.roundcache
@pytest.mark.parametrize("seed", _cache_seeds([3, 8]))
def test_spliced_cache_equals_a_fresh_score(seed):
    env = build_environment(small_config(seed))
    allocation, traffic = env.allocation, env.traffic
    fast = FastCostEngine(allocation, traffic)
    cache = fast.round_cache(None)
    rng = make_rng(seed)
    vm_ids = sorted(allocation.vm_ids())
    n_hosts = allocation.cluster.n_servers
    assert_cache_equals_fresh_scores(fast, cache)
    partial = 0
    for step in range(12):
        for _ in range(int(rng.integers(0, 4))):
            vm_id = vm_ids[int(rng.integers(len(vm_ids)))]
            target = int(rng.integers(n_hosts))
            if allocation.can_host(target, allocation.vm(vm_id)):
                fast.apply_moves(fast.dense_indices([vm_id]), [target])
        if step % 3 != 2:
            delta = drift_delta(traffic, rng, n_rate=4, n_removed=step % 2)
            traffic.apply_delta(delta)
            fast.apply_traffic_delta(delta)
        dirty = assert_cache_equals_fresh_scores(fast, cache)
        partial += 0 < dirty.size < len(vm_ids)
    assert partial > 0


@pytest.mark.roundcache
@pytest.mark.parametrize("seed", _cache_seeds([5, 21]))
def test_scheduled_epochs_keep_the_cache_equal_to_a_fresh_score(seed):
    """A drift / drain / fill / free script driven through the scheduler:
    after every epoch's round the cached trajectory equals the uncached
    twin's, and the round cache equals a from-scratch re-score — capacity
    flips change feasibility, never a scored row."""
    twins = build_twins(
        seed=seed, policy="rr", n_racks=12, hosts_per_rack=4,
        tors_per_agg=2, n_cores=2, vms_per_host=4, fill_fraction=0.9,
    )
    (env, sched), (_, twin) = twins
    schedulers = (sched, twin)
    assert_reports_equal(sched.run(n_iterations=4), twin.run(n_iterations=4))
    fast = sched.fastcost
    cache = fast.round_cache(None)
    allocation = env.allocation
    n = allocation.n_vms
    rng = make_rng(seed)
    rack = env.topology.hosts_in_rack(1)
    squeezed = {}
    partial = 0
    for epoch in range(14):
        delta = drift_delta(env.traffic, rng, n_rate=5, n_removed=epoch % 2)
        for s in schedulers:
            s.apply_traffic_delta(delta)
        if epoch % 4 == 1:
            # Two splices with no round between them.
            cache.refresh()
            delta = drift_delta(env.traffic, rng, n_rate=2, n_removed=1)
            for s in schedulers:
                s.apply_traffic_delta(delta)
        if epoch == 3:
            assert sched.drain_hosts(rack, offline=True) == twin.drain_hosts(
                rack, offline=True
            )
        if epoch == 7:
            for s in schedulers:
                s.restore_hosts(rack)
        if epoch in (5, 9):
            # Fill: shrink a few hosts that still have headroom to their
            # current usage.
            for h in rng.choice(allocation.cluster.n_servers, 6, replace=False):
                h = int(h)
                used = len(allocation.vms_on(h))
                slots = allocation.cluster.capacity(h).max_vms
                if h not in rack and h not in squeezed and 0 < used < slots:
                    squeezed[h] = slots
                    for s in schedulers:
                        s.set_host_capacity(h, max_vms=used)
        if epoch in (6, 11):
            # Free: the squeezed hosts get their slots back.
            for h, slots in squeezed.items():
                for s in schedulers:
                    s.set_host_capacity(h, max_vms=slots)
            squeezed.clear()
        assert_reports_equal(
            sched.run(n_iterations=1), twin.run(n_iterations=1)
        )
        dirty = assert_cache_equals_fresh_scores(fast, cache)
        partial += 0 < dirty.size < n
    assert partial > 0


def test_profile_counts_the_rows_each_cached_round_holds():
    """``--profile``'s cache line counts the rows each refreshed batch
    held, so the prune of gainless owners shows as a count: converging
    rounds hold fewer rows than the cold one.  Next to it, the rows every
    wave re-masked: at least the held rows (the first wave re-masks them
    all), and each later wave only its deferred owners' rows."""
    env = build_environment(small_config(3))
    sched = make_scheduler(env)
    profile = sched.enable_profiling()
    sched.run(n_iterations=1)
    cold = profile.counts["rows"]
    assert cold == sched.fastcost.round_cache(None).batch.n_rows > 0
    assert profile.counts["rows_remasked"] >= cold
    sched.run(n_iterations=3)
    assert profile.counts["rows"] - cold < 3 * cold
    line = next(text for text in profile.lines() if text.startswith("cache"))
    assert line.endswith(
        f"{profile.counts['rows']} rows held, "
        f"{profile.counts['rows_remasked']} rows re-masked"
    )


@pytest.mark.parametrize("phase", ["cold", "drift"])
def test_rowless_owners_settle_at_round_start_as_every_twin_decides(
    phase, monkeypatch
):
    """An owner the round's batch holds no rows for is decided before the
    first wave, in one write (``no_peers`` or ``no_gain``, delta 0), and
    the waves settle only owners with rows.  Its decision row is the
    uncached twin's, and the per-hold oracle's wherever the round moved
    none of its peers (Lemma 3: nothing else enters its decision)."""
    env = build_environment(small_config(4))
    sched = make_scheduler(env)
    if phase == "drift":
        sched.run(n_iterations=4)
        sched.quiesce()
        # Boost a few pairs split across hosts, so some owners gain.
        us, vs, rates = env.traffic.pair_arrays()
        split = [
            i for i in range(len(us))
            if env.allocation.server_of(int(us[i]))
            != env.allocation.server_of(int(vs[i]))
        ]
        sched.apply_traffic_delta([
            (int(us[i]), int(vs[i]), float(rates[i]) * 100.0)
            for i in split[::7][:12]
        ])
    state = pickle.dumps(sched)
    twins = [sched]
    for scheduler_class in (UncachedScheduler, PerHoldScheduler):
        copy = pickle.loads(state)
        twins.append(
            scheduler_class(
                copy.allocation, copy.traffic, copy._policy, copy._engine
            )
        )

    rowless, settled = [], []
    settle_rowless = BatchedRoundEngine._settle_rowless
    settle_owners = BatchedRoundEngine._settle_owners

    def spy_rowless(self, result, batch, rows, positions):
        assert (batch.ptr[rows + 1] == batch.ptr[rows]).all()
        rowless.append(positions[rows])
        settle_rowless(self, result, batch, rows, positions)

    def spy_owners(self, result, batch, rows, positions, choice, best):
        assert (batch.ptr[rows + 1] > batch.ptr[rows]).all()
        settled.append(len(rows))
        settle_owners(self, result, batch, rows, positions, choice, best)

    monkeypatch.setattr(BatchedRoundEngine, "_settle_rowless", spy_rowless)
    monkeypatch.setattr(BatchedRoundEngine, "_settle_owners", spy_owners)
    first = sched.token.lowest_id
    cached, uncached, per_hold = (
        twin.run(n_iterations=1, first_holder=first) for twin in twins
    )
    assert len(rowless) == 2 and settled  # one segment per batched twin
    assert np.array_equal(np.sort(rowless[0]), np.sort(rowless[1]))
    positions = rowless[0].tolist()
    assert positions
    want = decisions_key(uncached)
    got = decisions_key(cached)
    assert [got[i] for i in positions] == [want[i] for i in positions]
    for i in positions:
        _vm, target, migrated, reason, delta = got[i]
        assert (target, migrated, delta) == (None, False, 0.0)
        assert reason in ("no_peers", "no_gain")
    moved = {
        d.vm_id for report in (cached, per_hold)
        for d in report.decisions if d.migrated
    }
    oracle = decisions_key(per_hold)
    untouched = [
        i for i in positions
        if not env.traffic.peers_of(got[i][0]) & moved
    ]
    assert untouched
    assert [got[i] for i in untouched] == [oracle[i] for i in untouched]
    if phase == "drift":
        assert cached.total_migrations > 0  # the round is not trivial


def test_converged_epochs_never_sort_the_whole_cache(monkeypatch):
    """The paper's rack shape (20 hosts x 16 slots) at an eighth of its
    racks.  A converged drift epoch — delta, refresh, one full round —
    may sort / bisect / dedup per-owner inputs, never one the size of
    the cache (with only gaining owners' rows kept, at rack-block
    granularity, it holds fewer rows than there are owners) or of the
    population, including right after a renumbering splice."""
    env = build_environment(
        small_config(9, n_racks=16, hosts_per_rack=20, tors_per_agg=8,
                     n_cores=4, vms_per_host=16)
    )
    sched = make_scheduler(env)
    sched.run(n_iterations=5)
    sched.quiesce()
    cache = sched.fastcost.round_cache(None)
    n = env.allocation.n_vms
    rng = make_rng(9)
    largest = {}

    def watch(name, size_of):
        real = getattr(np, name)

        def watched(*args, **kwargs):
            largest[name] = max(largest.get(name, 0), size_of(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, watched)

    for name in ("sort", "argsort", "lexsort", "unique"):
        watch(name, lambda a, *_: np.size(a))
    watch("searchsorted", lambda a, needles, *_: np.size(needles))

    spliced_epochs = 0
    for _ in range(8):
        sched.apply_traffic_delta(
            drift_delta(env.traffic, rng, n_rate=6, n_removed=1)
        )
        held = cache.batch.n_rows
        assert held > 0
        counts = np.diff(cache.batch.ptr)
        largest.clear()
        sched.run(n_iterations=1)
        # A whole-cache sort trips this whichever way the refresh moved
        # the cache's size.
        bound = min(held, cache.batch.n_rows, n)
        assert max(largest.values()) < bound, largest
        # A renumbering splice: some re-scored owner's row count changed.
        spliced_epochs += not np.array_equal(counts, np.diff(cache.batch.ptr))
    assert spliced_epochs >= 4
