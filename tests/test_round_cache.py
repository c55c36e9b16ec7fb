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
from repro.core.scheduler import SCOREScheduler
from repro.reference import UncachedScheduler, host_rows
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
        sched_c.run(n_iterations=6)
        cache = sched_c.fastcost.round_cache()
        before = cache.owners_rescored
        seen_before = cache.owners_seen
        sched_c.run(n_iterations=2)
        rescored = cache.owners_rescored - before
        seen = cache.owners_seen - seen_before
        assert rescored < seen * 0.5
        assert 0.0 < cache.hit_ratio <= 1.0


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


class TestEngineTouchedSets:
    def test_apply_moves_reports_footprint(self):
        allocation, traffic, fast = TestSetHostCapacity().make_engine()
        ids = sorted(allocation.vm_ids())
        vm_id = ids[0]
        dense = fast.dense_indices([vm_id])
        source = allocation.server_of(vm_id)
        target = next(
            h
            for h in range(8)
            if h != source and allocation.can_host(h, allocation.vm(vm_id))
        )
        deltas, touched = fast.apply_moves(
            dense, np.array([target], dtype=np.int64)
        )
        assert len(deltas) == 1
        assert source in touched.hosts and target in touched.hosts
        assert dense[0] in touched.owners
        peers, _ = fast.snapshot.peers_slice(int(dense[0]))
        assert set(peers.tolist()) <= set(touched.owners.tolist())
        assert not touched.structural

    def test_structural_ops_flush(self):
        allocation, traffic, fast = TestSetHostCapacity().make_engine()
        cache = fast.round_cache()
        cache.refresh()
        assert cache._valid is not None
        new_vm = VM(100, ram_mb=1024, cpu=1.0)
        touched = fast.add_vms([new_vm], [0])
        assert touched.structural
        assert cache._valid is None  # flushed


class TestHybridSplice:
    """The hybrid refresh splice: same-candidate-count owners take an
    in-place scatter, only the changed-count subset pays the renumbering
    splice — pinned bit-exact against a from-scratch full batch."""

    def make_engine(self, seed=12):
        env = build_environment(
            ExperimentConfig(
                n_racks=8,
                hosts_per_rack=4,
                tors_per_agg=2,
                n_cores=2,
                vms_per_host=4,
                seed=seed,
            )
        )
        fast = FastCostEngine(env.allocation, env.traffic)
        cache = fast.round_cache()
        cache.refresh()
        return env, fast, cache

    @staticmethod
    def assert_pinned(fast, cache):
        """The cache's full batch must equal a from-scratch re-score."""
        n = fast.snapshot.n_vms
        cached, _ = cache.refresh()
        fresh = fast.candidate_batch(
            np.arange(n, dtype=np.int64), cache.max_candidates
        )
        assert np.array_equal(cached.ptr, fresh.ptr)
        for mine, theirs in zip(host_rows(cached), host_rows(fresh)):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(cached.host, fresh.host)
        assert np.array_equal(cached.cover, fresh.cover)
        assert np.array_equal(cached.rank, fresh.rank)
        assert np.array_equal(cached.delta, fresh.delta)
        assert np.array_equal(cached.onto_rate, fresh.onto_rate)
        assert np.array_equal(cached.source, fresh.source)
        assert np.array_equal(cached.degree, fresh.degree)
        assert np.array_equal(cached.total_rate, fresh.total_rate)

    def test_rate_only_delta_takes_scatter_path(self):
        env, fast, cache = self.make_engine()
        us, vs, rates = env.traffic.pair_arrays()
        delta = [
            (int(us[i]), int(vs[i]), float(rates[i]) * 1.7) for i in range(6)
        ]
        env.traffic.apply_delta(delta)
        fast.apply_traffic_delta(delta)
        spliced_before = cache.owners_spliced
        self.assert_pinned(fast, cache)
        assert cache.owners_scattered > 0
        assert cache.owners_spliced == spliced_before  # no renumbering paid

    def test_mixed_delta_takes_hybrid_path(self):
        env, fast, cache = self.make_engine()
        us, vs, rates = env.traffic.pair_arrays()
        # Rate-only changes keep those owners' candidate counts; removing
        # pairs entirely shrinks the endpoints' candidate racks — one
        # refresh sees both kinds of dirty owner at once.
        rate_only = [
            (int(us[i]), int(vs[i]), float(rates[i]) * 2.1) for i in range(5)
        ]
        removed = [
            (int(us[i]), int(vs[i]), 0.0) for i in range(len(us) - 4, len(us))
        ]
        delta = rate_only + removed
        env.traffic.apply_delta(delta)
        fast.apply_traffic_delta(delta)
        scattered_before = cache.owners_scattered
        spliced_before = cache.owners_spliced
        self.assert_pinned(fast, cache)
        assert cache.owners_scattered > scattered_before
        assert cache.owners_spliced > spliced_before

    def test_hybrid_trajectory_stays_exact_across_rounds(self):
        """Cached vs uncached twins agree over epochs alternating rate-only
        and structural deltas — the hybrid path is exercised by the former,
        the splice by the latter, and the trajectory must not drift."""
        (env_c, sched_c), (env_u, sched_u) = build_twins(
            seed=14, policy="rr", n_iterations=2
        )
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
        cache = sched_c.fastcost.round_cache()
        assert cache.owners_scattered > 0


# -- splice differential -------------------------------------------------------

BATCH_ARRAYS = (
    "ptr", "host", "cover", "rank", "delta", "onto_rate", "source",
    "degree", "total_rate",
)
CACHE_ARRAYS = tuple("_" + name for name in BATCH_ARRAYS)


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
    cache.refresh()
    fresh = fast.candidate_batch(
        np.arange(fast.snapshot.n_vms, dtype=np.int64), cache.max_candidates
    )
    for mine, theirs in zip(CACHE_ARRAYS, BATCH_ARRAYS):
        got, want = getattr(cache, mine), getattr(fresh, theirs)
        assert got.dtype == want.dtype, mine
        assert np.array_equal(got, want), mine


@pytest.mark.roundcache
@pytest.mark.parametrize("seed", _cache_seeds([3, 8]))
def test_spliced_cache_equals_a_fresh_score(seed):
    env = build_environment(small_config(seed))
    allocation, traffic = env.allocation, env.traffic
    fast = FastCostEngine(allocation, traffic)
    cache = fast.round_cache()
    rng = make_rng(seed)
    vm_ids = sorted(allocation.vm_ids())
    n_hosts = allocation.cluster.n_servers
    assert_cache_equals_fresh_scores(fast, cache)
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
        assert_cache_equals_fresh_scores(fast, cache)
    assert cache.owners_spliced > 0 and cache.owners_scattered > 0


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
    cache = fast.round_cache()
    allocation = env.allocation
    rng = make_rng(seed)
    rack = env.topology.hosts_in_rack(1)
    squeezed = {}
    spliced = cache.owners_spliced
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
        assert_cache_equals_fresh_scores(fast, cache)
    assert cache.owners_spliced > spliced


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
    assert cold == len(sched.fastcost.round_cache()._host) > 0
    assert profile.counts["rows_remasked"] >= cold
    sched.run(n_iterations=3)
    assert profile.counts["rows"] - cold < 3 * cold
    line = next(text for text in profile.lines() if text.startswith("cache"))
    assert line.endswith(
        f"{profile.counts['rows']} rows held, "
        f"{profile.counts['rows_remasked']} rows re-masked"
    )


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
    cache = sched.fastcost.round_cache()
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
        held = len(cache._host)
        assert held > 0
        spliced = cache.owners_spliced
        largest.clear()
        sched.run(n_iterations=1)
        # A whole-cache sort trips this whichever way the refresh moved
        # the cache's size.
        bound = min(held, len(cache._host), n)
        assert max(largest.values()) < bound, largest
        spliced_epochs += cache.owners_spliced > spliced
    assert spliced_epochs >= 4
