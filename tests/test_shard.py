"""Differential suite for the sharded scheduler (``repro.shard``).

Three layers:

* **Partition unit tests** — whole-pod domains, deterministic packing,
  boundary bookkeeping, the independent-domain property.
* **The exact pin** — on seeds whose traffic is confined to pods
  (domains truly independent), a sharded run must produce the identical
  final mapping and a final cost within 1e-9 of the single-domain
  engine.  This is the acceptance-criteria differential.
* **The fuzzed cross-domain matrix** — random traffic mixing intra- and
  cross-pod pairs so the partition cannot confine everything: the
  reconciliation pass must run, only ever reduce the exact global cost,
  and leave the incremental total exactly equal to a from-scratch
  recompute.  ``pytest -m shard`` widens the seed matrix
  (``REPRO_SHARD_SEEDS`` — CI runs it as its own job).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.cost import CostModel
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.scheduler import SCOREScheduler
from repro.reference import NaiveScheduler
from repro.shard import build_partition
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.traffic.matrix import TrafficMatrix

SMALL = ExperimentConfig(
    n_racks=8,
    hosts_per_rack=4,
    tors_per_agg=2,
    n_cores=2,
    vms_per_host=4,
    pattern="sparse",
)


def pod_confined_traffic(env, seed: int, pairs_per_vm: float = 1.5):
    """Random traffic whose every pair stays inside one pod."""
    rng = np.random.default_rng(seed)
    vm_ids = np.array(sorted(env.allocation.vm_ids()))
    hosts, _, _ = env.allocation.mapping_arrays(vm_ids)
    pods = env.topology.host_pod_ids()[hosts]
    matrix = TrafficMatrix()
    for pod in np.unique(pods):
        members = vm_ids[pods == pod]
        for _ in range(int(len(members) * pairs_per_vm)):
            u, v = rng.choice(members, 2, replace=False)
            matrix.add_rate(int(u), int(v), float(rng.uniform(1e5, 1e7)))
    return matrix


def mixed_traffic(env, seed: int, cross_fraction: float = 0.15):
    """Random traffic with a controlled share of cross-pod pairs."""
    rng = np.random.default_rng(seed)
    vm_ids = np.array(sorted(env.allocation.vm_ids()))
    hosts, _, _ = env.allocation.mapping_arrays(vm_ids)
    pods = env.topology.host_pod_ids()[hosts]
    matrix = TrafficMatrix()
    for pod in np.unique(pods):
        members = vm_ids[pods == pod]
        for _ in range(int(len(members) * 1.2)):
            u, v = rng.choice(members, 2, replace=False)
            matrix.add_rate(int(u), int(v), float(rng.uniform(1e5, 1e7)))
    n_cross = int(len(vm_ids) * cross_fraction)
    for _ in range(n_cross):
        u, v = rng.choice(vm_ids, 2, replace=False)
        matrix.add_rate(int(u), int(v), float(rng.uniform(1e5, 1e7)))
    return matrix


def sharded_scheduler(env, traffic, policy="hlf", **kwargs):
    return SCOREScheduler(
        env.allocation,
        traffic,
        policy_by_name(policy),
        MigrationEngine(env.cost_model),
        use_sharding=True,
        **kwargs,
    )


def single_scheduler(env, traffic, policy="hlf"):
    return SCOREScheduler(
        env.allocation,
        traffic,
        policy_by_name(policy),
        MigrationEngine(env.cost_model),
    )


class TestPartition:
    def test_domains_are_whole_pods(self):
        env = build_environment(SMALL.with_(seed=5))
        part = build_partition(
            env.allocation, env.traffic, env.topology, n_domains=4
        )
        assert part.n_domains >= 1
        seen = np.concatenate(part.pods_of_domain)
        assert sorted(seen.tolist()) == list(range(len(part.domain_of_pod)))
        for d, pods in enumerate(part.pods_of_domain):
            assert (part.domain_of_pod[pods] == d).all()

    def test_every_vm_in_exactly_one_domain(self):
        env = build_environment(SMALL.with_(seed=5))
        part = build_partition(
            env.allocation, env.traffic, env.topology, n_domains=4
        )
        all_vms = np.concatenate(part.vms_of_domain)
        assert sorted(all_vms.tolist()) == sorted(env.allocation.vm_ids())

    def test_pod_confined_traffic_has_no_boundary(self):
        env = build_environment(SMALL.with_(seed=5))
        traffic = pod_confined_traffic(env, 5)
        part = build_partition(
            env.allocation, traffic, env.topology, n_domains=4
        )
        assert part.is_independent
        assert part.cross_rate_fraction == 0.0
        assert part.boundary_vms.size == 0

    def test_cross_pairs_and_boundary_agree(self):
        env = build_environment(SMALL.with_(seed=7))
        traffic = mixed_traffic(env, 7)
        part = build_partition(
            env.allocation, traffic, env.topology, n_domains=4
        )
        us, vs, rates = part.cross_pairs
        endpoints = np.unique(np.concatenate([us, vs])) if us.size else \
            np.empty(0, dtype=np.int64)
        assert (part.boundary_vms == endpoints).all()
        # Intra + cross partition the full pair set.
        n_intra = sum(p[0].size for p in part.intra_pairs)
        assert n_intra + us.size == traffic.n_pairs

    def test_domain_slices_keep_the_global_order(self):
        """Each domain's VMs and intra pairs are exactly the global arrays
        masked to that domain, in their global order."""
        env = build_environment(SMALL.with_(seed=7))
        traffic = mixed_traffic(env, 7)
        part = build_partition(env.allocation, traffic, env.topology, 4)
        vm_ids = np.array(sorted(env.allocation.vm_ids()))
        pods = env.topology.host_pod_ids()
        hosts, _, _ = env.allocation.mapping_arrays(vm_ids)
        domain_of_vm = part.domain_of_pod[pods[hosts]]
        us, vs, rates = traffic.pair_arrays()
        dom_u = domain_of_vm[np.searchsorted(vm_ids, us)]
        dom_v = domain_of_vm[np.searchsorted(vm_ids, vs)]
        for d in range(part.n_domains):
            assert np.array_equal(
                part.vms_of_domain[d], vm_ids[domain_of_vm == d]
            )
            inside = (dom_u == d) & (dom_v == d)
            for got, want in zip(part.intra_pairs[d], (us, vs, rates)):
                assert np.array_equal(got, want[inside])

    def test_partition_is_deterministic(self):
        env = build_environment(SMALL.with_(seed=9))
        traffic = mixed_traffic(env, 9)
        a = build_partition(env.allocation, traffic, env.topology, 3)
        b = build_partition(env.allocation, traffic, env.topology, 3)
        assert (a.domain_of_pod == b.domain_of_pod).all()
        for x, y in zip(a.vms_of_domain, b.vms_of_domain):
            assert (x == y).all()


QUICK_SEEDS = [3, 17, 29]


class TestExactPin:
    """Sharded == single-domain on independent-domain seeds."""

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    def test_sharded_matches_single_domain(self, seed, policy):
        config = SMALL.with_(seed=seed)
        env_single = build_environment(config)
        env_sharded = build_environment(config)
        t_single = pod_confined_traffic(env_single, seed)
        t_sharded = pod_confined_traffic(env_sharded, seed)

        r_single = single_scheduler(env_single, t_single, policy).run(3)
        r_sharded = sharded_scheduler(
            env_sharded, t_sharded, policy, n_domains=4
        ).run(3)

        assert env_single.allocation.as_dict() == env_sharded.allocation.as_dict()
        scale = max(1.0, abs(r_single.final_cost))
        assert abs(r_single.final_cost - r_sharded.final_cost) / scale <= 1e-9
        assert r_single.total_migrations == r_sharded.total_migrations

    def test_reconcile_is_noop_on_independent_domains(self):
        env = build_environment(SMALL.with_(seed=3))
        traffic = pod_confined_traffic(env, 3)
        scheduler = sharded_scheduler(env, traffic, n_domains=4)
        report = scheduler.run(3)
        # No boundary VMs -> no reconcile IterationStats entry appended.
        assert len(report.iterations) == 3


class TestCrossDomainReconciliation:
    def test_reconcile_runs_and_cost_is_exact(self):
        env = build_environment(SMALL.with_(seed=21))
        traffic = mixed_traffic(env, 21)
        scheduler = sharded_scheduler(env, traffic, n_domains=4)
        report = scheduler.run(3)
        exact = env.cost_model.total_cost(env.allocation, traffic)
        assert report.final_cost == pytest.approx(exact, rel=1e-9)
        assert report.final_cost <= report.initial_cost

    def test_fork_executor_matches_serial(self):
        config = SMALL.with_(seed=11)
        env_a = build_environment(config)
        env_b = build_environment(config)
        t_a = mixed_traffic(env_a, 11)
        t_b = mixed_traffic(env_b, 11)
        r_a = sharded_scheduler(env_a, t_a, n_domains=4, n_workers=1).run(2)
        r_b = sharded_scheduler(env_b, t_b, n_domains=4, n_workers=2).run(2)
        assert env_a.allocation.as_dict() == env_b.allocation.as_dict()
        assert r_a.final_cost == r_b.final_cost
        assert r_a.total_migrations == r_b.total_migrations

    def test_sharded_run_beats_or_matches_no_op(self):
        env = build_environment(SMALL.with_(seed=13))
        traffic = mixed_traffic(env, 13, cross_fraction=0.4)
        scheduler = sharded_scheduler(env, traffic, n_domains=4)
        report = scheduler.run(2)
        assert report.final_cost <= report.initial_cost
        assert report.total_migrations > 0

    def test_event_pump_boundary_granular(self):
        """Sharded runs drive an event pump at iteration boundaries.

        The pump mutates through the scheduler's delta APIs (which keep
        the live fleet in step), and the final cost stays exactly equal
        to a from-scratch recompute of the mutated state.
        """
        env = build_environment(SMALL.with_(seed=21))
        traffic = mixed_traffic(env, 21)
        scheduler = sharded_scheduler(env, traffic, n_domains=4)
        boundaries = []

        def pump(now_s):
            boundaries.append(now_s)
            us, vs, _ = scheduler.traffic.pair_arrays()
            if len(boundaries) == 1 and us.size:
                scheduler.apply_traffic_delta(
                    [(int(us[0]), int(vs[0]), 5e6)]
                )
                return True
            return False

        report = scheduler.run(3, event_pump=pump)
        scheduler.close()
        assert len(boundaries) >= 3
        exact = env.cost_model.total_cost(env.allocation, scheduler.traffic)
        assert report.final_cost == pytest.approx(exact, rel=1e-9)


class TestShardingRefusals:
    """Sharding that cannot run is refused when the scheduler is built,
    with a ``ValueError`` — not at the first ``run()``."""

    def test_fat_tree_is_refused_by_name(self):
        config = ExperimentConfig(topology="fattree", sharding=True)
        env = build_environment(config)
        with pytest.raises(ValueError, match="FatTree"):
            make_scheduler(env)

    def test_cli_refuses_fat_tree_sharding(self):
        from repro.cli import main

        with pytest.raises(ValueError, match="canonical tree"):
            main(["run", "--topology", "fattree", "--shards", "4",
                  "--iterations", "1"])

    def test_naive_oracle_refuses_sharding(self):
        env = build_environment(SMALL.with_(seed=5))
        with pytest.raises(ValueError, match="fast engine"):
            NaiveScheduler(
                env.allocation,
                env.traffic,
                policy_by_name("hlf"),
                MigrationEngine(env.cost_model),
                use_sharding=True,
            )


def _shard_seeds():
    raw = os.environ.get("REPRO_SHARD_SEEDS", "")
    if raw.strip():
        return [int(s) for s in raw.split(",") if s.strip()]
    return [101, 202, 303, 404, 505]


@pytest.mark.shard
@pytest.mark.parametrize("policy", ["rr", "hlf"])
@pytest.mark.parametrize("seed", _shard_seeds())
def test_shard_seed_matrix(seed, policy):
    """The wide matrix CI runs as its own job.

    Per seed: (a) the exact pin on pod-confined traffic, (b) the fuzzed
    cross-domain matrix — varying cross fraction and domain count — with
    exactness of the incremental global cost asserted after every run,
    (c) fork/serial agreement.
    """
    config = SMALL.with_(seed=seed)
    # (a) exact pin.
    env_single = build_environment(config)
    env_sharded = build_environment(config)
    t_single = pod_confined_traffic(env_single, seed)
    t_sharded = pod_confined_traffic(env_sharded, seed)
    r_single = single_scheduler(env_single, t_single, policy).run(3)
    r_sharded = sharded_scheduler(
        env_sharded, t_sharded, policy, n_domains=4
    ).run(3)
    assert env_single.allocation.as_dict() == env_sharded.allocation.as_dict()
    scale = max(1.0, abs(r_single.final_cost))
    assert abs(r_single.final_cost - r_sharded.final_cost) / scale <= 1e-9

    # (b) fuzzed cross-domain matrix.
    rng = np.random.default_rng(seed)
    for _ in range(3):
        cross = float(rng.uniform(0.05, 0.5))
        n_domains = int(rng.integers(2, 5))
        env = build_environment(config)
        traffic = mixed_traffic(env, seed, cross_fraction=cross)
        report = sharded_scheduler(
            env, traffic, policy, n_domains=n_domains
        ).run(2)
        exact = env.cost_model.total_cost(env.allocation, traffic)
        assert report.final_cost == pytest.approx(exact, rel=1e-9)
        assert report.final_cost <= report.initial_cost

    # (c) fork/serial agreement on the mixed matrix.
    env_a = build_environment(config)
    env_b = build_environment(config)
    r_a = sharded_scheduler(
        env_a, mixed_traffic(env_a, seed), policy, n_domains=4, n_workers=1
    ).run(2)
    r_b = sharded_scheduler(
        env_b, mixed_traffic(env_b, seed), policy, n_domains=4, n_workers=2
    ).run(2)
    assert env_a.allocation.as_dict() == env_b.allocation.as_dict()
    assert r_a.final_cost == r_b.final_cost
