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

from repro import VM
from repro.core.cost import CostModel
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.rounds import DecisionColumns
from repro.core.scheduler import SCOREScheduler
from repro.reference import NaiveScheduler
from repro.shard import ShardedCoordinator, build_partition
from repro.shard import coordinator as coordinator_module
from repro.shard import shm
from repro.shard.domain import DomainRoundOutcome
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
        # Reconcile moves leave the fleet stale: its domains no longer
        # mirror the global placement.
        assert len(report.iterations) == 4  # the reconcile entry
        assert report.iterations[-1].migrations > 0
        assert scheduler._shard_coordinator.stale

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

    def test_event_pump_boundary_granular(self, monkeypatch):
        """Sharded runs drive an event pump at iteration boundaries.

        The pump mutates through the scheduler's delta APIs, which
        retire the fleet.  A mutation at an inner boundary makes the
        next iteration rebuild it; one at the last boundary builds no
        fleet, and the reconcile reads a fresh partition's boundary.
        The final cost stays exactly equal to a from-scratch recompute
        of the mutated state.
        """
        builds = []
        build = ShardedCoordinator.__init__

        def counted_build(fleet, *args, **kwargs):
            builds.append(fleet)
            build(fleet, *args, **kwargs)

        monkeypatch.setattr(ShardedCoordinator, "__init__", counted_build)
        boundaries_seen = []
        reconcile = coordinator_module.reconcile_boundary

        def spied_reconcile(engine, fast, boundary_vms, **kwargs):
            boundaries_seen.append(np.asarray(boundary_vms))
            return reconcile(engine, fast, boundary_vms, **kwargs)

        monkeypatch.setattr(
            coordinator_module, "reconcile_boundary", spied_reconcile
        )
        env = build_environment(SMALL.with_(seed=21))
        traffic = mixed_traffic(env, 21)
        scheduler = sharded_scheduler(env, traffic, n_domains=4)
        allocation, topology = env.allocation, env.topology
        boundaries = []
        fleets = []
        expected = []

        def pump(now_s):
            boundaries.append(now_s)
            fleets.append(scheduler._shard_coordinator)
            if len(boundaries) == 2:
                return False
            # A new pair from a VM off the boundary to one in another
            # pod puts it on the boundary.
            on_boundary = set(fleets[-1].partition.boundary_vms.tolist())
            placed = sorted(allocation.as_dict().items())
            u, u_pod = next((vm, topology.pod_of(h)) for vm, h in placed
                            if vm not in on_boundary)
            v = next(vm for vm, h in placed if topology.pod_of(h) != u_pod)
            scheduler.apply_traffic_delta([(u, v, 5e6)])
            assert fleets[-1].stale
            expected.append(
                build_partition(allocation, scheduler.traffic, topology, 4)
            )
            return True

        report = scheduler.run(3, event_pump=pump)
        scheduler.close()
        assert len(boundaries) == 3
        # Only the inner mutated boundary rebuilt the fleet.
        assert builds == [fleets[0], fleets[1]] and fleets[2] is fleets[1]
        stale_boundary = fleets[2].partition.boundary_vms
        assert not np.array_equal(expected[-1].boundary_vms, stale_boundary)
        assert len(boundaries_seen) == 1
        np.testing.assert_array_equal(
            boundaries_seen[0], expected[-1].boundary_vms
        )
        exact = env.cost_model.total_cost(env.allocation, scheduler.traffic)
        assert report.final_cost == pytest.approx(exact, rel=1e-9)


class TestDomainOutcomeFrame:
    """A domain round ships as its decision columns, ``wave`` included."""

    COLUMNS = ("vm", "source", "target", "delta", "reason", "wave")

    def _fleet(self, seed=21):
        env = build_environment(SMALL.with_(seed=seed))
        traffic = mixed_traffic(env, seed)
        scheduler = sharded_scheduler(env, traffic, n_domains=4, n_workers=1)
        return scheduler, scheduler._ensure_shard_fleet()

    def test_a_domain_token_circulates_its_allocations_id_column(self):
        scheduler, fleet = self._fleet()
        for domain in fleet.domains:
            assert np.shares_memory(
                domain.token.ids, domain.allocation.columns()[0]
            )
        scheduler.close()

    def test_a_real_round_survives_the_slab_round_trip(self):
        scheduler, fleet = self._fleet()
        domain = max(fleet.domains, key=lambda d: d.n_vms)
        outcome = domain.run_round()
        assert outcome.migrations > 0
        buf = memoryview(bytearray(shm.buffer_bytes([domain.n_vms])))
        header, end = shm.pack_outcome(buf, 0, len(buf), outcome, 0, 0.5)
        assert end <= len(buf)
        back = shm.unpack_outcome(buf, header)
        assert (back.domain_id, back.migrations, back.waves) == (
            outcome.domain_id, outcome.migrations, outcome.waves,
        )
        for name in self.COLUMNS:
            sent = getattr(outcome.decisions, name)
            got = getattr(back.decisions, name)
            assert got.dtype == sent.dtype, name
            np.testing.assert_array_equal(got, sent, err_msg=name)
        scheduler.close()

    @pytest.mark.parametrize("n_vms", [1, 100, 5000])
    def test_the_worst_case_frame_fits_its_buffer(self, n_vms):
        """Every hold migrates, each in its own wave, on ids at the int32
        bound: the frame still fits, so no ``bulk`` fallback."""
        capacity = shm.buffer_bytes([n_vms])
        n = int(n_vms * shm._CAPACITY_SLACK) + 64
        cols = DecisionColumns(n)
        cols.vm[:] = shm._I32_MAX - np.arange(n)
        cols.source[:] = shm._I32_MAX
        cols.target[:] = shm._I32_MAX - 1
        cols.delta[:] = 1.0
        cols.reason[:] = 3
        cols.wave[:] = np.arange(1, n + 1)
        outcome = DomainRoundOutcome(0, cols, n, n)
        buf = memoryview(bytearray(capacity))
        packed = shm.pack_outcome(buf, 0, capacity, outcome, 0, 0.0)
        assert packed is not None
        back = shm.unpack_outcome(buf, packed[0])
        for name in self.COLUMNS:
            np.testing.assert_array_equal(
                getattr(back.decisions, name), getattr(cols, name)
            )


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


def _free_hosts_in_pod(allocation, pod, need):
    """``need`` free slots of ``pod``, lowest host first (a host with
    several free slots repeats)."""
    topology = allocation.topology
    slots = [
        h for h in range(topology.n_hosts) if topology.pod_of(h) == pod
        for _ in range(allocation.free_slots(h))
    ]
    assert len(slots) >= need, "not enough free slots in the pod"
    return slots[:need]


@pytest.mark.shard
@pytest.mark.parametrize("seed", _shard_seeds())
def test_every_mutation_kind_retires_the_fleet_and_stays_exact(seed):
    """Every mutation kind — traffic delta, capacity, threshold, admit
    with traffic, retire, and a whole pod retired then re-admitted —
    retires the live fleet, and the next run rebuilds it from the global
    state onto the single-domain trajectory (pod-confined traffic keeps
    the domains independent)."""
    config = SMALL.with_(seed=seed)
    env_single = build_environment(config)
    env_sharded = build_environment(config)
    single = single_scheduler(env_single, pod_confined_traffic(env_single, seed))
    sharded = sharded_scheduler(
        env_sharded, pod_confined_traffic(env_sharded, seed), n_domains=4
    )
    topology = env_sharded.topology
    allocation = env_sharded.allocation

    def mutate_and_compare(mutate, n_iterations=1):
        fleet = sharded._shard_coordinator
        assert not fleet.stale
        for scheduler in (single, sharded):
            mutate(scheduler)
        assert fleet.stale
        r_single = single.run(n_iterations)
        r_sharded = sharded.run(n_iterations)
        assert sharded._shard_coordinator is not fleet
        assert not sharded._shard_coordinator.stale
        assert env_single.allocation.as_dict() == allocation.as_dict()
        scale = max(1.0, abs(r_single.final_cost))
        assert abs(r_single.final_cost - r_sharded.final_cost) / scale <= 1e-9
        return sharded._shard_coordinator

    single.run(1)
    sharded.run(1)

    # Traffic delta: re-estimate a handful of existing pairs.
    us, vs, rates = sharded.traffic.pair_arrays()
    delta = [(int(u), int(v), float(r) * 1.7 + 1e4)
             for u, v, r in zip(us[:8], vs[:8], rates[:8])]

    def reestimate(scheduler):
        assert scheduler.apply_traffic_delta(delta) == len(delta)

    mutate_and_compare(reestimate)

    # Capacity: the fullest host stops taking arrivals (and gets a
    # faster NIC); the emptiest loses its spare slots.  The rebuilt
    # domains mirror the new capacity.
    def loads():
        return [len(allocation.vms_on(h)) for h in range(topology.n_hosts)]

    def local_capacity(fleet, host):
        domain = next(d for d in fleet.domains if host in d.global_hosts)
        local = int(np.searchsorted(domain.global_hosts, host))
        return domain.allocation.cluster.capacity(local).max_vms

    full_load = max(loads())
    full = loads().index(full_load)
    fleet = mutate_and_compare(
        lambda s: s.set_host_capacity(full, max_vms=full_load, nic_bps=2e9)
    )
    assert local_capacity(fleet, full) == full_load
    empty_load = min(loads())
    empty = loads().index(empty_load)
    fleet = mutate_and_compare(
        lambda s: s.set_host_capacity(empty, max_vms=empty_load)
    )
    assert local_capacity(fleet, empty) == empty_load

    # Threshold: a tighter §V-C budget reaches every rebuilt domain.
    fleet = mutate_and_compare(lambda s: s.set_bandwidth_threshold(0.5))
    assert all(d.engine.bandwidth_threshold == 0.5 for d in fleet.domains)

    # Admit with traffic, then retire two of the original population.
    # Each arrival talks to two residents of its pod at distinct rates:
    # a lone pair would tie (either end may move to the other), and a
    # domain breaks ties from its own token holder, not the global one.
    def residents(pod):
        placed = allocation.as_dict().items()
        return sorted(v for v, h in placed if topology.pod_of(h) == pod)

    free = np.bincount(
        topology.host_pod_ids(),
        weights=[allocation.free_slots(h) for h in range(topology.n_hosts)],
    )
    pod = int(np.argmax(free))
    base = max(allocation.vm_ids()) + 1
    hosts = _free_hosts_in_pod(allocation, pod, 3)
    peers = residents(pod)

    def admit(scheduler):
        newcomers = [VM(base + i, ram_mb=64, cpu=0.1) for i in range(3)]
        scheduler.admit_vms(newcomers, hosts)
        scheduler.apply_traffic_delta(
            [(vm.vm_id, p, 2e6) for vm, p in zip(newcomers, peers)]
            + [(vm.vm_id, p, 1.3e6) for vm, p in zip(newcomers, peers[3:])]
        )

    mutate_and_compare(admit)
    mutate_and_compare(lambda s: s.retire_vms(peers[-2:]))

    # Retire a whole pod's population, then admit arrivals into it.
    emptied = (pod + 1) % len(free)
    gone = residents(emptied)
    mutate_and_compare(lambda s: s.retire_vms(gone))
    hosts = _free_hosts_in_pod(allocation, emptied, 3)
    arrivals = [base + 10 + i for i in range(3)]

    def readmit(scheduler):
        scheduler.admit_vms([VM(v, ram_mb=64, cpu=0.1) for v in arrivals], hosts)
        scheduler.apply_traffic_delta(
            [(arrivals[0], arrivals[1], 3e6), (arrivals[1], arrivals[2], 1e6)]
        )

    mutate_and_compare(readmit, n_iterations=2)


@pytest.mark.parametrize("sharding", [False, True])
def test_empty_admission_batch_is_a_no_op(sharding):
    env = build_environment(SMALL.with_(seed=29))
    traffic = pod_confined_traffic(env, 29)
    scheduler = (
        sharded_scheduler(env, traffic, n_domains=4)
        if sharding else single_scheduler(env, traffic)
    )
    scheduler.run(1)
    fleet = scheduler._shard_coordinator
    assert (fleet is not None and not fleet.stale) == sharding
    before = env.allocation.as_dict()
    scheduler.admit_vms([], [])
    assert env.allocation.as_dict() == before
    # A mutation, even an empty one, retires a live fleet.
    assert scheduler._shard_coordinator is fleet
    assert fleet is None or fleet.stale
    scheduler.close()


@pytest.mark.parametrize("sharding", [False, True])
def test_failed_retirement_leaves_traffic_untouched(sharding):
    env = build_environment(SMALL.with_(seed=29))
    traffic = pod_confined_traffic(env, 29)
    scheduler = (
        sharded_scheduler(env, traffic, n_domains=4)
        if sharding else single_scheduler(env, traffic)
    )
    scheduler.run(1)
    before = [a.copy() for a in traffic.pair_arrays()]
    v = int(before[0][0])
    with pytest.raises(ValueError, match="duplicate"):
        scheduler.retire_vms([v, v])
    after = traffic.pair_arrays()
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)
    assert v in env.allocation and v in scheduler.token
    scheduler.close()
