"""Differential suite for the parallel shard executors.

Pins every worker transport bit-identical to the in-process reference
(:class:`~repro.shard.executor.SerialExecutor`) — the canonical
domain-major merge order makes the parallel gather deterministic, so
the comparison is **exact equality**, not a tolerance:

* shm slab transport == serial, on both order-known policies and a
  fuzzed seed matrix: same final mapping, same migration count, exactly
  equal final cost and per-iteration cost series.
* the pipe transport, reached the only way production reaches it — a
  shared-memory failure — == serial too, with the fallback on the label
  and no ``/dev/shm`` segment left behind.
* clean teardown — ``close()`` unlinks every ``/dev/shm`` slab, and the
  experiment/scenario/service wrappers close the fleet they opened.
* liveness — a killed or stalled worker raises a typed
  :class:`~repro.shard.ShardWorkerError` naming the worker and its
  domains instead of hanging the gather forever.
* executor recording — the report (and the CLI summary) say which
  executor actually ran, including the silent-fallback reason.
* mutated fleets — a fleet serves mutation-free runs, any mutation
  retires it, and a worker-pool scheduler fed a mutation script stays
  bit-exact with a serial one through every rebuild.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np
import pytest

from repro import VM
from repro.shard import ShardWorkerError
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    run_experiment,
)

from test_shard import SMALL, mixed_traffic, sharded_scheduler

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


def _run_sharded(config, seed, policy, n_workers, n_iterations=3,
                 cross_fraction=0.15):
    env = build_environment(config)
    traffic = mixed_traffic(env, seed, cross_fraction=cross_fraction)
    scheduler = sharded_scheduler(
        env, traffic, policy, n_domains=4, n_workers=n_workers
    )
    report = scheduler.run(n_iterations)
    return env, scheduler, report


def _iteration_series(report):
    return [(i.migrations, i.cost_at_end) for i in report.iterations]


def _shard_parallel_seeds(default=(7, 23)):
    raw = os.environ.get("REPRO_SHARD_SEEDS", "")
    if raw.strip():
        return [int(s) for s in raw.split(",") if s.strip()]
    return list(default)


class TestBitExactTransports:
    """Parallel executors are pinned *exactly* equal to serial."""

    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    def test_workers_match_serial_exactly(self, policy):
        config = SMALL.with_(seed=31)
        env_s, sched_s, r_s = _run_sharded(config, 31, policy, n_workers=1)
        env_p, sched_p, r_p = _run_sharded(config, 31, policy, n_workers=3)
        try:
            assert env_s.allocation.as_dict() == env_p.allocation.as_dict()
            assert r_s.final_cost == r_p.final_cost
            assert r_s.total_migrations == r_p.total_migrations
            assert _iteration_series(r_s) == _iteration_series(r_p)
        finally:
            sched_s.close()
            sched_p.close()

    @pytest.mark.shard
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    def test_degraded_pipe_matches_serial_exactly(
        self, policy, monkeypatch, own_shm_slabs
    ):
        """Shared memory fails part-way through the pool build: the
        executor degrades to pickled pipes on its own, the label says so,
        the run stays bit-exact with serial, and the segment created
        before the failure is unlinked."""
        from multiprocessing import shared_memory

        real = shared_memory.SharedMemory
        created = []

        def second_fails(*args, **kwargs):
            if created:
                raise OSError(28, "No space left on device")
            created.append(real(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(shared_memory, "SharedMemory", second_fails)
        before = own_shm_slabs()
        config = SMALL.with_(seed=31)
        env_s, sched_s, r_s = _run_sharded(config, 31, policy, n_workers=1)
        env_p, sched_p, r_p = _run_sharded(config, 31, policy, n_workers=3)
        executor = sched_p._shard_coordinator._executor
        try:
            if executor.kind == "serial":
                pytest.skip(
                    f"worker pool unavailable: {executor.fallback_reason}"
                )
            assert created, "the first slab must have been created"
            assert r_p.shard_executor == (
                f"fork ×{executor.n_workers} (fallback: shared memory "
                "unavailable: [Errno 28] No space left on device)"
            )
            assert env_s.allocation.as_dict() == env_p.allocation.as_dict()
            assert r_s.final_cost == r_p.final_cost
            assert r_s.total_migrations == r_p.total_migrations
            assert _iteration_series(r_s) == _iteration_series(r_p)
        finally:
            sched_s.close()
            sched_p.close()
        assert own_shm_slabs() - before == set()

    @pytest.mark.shard
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    @pytest.mark.parametrize("seed", _shard_parallel_seeds())
    def test_fuzzed_seed_matrix(self, policy, seed):
        rng = np.random.default_rng(seed)
        cross = float(rng.uniform(0.05, 0.4))
        config = SMALL.with_(seed=seed)
        env_s, sched_s, r_s = _run_sharded(
            config, seed, policy, n_workers=1, cross_fraction=cross
        )
        env_p, sched_p, r_p = _run_sharded(
            config, seed, policy, n_workers=int(rng.integers(2, 5)),
            cross_fraction=cross,
        )
        try:
            assert env_s.allocation.as_dict() == env_p.allocation.as_dict()
            assert r_s.final_cost == r_p.final_cost
            assert _iteration_series(r_s) == _iteration_series(r_p)
        finally:
            sched_s.close()
            sched_p.close()


class TestTeardown:
    def test_close_unlinks_every_slab(self):
        config = SMALL.with_(seed=11)
        env, scheduler, _ = _run_sharded(config, 11, "hlf", n_workers=2,
                                         n_iterations=1)
        executor = scheduler._shard_coordinator._executor
        if executor.kind != "shm":
            scheduler.close()
            pytest.skip(f"worker pool unavailable: {executor.fallback_reason}")
        names = executor.slab_names
        assert names, "shm executor must own at least one slab"
        for name in names:
            assert os.path.exists(f"/dev/shm/{name}")
        scheduler.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
        # Idempotent.
        scheduler.close()

    def test_run_experiment_leaves_no_slabs(self, own_shm_slabs):
        before = own_shm_slabs()
        run_experiment(
            SMALL.with_(seed=11, sharding=True, shard_domains=4,
                        shard_workers=2, n_iterations=2)
        )
        assert own_shm_slabs() - before == set()


class TestLiveness:
    """The satellite fix: a dead or stalled worker cannot hang the run."""

    def _fleet(self, seed=13):
        # Pod-confined traffic: reconcile is a no-op, so the fleet from
        # the first run stays live (a stale fleet would be rebuilt and
        # the killed worker would never be spoken to again).
        config = SMALL.with_(seed=seed)
        env, scheduler, _ = _run_sharded(config, seed, "hlf", n_workers=2,
                                         n_iterations=1, cross_fraction=0.0)
        executor = scheduler._shard_coordinator._executor
        if executor.kind == "serial":
            scheduler.close()
            pytest.skip(f"worker pool unavailable: {executor.fallback_reason}")
        return scheduler, executor

    def test_killed_worker_raises_typed_error(self):
        scheduler, executor = self._fleet()
        try:
            victim = executor._workers[0][0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(ShardWorkerError, match="died"):
                scheduler.run(1)
        finally:
            scheduler.close()

    def test_error_names_worker_and_domains(self):
        scheduler, executor = self._fleet()
        try:
            os.kill(executor._workers[1][0].pid, signal.SIGKILL)
            executor._workers[1][0].join(timeout=10)
            with pytest.raises(ShardWorkerError) as excinfo:
                scheduler.run(1)
            assert excinfo.value.worker in (0, 1)
            owned = executor.domains_of_worker[excinfo.value.worker]
            assert excinfo.value.domain_ids == owned
        finally:
            scheduler.close()

    def test_stalled_worker_raises_after_timeout(self):
        scheduler, executor = self._fleet()
        stopped = executor._workers[0][0].pid
        try:
            executor._stall_timeout_s = 1.0
            os.kill(stopped, signal.SIGSTOP)
            with pytest.raises(ShardWorkerError, match="stalled|died"):
                scheduler.run(1)
        finally:
            os.kill(stopped, signal.SIGCONT)
            scheduler.close()


class TestExecutorRecording:
    def test_serial_recorded(self):
        config = SMALL.with_(seed=17)
        _, scheduler, report = _run_sharded(config, 17, "hlf", n_workers=1,
                                            n_iterations=1)
        scheduler.close()
        assert report.shard_executor == "serial"

    def test_worker_pool_recorded(self):
        config = SMALL.with_(seed=17)
        _, scheduler, report = _run_sharded(
            config, 17, "hlf", n_workers=2, n_iterations=1
        )
        executor = scheduler._shard_coordinator._executor
        scheduler.close()
        if executor.kind == "serial":
            pytest.skip(f"worker pool unavailable: {executor.fallback_reason}")
        assert report.shard_executor == "shm ×2"

    def test_fallback_reason_recorded(self, monkeypatch):
        monkeypatch.setattr(
            "repro.shard.executor.fork_available", lambda: False
        )
        config = SMALL.with_(seed=17)
        _, scheduler, report = _run_sharded(config, 17, "hlf", n_workers=4,
                                            n_iterations=1)
        scheduler.close()
        assert report.shard_executor.startswith("serial (fallback:")
        assert "fork" in report.shard_executor

    def test_cli_summary_prints_executor(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--racks", "4", "--hosts-per-rack", "2", "--tors-per-agg", "2",
                "--cores", "1", "--vms-per-host", "4", "--iterations", "1",
                "--shards", "4", "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard executor:" in out


def _free_hosts(allocation, need):
    """Deterministic pick of hosts with at least one free slot."""
    picked = []
    for host in range(allocation.cluster.n_servers):
        vm = VM(10_000_000, ram_mb=64, cpu=0.1)
        if allocation.can_host(host, vm):
            picked.append(host)
            if len(picked) == need:
                return picked
    raise AssertionError("not enough free slots for the churn script")


def _mutation_script(scheduler):
    """One deterministic churn/delta/capacity sequence; returns the
    per-phase ``(final_cost, mapping)`` checkpoints."""
    checkpoints = []

    def checkpoint(report):
        checkpoints.append(
            (report.final_cost, dict(scheduler.allocation.as_dict()))
        )

    checkpoint(scheduler.run(2))

    # Phase 2: rate deltas on existing pairs.
    us, vs, rates = scheduler.traffic.pair_arrays()
    order = np.argsort(us * 1_000_003 + vs, kind="stable")
    picked = order[: min(8, order.size)]
    delta = [
        (int(us[i]), int(vs[i]), float(rates[i] * 1.7) + 1e4) for i in picked
    ]
    assert scheduler.apply_traffic_delta(delta) == len(delta)
    checkpoint(scheduler.run(1))

    # Phase 3: admissions, with traffic for the newcomers.
    base = max(scheduler.allocation.vm_ids()) + 1
    hosts = _free_hosts(scheduler.allocation, 3)
    newcomers = [VM(base + i, ram_mb=64, cpu=0.1) for i in range(3)]
    scheduler.admit_vms(newcomers, hosts)
    peers = sorted(scheduler.allocation.vm_ids())[:3]
    scheduler.apply_traffic_delta(
        [(vm.vm_id, int(p), 2e6) for vm, p in zip(newcomers, peers)]
    )
    checkpoint(scheduler.run(1))

    # Phase 4: retirements + a capacity bump + a tighter budget.
    scheduler.retire_vms([base, base + 1])
    scheduler.set_host_capacity(hosts[0], max_vms=8, nic_bps=2e9)
    scheduler.set_bandwidth_threshold(0.9)
    checkpoint(scheduler.run(2))
    return checkpoints


class TestDeltaChannel:
    """A fleet serves runs until a mutation retires it; the rebuilt
    fleets of a worker pool stay bit-exact with serial ones."""

    def _build(self, n_workers, cross_fraction=0.15, seed=29):
        config = SMALL.with_(seed=seed)
        env = build_environment(config)
        traffic = mixed_traffic(env, seed, cross_fraction=cross_fraction)
        return sharded_scheduler(
            env, traffic, "hlf", n_domains=4, n_workers=n_workers
        )

    @pytest.mark.shard
    @pytest.mark.parametrize("seed", _shard_parallel_seeds(default=(29,)))
    def test_fleet_absorbs_deltas_bit_exact(self, seed):
        serial = self._build(n_workers=1, seed=seed)
        shm = self._build(n_workers=3, seed=seed)
        try:
            serial_points = _mutation_script(serial)
            shm_points = _mutation_script(shm)
            assert serial_points == shm_points
        finally:
            serial.close()
            shm.close()

    def test_fleet_persists_across_mutation_free_runs(self):
        # Pod-confined traffic: no reconcile moves, nothing marks the
        # fleet stale, so the *same* coordinator serves every run.
        scheduler = self._build(n_workers=2, cross_fraction=0.0)
        try:
            scheduler.run(1)
            fleet = scheduler._shard_coordinator
            scheduler.run(1)
            assert scheduler._shard_coordinator is fleet and not fleet.stale
        finally:
            scheduler.close()

    @pytest.mark.parametrize("mutation", ["traffic delta", "drain"])
    def test_a_mutation_retires_the_fleet(self, mutation):
        scheduler = self._build(n_workers=2, cross_fraction=0.0)
        try:
            scheduler.run(1)
            fleet = scheduler._shard_coordinator
            assert not fleet.stale
            if mutation == "drain":
                vm_id = min(scheduler.allocation.vm_ids())
                scheduler.drain_hosts([scheduler.allocation.server_of(vm_id)])
            else:
                us, vs, rates = scheduler.traffic.pair_arrays()
                scheduler.apply_traffic_delta(
                    [(int(us[0]), int(vs[0]), float(rates[0]) * 2.0)]
                )
            assert fleet.stale
            report = scheduler.run(1)  # rebuilds and keeps running
            assert scheduler._shard_coordinator is not fleet
            exact = scheduler._fast.total_cost()
            assert report.final_cost == pytest.approx(exact, rel=1e-12)
        finally:
            scheduler.close()

    def test_scheduler_pickles_without_the_fleet(self):
        scheduler = self._build(n_workers=2)
        try:
            scheduler.run(1)
            clone = pickle.loads(pickle.dumps(scheduler))
            assert clone._shard_coordinator is None
            report = clone.run(1)
            assert report.final_cost == pytest.approx(
                clone._fast.total_cost(), rel=1e-12
            )
            clone.close()
        finally:
            scheduler.close()
