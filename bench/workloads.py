"""The seven workloads: what is set up, what is timed, what is checked.

Each workload is a ``prepare(ctx) -> state`` / ``run(ctx, state)`` pair.
``prepare`` is the repeatable set-up (inputs, boot, warm-up) the harness
times as ``setup_s``; ``run`` executes ``ctx.n_ops`` timed operations
through ``ctx.op()`` and runs the correctness gates *outside* the timed
regions.  All are closed-loop with a single driver: the next operation
starts when the previous one returned.  Why each exists is in
``BENCHMARK.json`` (and, longer, in ``bench/README.md``).
"""

from __future__ import annotations

import os
import pickle
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict

from bench import stats
from bench.inputs import (
    SCALES,
    DriftSequence,
    churn_events,
    community_environment,
    experiment_config,
)

#: Pre-kill rounds of ``crash_recover``: with ``checkpoint_every=4`` the
#: disk then holds the round-4 snapshot plus three journaled rounds.
CRASH_ROUNDS = 7
CRASH_CHECKPOINT_EVERY = 4


@dataclass(frozen=True)
class Workload:
    """One workload and how ``--seconds`` sizes it.

    The operation count is fixed by ``--seconds`` alone (``seconds /
    nominal_op_s``, sized on a 2-core runner), never by the clock, so two
    commits measured with the same settings do the same work.
    """

    name: str
    #: What ``op_s`` measures here (the issue's per-workload metric name).
    op_name: str
    nominal_op_s: float
    min_ops: int
    prepare: Callable
    run: Callable

    def n_ops(self, seconds: float) -> int:
        return max(self.min_ops, int(round(seconds / self.nominal_op_s)))


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _egress_from_scratch(scheduler):
    """Per-host NIC egress recomputed from the placement and the matrix."""
    import numpy as np

    allocation = scheduler.allocation
    us, vs, rates = scheduler.traffic.pair_arrays()
    hosts_u = allocation.mapping_arrays(us)[0]
    hosts_v = allocation.mapping_arrays(vs)[0]
    crossing = rates * (hosts_u != hosts_v)
    n_hosts = allocation.cluster.n_servers
    return np.bincount(
        hosts_u, weights=crossing, minlength=n_hosts
    ) + np.bincount(hosts_v, weights=crossing, minlength=n_hosts)


def _deep_invariants(ctx, scheduler) -> None:
    """``check_engine_invariants(deep=True)`` as a correctness gate.

    One allowance.  The checker compares the incrementally maintained
    per-host egress mirror with a recomputation at ``atol=1e-6`` bps, while
    a host carries ~1e9 bps: a host whose crossing traffic all became local
    is left with the float residue of those updates (about 1e-6 bps, 1e-15
    of what went through it), which roughly one seed in ten trips on the
    dense matrix.  That is rounding, not a desync, so on an
    ``egress-mirror`` violation the mirror is re-judged against the
    magnitude of the egress vector; if it agrees, the residue is cleared
    and the check re-run, so that the tiers after it (pair count, round
    cache re-scoring) are still verified.  Runs after the timed region.
    """
    import numpy as np

    from repro.util.validation import InvariantViolation, check_engine_invariants

    try:
        try:
            check_engine_invariants(scheduler, deep=True)
        except InvariantViolation as violation:
            if violation.invariant != "egress-mirror":
                raise
            fast = scheduler.fastcost
            expected = _egress_from_scratch(scheduler)
            mirror = np.array(
                [fast.host_egress(host) for host in range(len(expected))]
            )
            scale = max(1.0, float(expected.max()))
            if not np.allclose(mirror, expected, rtol=1e-9, atol=1e-9 * scale):
                raise
            fast._egress[:] = expected
            check_engine_invariants(scheduler, deep=True)
    except InvariantViolation as violation:
        ctx.fail(f"engine invariant violated: {violation}")


# -- converge_sparse_rr / converge_dense_hlf ---------------------------------


def _converge(pattern: str, policy: str):
    from repro.sim.experiment import build_environment, make_scheduler

    def prepare(ctx):
        config = experiment_config(ctx.scale, pattern, policy, ctx.seed)
        blob = pickle.dumps(
            build_environment(config), protocol=pickle.HIGHEST_PROTOCOL
        )
        # Warm-up: one round on a throw-away copy pays the lazy imports and
        # the allocator's first growth to the run's peak array sizes.
        make_scheduler(pickle.loads(blob)).run(n_iterations=1)
        return blob

    def run(ctx, blob):
        outcomes = set()
        for _ in range(ctx.n_ops):
            scheduler = make_scheduler(pickle.loads(blob))
            ctx.watch(scheduler)
            with ctx.op():
                report = scheduler.run(n_iterations=5)
            fast = scheduler.fastcost
            ctx.check(
                report.final_cost < report.initial_cost,
                "final cost is not below the initial cost",
            )
            ctx.check(
                _relative_gap(fast.total_cost(), fast.recompute_total_cost())
                <= 1e-9,
                "incremental total cost drifted from the recomputed one",
            )
            _deep_invariants(ctx, scheduler)
            outcomes.add((report.final_cost, report.total_migrations))
        ctx.check(
            len(outcomes) == 1,
            f"repeats disagree on (final_cost, migrations): {sorted(outcomes)}",
        )
        ctx.outcome(report.initial_cost, report.final_cost,
                    report.total_migrations)

    return prepare, run


# -- steady_drift ------------------------------------------------------------


def _steady_drift():
    from repro.sim.experiment import build_environment, make_scheduler

    def prepare(ctx):
        config = experiment_config(ctx.scale, "sparse", "rr", ctx.seed)
        environment = build_environment(config)
        scheduler = make_scheduler(environment)
        initial = scheduler.run(n_iterations=5).initial_cost
        scheduler.quiesce()
        return scheduler, initial, DriftSequence(environment.traffic, ctx.seed)

    def run(ctx, state):
        scheduler, initial_cost, drift = state
        ctx.watch(scheduler)
        migrations = 0
        for _ in range(ctx.n_ops):
            delta = drift.next_delta()
            with ctx.op():
                scheduler.apply_traffic_delta(delta)
                report = scheduler.run(n_iterations=1)
            migrations += report.total_migrations
            ctx.check(
                scheduler.fastcost.in_sync,
                "fast engine out of sync after a delta epoch",
            )
        _deep_invariants(ctx, scheduler)
        ctx.outcome(initial_cost, report.final_cost, migrations)

    return prepare, run


# -- service_churn / crash_recover -------------------------------------------


def _boot_service(ctx, checkpoint_every: int, horizon_rounds: int, on_plan=None):
    """A fresh daemon over its own state directory, and the Eq. 2 cost of
    its boot placement."""
    from repro.service import ScriptedSource, SchedulerService, ServiceConfig

    service = SchedulerService.create(
        experiment_config(ctx.scale, "sparse", "rr", ctx.seed),
        ctx.tmpdir(),
        lambda round_seconds: ScriptedSource(
            churn_events(ctx.seed, round_seconds, horizon_rounds)
        ),
        config=ServiceConfig(checkpoint_every=checkpoint_every),
        on_plan=on_plan,
    )
    environment = service.environment
    initial_cost = environment.cost_model.total_cost(
        environment.allocation, environment.traffic
    )
    return service, initial_cost


def _newest_snapshot_bytes(directory: str) -> int:
    from repro.persist.snapshot import list_snapshots

    snapshots = list_snapshots(directory)
    return os.path.getsize(snapshots[-1][1]) if snapshots else 0


def _journal_bytes(directory: str) -> int:
    from repro.persist.journal import JOURNAL_NAME

    return os.path.getsize(os.path.join(directory, JOURNAL_NAME))


def _service_churn():
    def prepare(ctx):
        stamps = []
        service, initial_cost = _boot_service(
            ctx,
            checkpoint_every=8,
            horizon_rounds=ctx.n_ops,
            on_plan=lambda plan: stamps.append(
                (time.perf_counter(), plan.events_absorbed)
            ),
        )
        ctx.defer(service.close)
        return service, initial_cost, stamps

    def run(ctx, state):
        service, initial_cost, stamps = state
        ctx.watch(service.scheduler)
        previous = time.perf_counter()
        with ctx.op(sample=False):
            report = service.serve()
        # One sample per round of the stream: the gap since the previous
        # plan, per event the round absorbed.  The rounds that settle the
        # system after the stream ends are plain core rounds (plus the odd
        # crunch lift), which other workloads time.
        for emitted, events_absorbed in stamps[: ctx.n_ops]:
            ctx.samples.append((emitted - previous) / max(1, events_absorbed))
            previous = emitted
        # Per-layer costs are reported per applied event, like op_s.
        ctx.units = max(1, report.events_applied)
        admissions = report.admissions
        offered = sum(
            admissions.get(kind, 0)
            for kind in ("accepted", "deferred", "coalesced", "rejected")
        )
        # Operations are offered events; a rejected one is a failed one.
        ctx.attempted = max(1, offered)
        for _ in range(admissions.get("rejected", 0)):
            ctx.fail("event rejected by admission control")
        ctx.check(report.state == "stopped", f"service ended {report.state!r}")
        ctx.check(not report.safe_mode, "service entered safe mode")
        ctx.check(not report.degraded, "service degraded its persistence")
        settled = service.scheduler.quiesce(max_rounds=25)[-1].final_cost
        ctx.check(
            _relative_gap(report.final_cost, settled) <= 1e-6,
            "service stopped away from the converged cost",
        )
        latencies = sorted(report.latencies_s)
        ctx.counts.update({
            "sim.eventqueue.events_applied": report.events_applied,
            "service.admission.accepted": admissions.get("accepted", 0),
            "service.admission.deferred": admissions.get("deferred", 0),
            "service.admission.coalesced": admissions.get("coalesced", 0),
            "service.admission.rejected": admissions.get("rejected", 0),
            "service.backpressure_rounds": report.backpressure_rounds,
            "service.events_per_s": report.events_per_second,
            "service.event_to_plan_p50_s": stats.percentile(latencies, 0.5),
            "service.event_to_plan_p90_s": stats.percentile(latencies, 0.9),
            "persist.journal.bytes": _journal_bytes(service.directory),
            "persist.snapshot.bytes": _newest_snapshot_bytes(service.directory),
        })
        ctx.outcome(initial_cost, report.final_cost, report.migrations)

    return prepare, run


def _crash_recover():
    from repro.service import SchedulerService

    def prepare(ctx):
        service, initial_cost = _boot_service(
            ctx, CRASH_CHECKPOINT_EVERY, horizon_rounds=12
        )
        for _ in range(CRASH_ROUNDS):
            service.step()
        killed = (service.rounds_done, service.report.final_cost)
        # The kill: no drain, no final checkpoint — only what already
        # reached the disk survives.
        service.close()
        copies = []
        for _ in range(ctx.n_ops):
            copy = ctx.tmpdir()
            shutil.copytree(service.directory, copy, dirs_exist_ok=True)
            copies.append(copy)
        return copies, killed, initial_cost

    def run(ctx, state):
        copies, (rounds_done, last_cost), initial_cost = state
        for copy in copies:
            with ctx.op():
                service = SchedulerService.resume(copy)
            service.close()
            report = service.report
            ctx.check(
                service.rounds_done == rounds_done,
                f"recovered to round {service.rounds_done}, "
                f"killed at {rounds_done}",
            )
            ctx.check(
                report.final_cost == last_cost,
                "recovered cost differs from the last committed cost",
            )
            ctx.check(
                str(service.recovered_from).startswith("snapshot-"),
                f"recovered from {service.recovered_from!r}, not a snapshot",
            )
        ctx.counts.update({
            "persist.journal.bytes": _journal_bytes(copies[-1]),
            "persist.snapshot.bytes": _newest_snapshot_bytes(copies[-1]),
        })
        ctx.outcome(initial_cost, report.final_cost, 0)

    return prepare, run


# -- shard_serial_4x / shard_workers_4x --------------------------------------


def _shard(n_workers: int):
    from repro.core.fastcost import FastCostEngine
    from repro.core.migration import MigrationEngine
    from repro.core.policies import policy_by_name
    from repro.core.scheduler import SCOREScheduler

    def scheduler_for(scale, parts):
        allocation, traffic, cost_model = parts
        return SCOREScheduler(
            allocation,
            traffic,
            policy_by_name("rr"),
            MigrationEngine(cost_model),
            use_sharding=True,
            n_domains=scale.shard_domains,
            n_workers=n_workers,
        )

    def prepare(ctx):
        blob = pickle.dumps(
            community_environment(ctx.scale, ctx.seed),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        # A full-size warm-up would cost a whole timed repeat; the smoke
        # tree still pays the lazy imports and (with workers) the first fork.
        smoke = SCALES["smoke"]
        warm = scheduler_for(smoke, community_environment(smoke, ctx.seed))
        try:
            warm.run(n_iterations=1)
        finally:
            warm.close()
        return blob

    def run(ctx, blob):
        outcomes = set()
        for _ in range(ctx.n_ops):
            parts = pickle.loads(blob)
            scheduler = scheduler_for(ctx.scale, parts)
            ctx.watch(scheduler)
            try:
                with ctx.op():
                    report = scheduler.run(n_iterations=3)
            finally:
                scheduler.close()
            ctx.check(
                "fallback" not in str(report.shard_executor),
                f"executor fell back: {report.shard_executor}",
            )
            outcomes.add((report.final_cost, report.total_migrations))
        fresh = FastCostEngine(parts[0], parts[1]).total_cost()
        ctx.check(
            _relative_gap(report.final_cost, fresh) <= 1e-6,
            "merged global cost differs from a fresh engine's",
        )
        ctx.check(
            len(outcomes) == 1,
            f"repeats disagree on (final_cost, migrations): {sorted(outcomes)}",
        )
        if n_workers > 1:
            # Workers are joined by close(): ru_maxrss of the reaped
            # children is the largest worker's peak.
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            ctx.counts["shard.worker_rss_mb"] = children.ru_maxrss / 1024.0
        ctx.oversubscribed = ctx.cores < n_workers
        ctx.outcome(report.initial_cost, report.final_cost,
                    report.total_migrations)

    return prepare, run


def load() -> Dict[str, Workload]:
    """The workloads by name (imports the program on first call)."""
    table = (
        ("converge_sparse_rr", "converge_s", 2.1, 2, _converge("sparse", "rr")),
        ("converge_dense_hlf", "converge_s", 4.1, 3, _converge("dense", "hlf")),
        ("steady_drift", "epoch_s", 0.135, 20, _steady_drift()),
        ("service_churn", "event_s", 1.2, 3, _service_churn()),
        ("crash_recover", "recover_s", 4.0, 2, _crash_recover()),
        ("shard_serial_4x", "shard_run_s", 6.3, 1, _shard(n_workers=1)),
        ("shard_workers_4x", "shard_run_s", 4.4, 1, _shard(n_workers=2)),
    )
    return {
        name: Workload(name, op_name, nominal, min_ops, *pair)
        for name, op_name, nominal, min_ops, pair in table
    }
