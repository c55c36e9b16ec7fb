"""Hyperscale sharded-scheduler benchmark (``paper_canonical_sharded``).

Runs one S-CORE iteration on a canonical tree twenty times the paper's
published scale — 52,000 hosts / ~707k VMs — twice: through the default
single-domain wave engine, and through the sharded coordinator
(``repro.shard``: community partition -> per-domain wave engines ->
cross-domain reconciliation).  Records both wall-clocks, the sharded
run's per-phase split (partition / domain-build / domain-solve / merge /
reconcile) and the headline ``speedup_vs_single_domain`` into
``.benchmarks/BENCH_fastcost.json`` (git-ignored; the committed
``BENCH_fastcost.json`` is the trend baseline).

The speedup on a single-core runner comes from decomposition, not
parallelism: candidate probing scales with the *global* rack count, so
96 pod-aligned domains of ~27 racks each do a small fraction of the
dense grid work the 2600-rack global engine does — forked workers
stack on top when cores exist.

``paper_canonical_sharded_parallel`` adds the multicore headline: the
same hyperscale run through the 8-worker shared-memory executor
(zero-copy slab transport + pipelined merge), pinned bit-exact to the
serial sharded reference; its wall-clock floors only gate on runners
that actually have the cores.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.manager import PlacementManager
from repro.cluster.server import ServerCapacity
from repro.core.cost import CostModel, LinkWeights
from repro.core.fastcost import FastCostEngine
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.scheduler import SCOREScheduler
from repro.topology.tree import CanonicalTree
from repro.traffic.matrix import TrafficMatrix

#: 20x the paper's canonical tree: 2600 racks x 20 hosts = 52,000 hosts,
#: 260 pods of 200 hosts; 16 slots/host at 0.85 fill -> 707,200 VMs.
N_RACKS = 2600
HOSTS_PER_RACK = 20
TORS_PER_AGG = 10
N_CORES = 4
VMS_PER_HOST = 16
FILL = 0.85

#: Domain cap: a few pods (~27 racks) per domain.  Small domains slash
#: the dense grid work (it scales with the local rack count) but pay a
#: fixed cost per wave; the measured build+solve knee is flat between
#: 48 and 192 domains here, with the fewest-waves side slightly ahead.
N_DOMAINS = 96

#: Target for the full sharded pipeline (partition + build + solve +
#: merge + reconcile) against the single-domain iteration on one core.
#: Both sides run the same production round loop, so the one-core ratio
#: is the decomposition's own gain minus the shard layer's build/merge
#: overhead (1.02-1.14x on a 2-core shared box).  A wall-clock ratio
#: this size depends on the runner, so it is recorded as ``floor_met``
#: and printed, not asserted; what fails on any machine is sharding
#: being *slower* than the single domain — in the best times of two
#: pairs of runs when the first pair lands below parity.
SHARD_SPEEDUP_FLOOR = 2.0
SHARD_REGRESSION_FLOOR = 1.0

@contextmanager
def _gc_quiesced():
    """Run a timed region with the cyclic GC off (collect first).

    The domain fleet makes millions of allocations, and inside a full
    suite run each one risks a gen-2 pass over every object the earlier
    tests left behind — seconds of wall-clock that say nothing about the
    code under test (the standalone speedup measured ~2.4x where the
    in-suite one sagged below 2x).  Both sides of every recorded ratio
    run under this same regime, so the comparison stays fair on any
    runner.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fresh reports land in the git-ignored ``.benchmarks/`` so a test run
#: leaves the tree clean; the tracked ``BENCH_fastcost.json`` at the repo
#: root is the committed baseline ``bench_trend.py`` compares against.
REPORT_PATH = os.path.join(REPO_ROOT, ".benchmarks", "BENCH_fastcost.json")
SCHEMA = "repro-bench/fastcost/v1"


def _write_report(record: dict) -> None:
    """Merge one record into the shared JSON report (keyed by name)."""
    report = {"schema": SCHEMA, "results": []}
    if os.path.exists(REPORT_PATH):
        try:
            with open(REPORT_PATH) as fh:
                existing = json.load(fh)
            if existing.get("schema") == SCHEMA:
                report = existing
        except (OSError, ValueError):
            pass
    report["results"] = [
        r for r in report.get("results", []) if r.get("name") != record["name"]
    ] + [record]
    report["results"].sort(key=lambda r: r["name"])
    os.makedirs(os.path.dirname(REPORT_PATH), exist_ok=True)
    with open(REPORT_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_hyperscale(seed: int = 0, cross_fraction: float = 0.01):
    """52k-host environment with pod-aligned community traffic.

    Everything is built through numpy (deterministic modulo placement,
    per-pod pair sampling) — the generic random-placement path spends
    its time in python loops that dominate the bench at this scale.
    """
    topology = CanonicalTree(
        n_racks=N_RACKS,
        hosts_per_rack=HOSTS_PER_RACK,
        tors_per_agg=TORS_PER_AGG,
        n_cores=N_CORES,
    )
    capacity = ServerCapacity(
        max_vms=VMS_PER_HOST,
        ram_mb=VMS_PER_HOST * 512,
        cpu=max(1.0, VMS_PER_HOST * 0.25),
    )
    cluster = Cluster(topology, capacity)
    manager = PlacementManager(cluster)
    n_hosts = topology.n_hosts
    n_vms = int(n_hosts * VMS_PER_HOST * FILL)
    vms = manager.create_vms(n_vms, ram_mb=512, cpu=0.25)
    allocation = Allocation(cluster)
    hosts = (np.arange(n_vms) % n_hosts).tolist()
    allocation.add_vms(vms, hosts)

    # Community traffic aligned to pods: each VM talks to ~1.1 random
    # peers inside its own pod, plus a small cross-pod tail so the
    # reconciliation pass has real boundary work.
    rng = np.random.default_rng(seed)
    vm_ids = np.array([vm.vm_id for vm in vms])
    hosts_per_pod = HOSTS_PER_RACK * TORS_PER_AGG
    pod_of_vm = (np.asarray(hosts) // hosts_per_pod).astype(np.int64)
    order = np.argsort(pod_of_vm, kind="stable")
    sorted_ids = vm_ids[order]
    counts = np.bincount(pod_of_vm)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    us_parts, vs_parts = [], []
    for pod in range(len(counts)):
        members = sorted_ids[offsets[pod] : offsets[pod + 1]]
        n_pairs = int(len(members) * 1.1)
        u = members[rng.integers(0, len(members), n_pairs)]
        v = members[rng.integers(0, len(members), n_pairs)]
        keep = u != v
        us_parts.append(np.minimum(u[keep], v[keep]))
        vs_parts.append(np.maximum(u[keep], v[keep]))
    n_cross = int(n_vms * cross_fraction)
    u = vm_ids[rng.integers(0, n_vms, n_cross)]
    v = vm_ids[rng.integers(0, n_vms, n_cross)]
    keep = u != v
    us_parts.append(np.minimum(u[keep], v[keep]))
    vs_parts.append(np.maximum(u[keep], v[keep]))
    us = np.concatenate(us_parts)
    vs = np.concatenate(vs_parts)
    key = us * np.int64(n_vms) + vs
    _, first = np.unique(key, return_index=True)
    us, vs = us[first], vs[first]
    rates = rng.uniform(1e5, 1e7, len(us))
    traffic = TrafficMatrix.from_pair_arrays(us, vs, rates)
    cost_model = CostModel(topology, LinkWeights.paper())
    return allocation, traffic, cost_model


def _make_scheduler(allocation, traffic, cost_model, **kwargs):
    return SCOREScheduler(
        allocation,
        traffic,
        policy_by_name("rr"),
        MigrationEngine(cost_model),
        **kwargs,
    )


def _run_hyperscale(n_iterations: int = 1, **kwargs):
    """One fresh hyperscale build + a profiled, timed run.

    Returns ``(allocation, traffic, report, profile, wall_s, build_s)``.
    Each call owns its whole environment, so a caller that drops the
    previous call's results before the next one times every run with a
    single environment alive — the same memory regime on both sides of
    a recorded ratio.
    """
    t0 = time.perf_counter()
    allocation, traffic, cost_model = _build_hyperscale()
    build_s = time.perf_counter() - t0
    scheduler = _make_scheduler(allocation, traffic, cost_model, **kwargs)
    profile = scheduler.enable_profiling()
    with _gc_quiesced():
        t0 = time.perf_counter()
        report = scheduler.run(n_iterations=n_iterations)
        wall_s = time.perf_counter() - t0
    scheduler.close()
    return allocation, traffic, report, profile, wall_s, build_s


@pytest.mark.smoke
@pytest.mark.slow
def test_sharded_iteration_at_hyperscale(emit):
    alloc, traffic, r_single, _, single_s, build_s = _run_hyperscale()
    n_hosts, n_vms, n_pairs = (
        alloc.topology.n_hosts, alloc.n_vms, traffic.n_pairs
    )
    del alloc, traffic

    sharded = dict(use_sharding=True, n_domains=N_DOMAINS, n_workers=1)
    alloc, traffic, r_sharded, profile, sharded_s, _ = _run_hyperscale(
        **sharded
    )
    # Exactness at scale: the incrementally maintained global cost must
    # match a from-scratch snapshot of the final allocation.
    fresh = FastCostEngine(alloc, traffic)
    assert r_sharded.final_cost == pytest.approx(
        fresh.total_cost(), rel=1e-6
    )
    del alloc, traffic, fresh

    speedup = single_s / sharded_s
    samples = 1
    if speedup < SHARD_REGRESSION_FLOOR:
        # A shared runner's speed drifts over the minute one pair takes;
        # a real regression is slower in a second pair too.  Re-time both
        # sides once and keep each side's best time.
        single_s = min(single_s, _run_hyperscale()[4])
        sharded_s = min(sharded_s, _run_hyperscale(**sharded)[4])
        speedup = single_s / sharded_s
        samples = 2
    floor_met = speedup >= SHARD_SPEEDUP_FLOOR
    shard_phases = {
        name: round(secs, 3) for name, secs in sorted(profile.seconds.items())
    }
    record = {
        "name": "paper_canonical_sharded",
        "topology": "canonical",
        "n_hosts": n_hosts,
        "n_vms": n_vms,
        "n_pairs": n_pairs,
        "n_domains": N_DOMAINS,
        "build_s": round(build_s, 3),
        "single_iteration_s": round(single_s, 3),
        "sharded_iteration_s": round(sharded_s, 3),
        "speedup_vs_single_domain": round(speedup, 1),
        "floor_met": floor_met,
        "timing_samples": samples,
        "phases": shard_phases,
        "initial_cost": r_sharded.initial_cost,
        "single_final_cost": r_single.final_cost,
        "sharded_final_cost": r_sharded.final_cost,
        "migrations_single": r_single.total_migrations,
        "migrations_sharded": r_sharded.total_migrations,
    }
    _write_report(record)
    emit(
        f"[hyperscale] {n_vms} VMs on {n_hosts} hosts, "
        f"{n_pairs} pairs, {N_DOMAINS} domains",
        f"[hyperscale]   single {single_s:7.2f}s   sharded {sharded_s:7.2f}s"
        f"   speedup {speedup:.2f}x"
        f"   (target {SHARD_SPEEDUP_FLOOR:.0f}x: "
        f"{'met' if floor_met else 'not met on this runner'}; "
        f"best of {samples})",
        f"[hyperscale]   phases "
        + "  ".join(f"{k} {v:.2f}s" for k, v in shard_phases.items()),
        f"[hyperscale]   cost {r_sharded.initial_cost:.3e} -> "
        f"single {r_single.final_cost:.3e} / "
        f"sharded {r_sharded.final_cost:.3e}",
    )

    assert r_single.initial_cost == pytest.approx(r_sharded.initial_cost)
    assert r_single.final_cost < r_single.initial_cost
    assert r_sharded.final_cost < r_sharded.initial_cost
    assert speedup >= SHARD_REGRESSION_FLOOR, (
        f"sharded pipeline {sharded_s:.1f}s vs single-domain "
        f"{single_s:.1f}s -> {speedup:.2f}x; sharding must never be "
        f"slower than the single domain"
    )


#: Acceptance floors for the parallel executor — only asserted when the
#: runner actually has the cores (the record is written regardless, and
#: the serial/parallel bit-exact differential always runs).
PARALLEL_SPEEDUP_FLOOR = 2.5
PARALLEL_SPEEDUP_CORES = 8
EFFICIENCY_FLOOR = 0.6
EFFICIENCY_CORES = 4


def _run_sharded_hyperscale(n_workers: int, n_iterations: int = 2):
    """One fresh hyperscale build + a profiled sharded run."""
    allocation, _, report, profile, wall_s, _ = _run_hyperscale(
        n_iterations,
        use_sharding=True,
        n_domains=N_DOMAINS,
        n_workers=n_workers,
    )
    return allocation, report, profile, wall_s


@pytest.mark.smoke
@pytest.mark.slow
def test_sharded_parallel_at_hyperscale(emit):
    """The multicore headline: 8 shm workers vs the serial sharded run.

    Two identical 52k-host builds run the same two sharded iterations —
    one through the in-process :class:`SerialExecutor`, one through the
    8-worker shared-memory executor with the pipelined merge — and the
    final mapping and cost are pinned **exactly** equal (the canonical
    domain-major merge order makes the parallel gather deterministic).
    Wall-clock floors only apply when the runner has the cores; the
    ``paper_canonical_sharded_parallel`` record is written either way.
    """
    cores = len(os.sched_getaffinity(0))

    alloc_serial, r_serial, prof_serial, serial_s = _run_sharded_hyperscale(1)
    alloc_par, r_par, prof_par, par_s = _run_sharded_hyperscale(8)

    # The bit-exact differential — always asserted, any core count.
    assert r_par.final_cost == r_serial.final_cost
    assert r_par.total_migrations == r_serial.total_migrations
    assert alloc_par.as_dict() == alloc_serial.as_dict()

    speedup = serial_s / par_s
    serial_solve = prof_serial.seconds.get("domain-solve", 0.0)
    imbalance = prof_par.gauges.get("shard-imbalance", 1.0)

    efficiency_4w = None
    if cores >= EFFICIENCY_CORES:
        _, r_4w, prof_4w, wall_4w = _run_sharded_hyperscale(4)
        assert r_4w.final_cost == r_serial.final_cost
        par_solve = prof_4w.seconds.get("domain-solve", 0.0)
        if par_solve > 0:
            efficiency_4w = serial_solve / (4 * par_solve)

    record = {
        "name": "paper_canonical_sharded_parallel",
        "topology": "canonical",
        "n_hosts": alloc_serial.topology.n_hosts,
        "n_vms": alloc_serial.n_vms,
        "n_domains": N_DOMAINS,
        "n_iterations": 2,
        "cores": cores,
        "executor": r_par.shard_executor,
        "serial_sharded_s": round(serial_s, 3),
        "shm_8workers_s": round(par_s, 3),
        "speedup_8workers_vs_serial_sharded": round(speedup, 2),
        "scaling_efficiency_4workers": (
            round(efficiency_4w, 3) if efficiency_4w is not None else None
        ),
        "imbalance": round(float(imbalance), 3),
        "phases": {
            name: round(secs, 3)
            for name, secs in sorted(prof_par.seconds.items())
        },
        "final_cost": r_par.final_cost,
        "migrations": r_par.total_migrations,
        "bit_exact_vs_serial": True,
    }
    _write_report(record)
    emit(
        f"[parallel] {alloc_serial.n_vms} VMs, {N_DOMAINS} domains, "
        f"{cores} core(s): serial sharded {serial_s:7.2f}s   "
        f"shm x8 {par_s:7.2f}s   speedup {speedup:.2f}x",
        f"[parallel]   executor {r_par.shard_executor}   "
        f"imbalance {imbalance:.2f}   efficiency@4w "
        + (f"{efficiency_4w:.2f}" if efficiency_4w is not None else "n/a"),
        f"[parallel]   bit-exact vs serial: cost {r_par.final_cost:.6e}, "
        f"{r_par.total_migrations} migrations",
    )

    if cores >= PARALLEL_SPEEDUP_CORES:
        assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
            f"8-worker shm run {par_s:.1f}s vs serial sharded "
            f"{serial_s:.1f}s -> {speedup:.2f}x on {cores} cores; "
            f">= {PARALLEL_SPEEDUP_FLOOR}x is required"
        )
    if efficiency_4w is not None:
        assert efficiency_4w >= EFFICIENCY_FLOOR, (
            f"per-worker scaling efficiency {efficiency_4w:.2f} at 4 "
            f"workers on {cores} cores; >= {EFFICIENCY_FLOOR} is required"
        )
