"""Paper-scale smoke benchmark for the fast-cost engine.

Runs one full S-CORE iteration (|V| token holds) at the published scales —
the 2560-host canonical tree (~35k VM slots) and the k=16 fat-tree — which
the naive per-pair loops could not finish in CI budgets, and records
wall-clock into ``.benchmarks/BENCH_fastcost.json`` (git-ignored); CI
trends it against the committed ``BENCH_fastcost.json`` baseline.

The report schema (``repro-bench/fastcost/v1``) is one record per scenario:
name, scale (hosts/VMs/pairs), build and iteration wall-clock seconds,
holds, migrations and the start/end Eq. (2) costs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.baselines.ga import GAConfig, GeneticOptimizer
from repro.core.fastcost import FastCostEngine
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.scheduler import SCOREScheduler
from repro.reference import (
    PerHoldScheduler,
    UncachedScheduler,
    ga_step_reference,
)
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import make_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fresh reports land in the git-ignored ``.benchmarks/`` so a test run
#: leaves the tree clean; the tracked ``BENCH_fastcost.json`` at the repo
#: root is the committed baseline ``bench_trend.py`` compares against.
REPORT_PATH = os.path.join(REPO_ROOT, ".benchmarks", "BENCH_fastcost.json")
SCHEMA = "repro-bench/fastcost/v1"

#: Hard ceiling from the acceptance criterion: one full S-CORE iteration
#: at paper_canonical() scale must finish inside this on a CI runner.
ITERATION_BUDGET_S = 60.0

SCENARIOS = {
    "paper_canonical_one_iteration": ExperimentConfig.paper_canonical(
        policy="rr", n_iterations=1
    ),
    "paper_fattree_one_iteration": ExperimentConfig.paper_fattree(
        policy="rr", n_iterations=1
    ),
}


def _write_report(record: dict) -> None:
    """Merge one scenario record into the JSON report (keyed by name)."""
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


@pytest.mark.smoke
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_score_iteration_at_paper_scale(name, emit):
    config = SCENARIOS[name]
    t0 = time.perf_counter()
    env = build_environment(config)
    build_s = time.perf_counter() - t0

    engine = MigrationEngine(env.cost_model)
    scheduler = SCOREScheduler(
        env.allocation,
        env.traffic,
        policy_by_name(config.policy, seed=config.seed),
        engine,
    )
    t1 = time.perf_counter()
    report = scheduler.run(n_iterations=1)
    iteration_s = time.perf_counter() - t1

    record = {
        "name": name,
        "topology": config.topology,
        "n_hosts": env.topology.n_hosts,
        "n_vms": env.allocation.n_vms,
        "n_pairs": env.traffic.n_pairs,
        "build_s": round(build_s, 3),
        "iteration_s": round(iteration_s, 3),
        "holds": report.iterations[0].visits,
        "migrations": report.total_migrations,
        "initial_cost": report.initial_cost,
        "final_cost": report.final_cost,
    }
    _write_report(record)
    emit(
        f"[paper-scale] {name}: {env.allocation.n_vms} VMs on "
        f"{env.topology.n_hosts} hosts, {env.traffic.n_pairs} pairs",
        f"[paper-scale]   build {build_s:6.2f}s   iteration {iteration_s:6.2f}s"
        f"   migrations {report.total_migrations}"
        f"   cost {report.initial_cost:.3e} -> {report.final_cost:.3e}",
    )

    assert iteration_s < ITERATION_BUDGET_S, (
        f"one S-CORE iteration took {iteration_s:.1f}s; "
        f"budget is {ITERATION_BUDGET_S:.0f}s"
    )
    assert report.final_cost < report.initial_cost


#: The committed pre-batching wall-clock of one paper-scale canonical
#: S-CORE iteration (BENCH_fastcost.json `iteration_s` before PR 3) — the
#: baseline the wave-batched round engine is measured against.
BATCHED_ROUND_BASELINE_S = 3.052

#: Acceptance floor: the mean per-iteration wall-clock of the paper's
#: 5-iteration canonical convergence run, wave-batched, must be at least
#: this factor under the recorded pre-batching iteration time.
ROUND_SPEEDUP_FLOOR = 3.0


@pytest.mark.smoke
@pytest.mark.slow
def test_batched_rounds_at_paper_scale(emit):
    """Wave-batched S-CORE convergence run vs the recorded per-hold loop.

    Runs the paper's full 5-iteration RR convergence sequence on the
    2560-host canonical tree through the wave-batched round engine and
    records the mean per-iteration wall-clock (``round_s``), the first
    (heaviest) round, and a freshly measured one-iteration sample of the
    retained per-hold reference loop for contrast.  The acceptance floor
    compares against the *committed* pre-batching baseline of 3.052 s per
    iteration, so the assertion is stable across runner speeds relative
    to the recorded history.
    """
    config = ExperimentConfig.paper_canonical(policy="rr", n_iterations=5)
    env = build_environment(config)
    # This record tracks the round-cache-free wave engine; the cached
    # path has its own record (paper_canonical_cached_rounds).
    scheduler = UncachedScheduler(
        env.allocation,
        env.traffic,
        policy_by_name(config.policy, seed=config.seed),
        MigrationEngine(env.cost_model),
    )
    t0 = time.perf_counter()
    first = scheduler.run(n_iterations=1)
    first_round_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    rest = scheduler.run(n_iterations=4)
    run_s = first_round_s + (time.perf_counter() - t1)
    round_s = run_s / 5.0
    migrations = first.total_migrations + rest.total_migrations

    ref_env = build_environment(config)
    ref_scheduler = PerHoldScheduler(
        ref_env.allocation,
        ref_env.traffic,
        policy_by_name(config.policy, seed=config.seed),
        MigrationEngine(ref_env.cost_model),
    )
    t2 = time.perf_counter()
    ref_scheduler.run(n_iterations=1)
    reference_round_s = time.perf_counter() - t2

    record = {
        "name": "paper_canonical_batched_round",
        "topology": config.topology,
        "n_hosts": env.topology.n_hosts,
        "n_vms": env.allocation.n_vms,
        "run_s": round(run_s, 3),
        "round_s": round(round_s, 3),
        "first_round_s": round(first_round_s, 3),
        "reference_round_s": round(reference_round_s, 3),
        "iterations": 5,
        "migrations": migrations,
        "final_cost": rest.final_cost,
        "baseline_round_s": BATCHED_ROUND_BASELINE_S,
        "speedup_vs_baseline": round(BATCHED_ROUND_BASELINE_S / round_s, 1),
    }
    _write_report(record)
    emit(
        f"[paper-scale] batched rounds: 5-iteration convergence run "
        f"{run_s:6.2f}s ({round_s:.3f}s/iteration, first {first_round_s:.2f}s)",
        f"[paper-scale]   reference per-hold iteration {reference_round_s:6.2f}s"
        f"   recorded baseline {BATCHED_ROUND_BASELINE_S:.3f}s"
        f"   speedup {BATCHED_ROUND_BASELINE_S / round_s:.1f}x"
        f"   migrations {migrations}",
    )

    assert round_s * ROUND_SPEEDUP_FLOOR <= BATCHED_ROUND_BASELINE_S, (
        f"wave-batched round averages {round_s:.3f}s/iteration; "
        f">= {ROUND_SPEEDUP_FLOOR:.0f}x vs the recorded "
        f"{BATCHED_ROUND_BASELINE_S:.3f}s is required"
    )
    assert rest.final_cost < first.initial_cost


#: The committed wave-batched 5-iteration wall clock (BENCH_fastcost.json
#: `run_s` before the round cache landed) — the denominator of the
#: cached path's recorded headline.
CACHED_RUN_BASELINE_S = 2.829

#: No-regression bound for the cold cached run, relative to the uncached
#: run measured in the same process: cache bookkeeping on an all-dirty
#: system may cost some overhead, but never this much.  A same-runner
#: ratio, unlike an absolute wall-clock, stays stable when the suite
#: runs on a loaded or slower box.
CACHED_COLD_OVERHEAD_CAP = 1.6

#: Acceptance floor: with a warm round cache, a converged 5-iteration
#: run (mostly-clean owners → sparse re-scores) must beat the same
#: warm-state run through the uncached wave engine, measured on the same
#: runner, by at least this factor.
CACHED_CONVERGED_FLOOR = 1.8


@pytest.mark.smoke
@pytest.mark.slow
def test_cached_rounds_at_paper_scale(emit):
    """Dirty-owner round cache vs the uncached wave engine.

    Runs the paper's 5-iteration RR convergence sequence twice per
    variant on the 2560-host canonical tree: the cold run (every owner
    dirty in the early rounds) and two warm follow-on runs on the
    converged system, where the cache re-scores only the few owners
    whose footprint changed.  Asserts the tentpole
    exact-equivalence guarantee — identical migrations and final cost,
    cold and warm — plus the converged-run speedup on the same runner
    (machine-independent) and a same-runner overhead cap on the cold
    cached run vs the uncached one; the recorded pre-cache 2.829 s
    stays in the JSON record as ``speedup_vs_recorded_run``.
    """
    config = ExperimentConfig.paper_canonical(policy="rr", n_iterations=5)

    def measure(scheduler_class):
        env = build_environment(config)
        scheduler = scheduler_class(
            env.allocation,
            env.traffic,
            policy_by_name(config.policy, seed=config.seed),
            MigrationEngine(env.cost_model),
        )
        # Both variants profile, so the timed comparison is like for like;
        # the cached one's counts give the hit ratio.
        scheduler.enable_profiling()
        t0 = time.perf_counter()
        cold = scheduler.run(n_iterations=5)
        cold_s = time.perf_counter() - t0
        warm_s = []
        warm = None
        for _ in range(2):
            t1 = time.perf_counter()
            warm = scheduler.run(n_iterations=5)
            warm_s.append(time.perf_counter() - t1)
        return scheduler, cold, cold_s, warm, min(warm_s)

    sched_u, cold_u, cold_u_s, warm_u, warm_u_s = measure(UncachedScheduler)
    sched_c, cold_c, cold_c_s, warm_c, warm_c_s = measure(SCOREScheduler)

    # Exact equivalence: the cached trajectory IS the uncached one.
    assert cold_c.total_migrations == cold_u.total_migrations
    assert cold_c.final_cost == cold_u.final_cost
    assert warm_c.total_migrations == warm_u.total_migrations
    assert warm_c.final_cost == warm_u.final_cost

    hit_ratio = sched_c.enable_profiling().cache_hit_ratio
    converged_speedup = warm_u_s / warm_c_s
    record = {
        "name": "paper_canonical_cached_rounds",
        "topology": config.topology,
        "n_hosts": env_hosts(sched_c),
        "n_vms": sched_c.allocation.n_vms,
        "iterations": 5,
        "migrations": cold_c.total_migrations,
        "final_cost": cold_c.final_cost,
        "cached_run_s": round(cold_c_s, 3),
        "uncached_run_s": round(cold_u_s, 3),
        "cached_converged_run_s": round(warm_c_s, 3),
        "uncached_converged_run_s": round(warm_u_s, 3),
        "speedup_converged": round(converged_speedup, 1),
        "speedup_vs_recorded_run": round(
            CACHED_RUN_BASELINE_S / cold_c_s, 2
        ),
        "cache_hit_ratio": round(hit_ratio, 3),
    }
    _write_report(record)
    emit(
        f"[paper-scale] cached rounds: cold {cold_c_s:6.2f}s "
        f"(uncached {cold_u_s:6.2f}s, recorded "
        f"{CACHED_RUN_BASELINE_S:.3f}s)",
        f"[paper-scale]   converged run {warm_c_s:6.3f}s vs uncached "
        f"{warm_u_s:6.3f}s   speedup {converged_speedup:.1f}x   "
        f"hit rate {hit_ratio:.1%}",
    )

    assert converged_speedup >= CACHED_CONVERGED_FLOOR, (
        f"warm round cache gives only {converged_speedup:.2f}x on the "
        f"converged run; >= {CACHED_CONVERGED_FLOOR:.1f}x is required"
    )
    assert cold_c_s <= CACHED_COLD_OVERHEAD_CAP * cold_u_s, (
        f"cached cold run {cold_c_s:.3f}s is more than "
        f"{CACHED_COLD_OVERHEAD_CAP:.1f}x the uncached {cold_u_s:.3f}s "
        "measured on the same runner"
    )


def env_hosts(scheduler) -> int:
    """Host count of a scheduler's bound allocation."""
    return scheduler.allocation.cluster.n_servers


#: Acceptance floor for the batched GA: one generation of the population-
#: matrix engine must beat the per-individual reference loop by at least
#: this factor at GAConfig.paper_scale() on the 2560-host topology.
GA_SPEEDUP_FLOOR = 10.0

#: Offspring sample the per-individual reference is timed on (the full
#: brood at paper scale is 500 offspring and takes ~a minute; per-offspring
#: cost is flat, so a sample extrapolates accurately and keeps the smoke
#: job inside CI budgets).
GA_REFERENCE_SAMPLE = 40


@pytest.mark.smoke
def test_ga_generation_at_paper_scale(emit):
    """Batched GA generation vs the pre-batching per-individual loop.

    Builds the paper's GA (population 1,000) on the 2560-host canonical
    tree, times full batched generations (population-matrix tournament /
    crossover / repair / scoring) and the retained per-individual
    reference generation on an offspring sample, and records both into the
    perf report.  The batched engine must be >= 10x faster per generation.
    """
    config = ExperimentConfig.paper_canonical(policy="rr", n_iterations=1)
    env = build_environment(config)
    ga = GeneticOptimizer(
        env.allocation,
        env.traffic,
        env.cost_model,
        GAConfig.paper_scale(seed=config.seed),
    )

    t0 = time.perf_counter()
    population = ga.initial_population()
    costs = ga.population_costs(population)
    seed_s = time.perf_counter() - t0

    ga.step(population, costs)  # warm caches outside the timed window
    generation_times = []
    for _ in range(3):
        t1 = time.perf_counter()
        ga.step(population, costs)
        generation_times.append(time.perf_counter() - t1)
    generation_s = min(generation_times)

    n_offspring = max(1, ga._config.population_size // 2)
    sample = min(GA_REFERENCE_SAMPLE, n_offspring)
    t2 = time.perf_counter()
    ga_step_reference(ga, population, costs, n_offspring=sample)
    reference_sample_s = time.perf_counter() - t2
    reference_generation_s = reference_sample_s * (n_offspring / sample)
    speedup = reference_generation_s / generation_s

    record = {
        "name": "paper_canonical_ga_generation",
        "topology": config.topology,
        "n_hosts": env.topology.n_hosts,
        "n_vms": env.allocation.n_vms,
        "population": ga._config.population_size,
        "seed_population_s": round(seed_s, 3),
        "generation_s": round(generation_s, 3),
        "reference_generation_s": round(reference_generation_s, 3),
        "reference_sampled_offspring": sample,
        "speedup": round(speedup, 1),
    }
    _write_report(record)
    emit(
        f"[paper-scale] GA generation: population {ga._config.population_size} "
        f"x {env.allocation.n_vms} VMs on {env.topology.n_hosts} hosts",
        f"[paper-scale]   batched {generation_s:6.2f}s   per-individual "
        f"~{reference_generation_s:6.1f}s (sampled {sample}/{n_offspring} "
        f"offspring)   speedup {speedup:.1f}x",
    )

    assert speedup >= GA_SPEEDUP_FLOOR, (
        f"batched GA generation is only {speedup:.1f}x faster than the "
        f"per-individual loop; the floor is {GA_SPEEDUP_FLOOR:.0f}x"
    )


#: Acceptance floor for the delta path: the mean epoch transition of a
#: paper-scale multi-epoch dynamic run (traffic delta through
#: ``SCOREScheduler.apply_traffic_delta``, one write into the store the
#: matrix and engine share) must beat a full rebuild from λ — the store
#: re-sorted from its pair list, then an engine bound to it — by at
#: least this factor.
EPOCH_SPEEDUP_FLOOR = 5.0

#: Epochs of the timed dynamic run.
EPOCH_BENCH_EPOCHS = 10

#: Fraction of (heaviest) pairs whose rate a sliding-window re-estimate
#: changes per epoch — the paper's premise is that hotspots drift slowly,
#: so most pairs' averages are unchanged window over window.
EPOCH_CHANGED_FRACTION = 0.05


@pytest.mark.smoke
@pytest.mark.slow
def test_epoch_transitions_at_paper_scale(emit):
    """Delta-path epoch transitions vs full rebuild on the canonical tree.

    Runs a real 10-epoch dynamic loop at paper scale: each epoch perturbs
    the heaviest ~10% of pairs (a sliding-window re-estimate under slow
    hotspot drift) through ``apply_traffic_delta`` and re-runs one token
    iteration.  Records the mean epoch-transition wall clock (``epoch_s``,
    one store splice + cache shifts) against a freshly measured full
    rebuild from λ (``rebuild_s``: the store re-sorted from its pair
    list and an engine bound to it) — both on the same runner, so the
    asserted ratio is machine-independent — plus the engine's own
    ``rebuild()`` (``resync_s``: the caches re-derived from the store,
    which no longer re-sorts anything) and the scheduling time, to show
    epochs are dominated by scheduling, not state maintenance.
    """
    config = ExperimentConfig.paper_canonical(policy="rr", n_iterations=1)
    env = build_environment(config)
    scheduler = make_scheduler(env, config)
    scheduler.run(n_iterations=1)  # settle the heavy first round
    fast = scheduler.fastcost
    assert fast is not None

    resync_s = min(_timed(fast.rebuild) for _ in range(3))
    rebuild_s = min(
        _timed(
            lambda: FastCostEngine(
                scheduler.allocation,
                TrafficMatrix.from_pair_arrays(*scheduler.traffic.pair_arrays()),
            )
        )
        for _ in range(3)
    )

    pairs = sorted(env.traffic.pairs(), key=lambda p: -p[2])
    changed = pairs[: max(1, int(len(pairs) * EPOCH_CHANGED_FRACTION))]
    rng = make_rng(config.seed)
    transition_times = []
    schedule_times = []
    for _ in range(EPOCH_BENCH_EPOCHS):
        factors = 0.7 + 0.6 * rng.random(len(changed))
        delta = [
            (u, v, r * float(f)) for (u, v, r), f in zip(changed, factors)
        ]
        t0 = time.perf_counter()
        scheduler.apply_traffic_delta(delta)
        transition_times.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        scheduler.run(n_iterations=1)
        schedule_times.append(time.perf_counter() - t1)
    assert fast.in_sync, "the dynamic run must never need a cold rebuild"

    epoch_s = sum(transition_times) / len(transition_times)
    schedule_s = sum(schedule_times) / len(schedule_times)
    record = {
        "name": "paper_canonical_epoch_transition",
        "topology": config.topology,
        "n_hosts": env.topology.n_hosts,
        "n_vms": env.allocation.n_vms,
        "n_pairs": env.traffic.n_pairs,
        "epochs": EPOCH_BENCH_EPOCHS,
        "changed_pairs_per_epoch": len(changed),
        "epoch_s": round(epoch_s, 4),
        "rebuild_s": round(rebuild_s, 4),
        "resync_s": round(resync_s, 4),
        "epoch_schedule_s": round(schedule_s, 3),
        "speedup_vs_rebuild": round(rebuild_s / epoch_s, 1),
    }
    _write_report(record)
    emit(
        f"[paper-scale] epoch transitions: {len(changed)} changed pairs/epoch"
        f" over {EPOCH_BENCH_EPOCHS} epochs",
        f"[paper-scale]   delta path {epoch_s * 1e3:7.2f}ms   full rebuild "
        f"{rebuild_s * 1e3:7.2f}ms   speedup {rebuild_s / epoch_s:.1f}x   "
        f"scheduling {schedule_s:.2f}s/epoch",
    )

    assert epoch_s * EPOCH_SPEEDUP_FLOOR <= rebuild_s, (
        f"delta-path epoch transition averages {epoch_s * 1e3:.1f}ms; "
        f">= {EPOCH_SPEEDUP_FLOOR:.0f}x under the {rebuild_s * 1e3:.1f}ms "
        f"full rebuild is required"
    )
    assert schedule_s > epoch_s, (
        "epochs must be dominated by scheduling, not state maintenance"
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


#: Events per burst drained through one pump at paper scale; the stream
#: below cycles surge / retirement / arrival / resize / §V-C squeeze+lift.
EVENT_BENCH_EVENTS = 60

#: Ceiling for draining the whole stream (CI-runner slack included) —
#: sustained absorption must stay interactive at paper scale.
EVENT_ABSORB_BUDGET_S = 30.0


@pytest.mark.smoke
@pytest.mark.slow
def test_event_absorption_at_paper_scale(emit):
    """Sustained event-queue absorption on the canonical 2560-host tree.

    Drains a ``EVENT_BENCH_EVENTS``-event stream (traffic surges, tenant
    retirements and arrivals, host resizes, §V-C bandwidth squeezes and
    lifts — every kind the failure scenarios inject) through
    ``EventQueueRunner.pump`` against a warmed scheduler, timing pure
    absorption: each event lands through the incremental churn/delta
    APIs plus round-cache footprint invalidation.  Records ``absorb_s``
    (trended, lower is better) and ``events_per_second`` (informational)
    as ``paper_canonical_event_absorb``, then runs one mid-round
    interleaved iteration to time the wave-loop bail path at scale.
    """
    from repro.sim.eventqueue import (
        Arrival,
        BandwidthCrunch,
        CapacityChange,
        EventQueueRunner,
        Retirement,
        TrafficSurge,
    )

    config = ExperimentConfig.paper_canonical(policy="rr", n_iterations=1)
    env = build_environment(config)
    scheduler = make_scheduler(env, config)
    runner = EventQueueRunner(scheduler, environment=env)
    scheduler.run(n_iterations=1)  # settle the heavy first round

    def stream(i):
        kind = i % 6
        if kind == 0:
            return TrafficSurge(1.5, top_pairs=32)
        if kind == 1:
            return Retirement(count=4, pick="newest")
        if kind == 2:
            return Arrival(count=4, rate=400.0)
        if kind == 3:
            return CapacityChange(
                hosts=(i % env.topology.n_hosts,), max_vms=6
            )
        if kind == 4:
            return BandwidthCrunch(0.8)
        return BandwidthCrunch(None)  # lift

    for i in range(EVENT_BENCH_EVENTS):
        runner.schedule(scheduler.clock, stream(i))
    t0 = time.perf_counter()
    runner.pump(scheduler.clock)
    absorb_s = time.perf_counter() - t0
    assert len(runner.log) == EVENT_BENCH_EVENTS
    assert all(e.changed for e in runner.log)
    events_per_second = EVENT_BENCH_EVENTS / absorb_s

    # One interleaved iteration: a mid-round surge + retirement exercise
    # the live-continuation bail (fresh candidate batch) at full scale.
    runner.schedule_at_round(
        scheduler.clock / runner.round_seconds + 0.25, TrafficSurge(2.0)
    )
    runner.schedule_at_round(
        scheduler.clock / runner.round_seconds + 0.5,
        Retirement(count=8, pick="coldest"),
    )
    t1 = time.perf_counter()
    runner.run(n_iterations=1)
    interleaved_iteration_s = time.perf_counter() - t1
    assert runner.pending == 0
    fast = scheduler.fastcost
    assert fast is not None and fast.in_sync

    record = {
        "name": "paper_canonical_event_absorb",
        "topology": config.topology,
        "n_hosts": env.topology.n_hosts,
        "n_vms": env.allocation.n_vms,
        "n_pairs": env.traffic.n_pairs,
        "n_events": EVENT_BENCH_EVENTS,
        "absorb_s": round(absorb_s, 4),
        "events_per_second": round(events_per_second, 1),
        "interleaved_iteration_s": round(interleaved_iteration_s, 3),
    }
    _write_report(record)
    emit(
        f"[paper-scale] event absorption: {EVENT_BENCH_EVENTS} events in "
        f"{absorb_s:.3f}s ({events_per_second:,.0f} events/s)",
        f"[paper-scale]   mid-round interleaved iteration "
        f"{interleaved_iteration_s:6.2f}s",
    )

    assert absorb_s < EVENT_ABSORB_BUDGET_S, (
        f"draining {EVENT_BENCH_EVENTS} events took {absorb_s:.1f}s; "
        f"budget is {EVENT_ABSORB_BUDGET_S:.0f}s"
    )


#: Acceptance floor: restoring a warm scheduler from a snapshot must beat
#: a cold rebuild (environment + scheduler + first warm iteration) by at
#: least this factor at paper scale.
SNAPSHOT_RESTORE_MIN_SPEEDUP = 5.0


@pytest.mark.smoke
@pytest.mark.slow
def test_snapshot_restore_at_paper_scale(emit, tmp_path):
    """Snapshot write + restore-to-warm vs cold rebuild on the canonical tree.

    Warms a scheduler with one full iteration at the published 2560-host /
    ~35k-VM scale, writes one atomic checksummed snapshot generation of the
    complete warm state (engine caches included) and loads it back, both
    through the calls the durable drivers' checkpoint and recovery make
    (``write_snapshot`` / ``load_latest_good``), and compares the restore
    wall clock with what reaching the same warm state from nothing costs.
    Records ``paper_canonical_snapshot`` (write/restore/cold-boot seconds,
    file size, speedup); the restored engine must verify in sync with its
    incremental cost exact to 1e-9.
    """
    from repro.persist.snapshot import load_latest_good, write_snapshot

    config = ExperimentConfig.paper_canonical(policy="rr", n_iterations=1)
    t0 = time.perf_counter()
    env = build_environment(config)
    scheduler = make_scheduler(env, config)
    scheduler.run(n_iterations=1)  # the cold path to the same warm state
    cold_boot_s = time.perf_counter() - t0
    fast = scheduler.fastcost
    assert fast is not None and fast.in_sync

    t1 = time.perf_counter()
    path = write_snapshot(
        str(tmp_path), {"environment": env, "scheduler": scheduler}
    )
    snapshot_write_s = time.perf_counter() - t1
    snapshot_mb = os.path.getsize(path) / 1e6

    t2 = time.perf_counter()
    restored = load_latest_good(str(tmp_path)).state["scheduler"]
    restore_s = time.perf_counter() - t2
    rfast = restored.fastcost
    assert rfast is not None and rfast.in_sync
    assert abs(rfast.total_cost() - rfast.recompute_total_cost()) <= (
        1e-9 * max(1.0, abs(rfast.total_cost()))
    )
    assert restored.allocation.n_vms == env.allocation.n_vms

    speedup = cold_boot_s / restore_s
    record = {
        "name": "paper_canonical_snapshot",
        "topology": config.topology,
        "n_hosts": env.topology.n_hosts,
        "n_vms": env.allocation.n_vms,
        "n_pairs": env.traffic.n_pairs,
        "snapshot_write_s": round(snapshot_write_s, 4),
        "snapshot_mb": round(snapshot_mb, 1),
        "restore_s": round(restore_s, 4),
        "cold_boot_s": round(cold_boot_s, 3),
        "speedup_vs_cold_boot": round(speedup, 1),
    }
    _write_report(record)
    emit(
        f"[paper-scale] snapshot: write {snapshot_write_s:6.3f}s "
        f"({snapshot_mb:.1f} MB)   restore-to-warm {restore_s:6.3f}s",
        f"[paper-scale]   cold rebuild to the same warm state "
        f"{cold_boot_s:6.2f}s   speedup {speedup:.1f}x",
    )

    assert speedup >= SNAPSHOT_RESTORE_MIN_SPEEDUP, (
        f"restore-to-warm only {speedup:.1f}x faster than a cold rebuild; "
        f"the floor is {SNAPSHOT_RESTORE_MIN_SPEEDUP:.0f}x"
    )


#: Acceptance band: once the event stream is absorbed, the service's
#: final cost must sit within this relative distance of the converged
#: cost of the *same churned system* (a follow-on quiesce proves it —
#: the service only stops on a zero-migration round, so the gap is the
#: drift any remaining settle rounds would still recover).
SERVICE_CONVERGED_BAND = 1e-6


@pytest.mark.smoke
@pytest.mark.slow
def test_service_throughput_at_paper_scale(tmp_path, emit):
    """The scheduler-as-a-service daemon absorbing churn at paper scale.

    Boots a supervised service on the 2560-host canonical tree (~35k
    VMs), feeds it a seeded Poisson stream of arrivals/retirements/
    surges/crunches, and records the sustained wall-clock event
    absorption rate and the p99 admission-to-emitted-plan latency —
    the service-layer headline ``bench_trend.py`` trends.  The cost
    acceptance is convergence, not a fixed number: after the stream is
    absorbed the daemon's final cost must sit within
    ``SERVICE_CONVERGED_BAND`` of what quiescing the same churned
    system settles to.
    """
    from repro.service import PoissonSource, SchedulerService, ServiceConfig

    config = ExperimentConfig.paper_canonical(policy="rr")
    t0 = time.perf_counter()
    service = SchedulerService.create(
        config,
        str(tmp_path / "svc"),
        lambda rs: PoissonSource(2.0, rs, 4.0, seed=7),
        config=ServiceConfig(checkpoint_every=8),
    )
    boot_s = time.perf_counter() - t0
    report = service.serve()
    assert report.state == "stopped"
    assert report.events_applied > 0
    assert not report.safe_mode and not report.degraded

    # The service only stops on a zero-migration round; quiescing the
    # same system must confirm there was nothing left to settle.
    settle = service.scheduler.quiesce(max_rounds=25)
    converged_cost = settle[-1].final_cost
    gap = abs(report.final_cost - converged_cost) / max(
        1.0, abs(converged_cost)
    )
    service.close()

    record = {
        "name": "paper_canonical_service_throughput",
        "topology": config.topology,
        "n_hosts": service.environment.topology.n_hosts,
        "n_vms": service.environment.allocation.n_vms,
        "rounds": report.rounds_total,
        "events": report.events_applied,
        "boot_s": round(boot_s, 3),
        "serve_s": round(report.wall_s, 3),
        "events_per_second": round(report.events_per_second, 2),
        "p99_event_to_plan_s": round(report.p99_latency_s, 4),
        "migrations": report.migrations,
        "final_cost": report.final_cost,
        "converged_cost": converged_cost,
        "converged_gap": gap,
    }
    _write_report(record)
    emit(
        f"[paper-scale] service: {report.events_applied} events over "
        f"{report.rounds_total} rounds in {report.wall_s:6.2f}s "
        f"({report.events_per_second:.2f} events/s sustained)",
        f"[paper-scale]   p99 event->plan latency "
        f"{report.p99_latency_s:6.3f}s   migrations {report.migrations}"
        f"   cost {report.final_cost:.3e} "
        f"(converged gap {gap:.2e})",
    )

    assert gap <= SERVICE_CONVERGED_BAND, (
        f"service stopped {gap:.2e} away from the converged cost; "
        f"the band is {SERVICE_CONVERGED_BAND:.0e}"
    )
    assert report.p99_latency_s < ITERATION_BUDGET_S
