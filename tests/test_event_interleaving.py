"""Fuzzed interleaving differential for the continuous-time event queue.

Seeded random event schedules (arrivals, retirements, traffic surges,
rack outages with restores, capacity resizes, bandwidth crunches) are
replayed two ways on independently built twin schedulers:

* **mid-round** — :meth:`EventQueueRunner.run`, events land between
  waves of in-flight rounds through the ``event_pump`` seam;
* **at boundaries** — :meth:`EventQueueRunner.run_at_boundaries`, the
  same events defer to the nearest round boundary.

The two trajectories legitimately diverge (injection granularity changes
which holds see which state), so they are not compared to each other.
Instead each twin must end *internally exact*: the full engine-invariant
harness passes and the incremental engine's cost matches a
rebuilt-from-scratch :class:`FastCostEngine` to 1e-9 — after any fuzzed
schedule, under ``rr`` and ``hlf``, with the round cache on and off.
On top of that, cached and uncached twins fed the identical mid-round
schedule must stay bit-exact twins, decision for decision.

``pytest -m stress`` widens the seed matrix (``REPRO_STRESS_SEEDS`` —
comma-separated ints — overrides the shipped list); CI runs it as a
dedicated job.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.fastcost import FastCostEngine
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.scheduler import SCOREScheduler
from repro.reference import UncachedScheduler
from repro.scenarios import EventSpec
from repro.sim import EventQueueRunner
from repro.sim.experiment import ExperimentConfig, build_environment
from repro.util.validation import check_engine_invariants

#: Small canonical tree: 8 racks x 2 hosts x 4 slots (2 pods), with
#: enough free headroom that fuzzed arrivals never clip and a one-rack
#: outage always finds failover capacity — so twin populations evolve
#: identically and only the *injection granularity* differs.
SMALL = dict(n_racks=8, hosts_per_rack=2, vms_per_host=4, fill_fraction=0.6)

RELTOL = 1e-9


def build_runner(seed, policy, cached, validate=False):
    """One independently built environment + scheduler + event runner."""
    config = ExperimentConfig(policy=policy, seed=seed, **SMALL)
    env = build_environment(config)
    scheduler_class = SCOREScheduler if cached else UncachedScheduler
    scheduler = scheduler_class(
        env.allocation,
        env.traffic,
        policy_by_name(policy, seed=seed),
        MigrationEngine(env.cost_model),
    )
    return env, scheduler, EventQueueRunner(
        scheduler, environment=env, validate=validate
    )


def fuzz_schedule(seed, horizon_rounds=3.0):
    """A deterministic random event schedule from one integer seed.

    Returns declarative :class:`EventSpec` tuples so each replay builds
    *fresh* event objects (events may carry per-apply state).  At most
    one outage per schedule keeps drain/restore pairs non-overlapping.
    """
    rng = random.Random(seed)
    kinds = [
        "traffic_surge",
        "arrival",
        "retirement",
        "capacity_change",
        "bandwidth_crunch",
        "outage",
    ]
    specs = []
    for _ in range(rng.randint(4, 7)):
        at = round(rng.uniform(0.05, horizon_rounds - 0.2), 3)
        kind = rng.choice(kinds)
        if kind == "traffic_surge":
            spec = EventSpec(
                kind=kind,
                at_round=at,
                factor=rng.choice([0.25, 0.5, 2.0, 4.0]),
                top_pairs=rng.randint(3, 10),
            )
        elif kind == "arrival":
            spec = EventSpec(
                kind=kind,
                at_round=at,
                count=rng.randint(2, 5),
                rate=float(rng.randint(200, 800)),
            )
        elif kind == "retirement":
            spec = EventSpec(
                kind=kind,
                at_round=at,
                count=rng.randint(1, 3),
                pick=rng.choice(("hottest", "coldest", "newest", "oldest")),
            )
        elif kind == "capacity_change":
            spec = EventSpec(
                kind=kind,
                at_round=at,
                hosts=(rng.randrange(16),),
                max_vms=rng.choice([2, 3, 6]),
            )
        elif kind == "bandwidth_crunch":
            spec = EventSpec(
                kind=kind,
                at_round=at,
                threshold=rng.choice([0.4, 0.6, 0.8]),
                lift_after_rounds=round(rng.uniform(0.5, 1.5), 2),
            )
        else:  # outage
            spec = EventSpec(
                kind=kind,
                at_round=at,
                racks=(rng.randrange(8),),
                restore_after_rounds=round(rng.uniform(0.5, 1.5), 2),
            )
            kinds.remove("outage")
        specs.append(spec)
    return tuple(specs)


def schedule_all(runner, specs):
    for spec in specs:
        runner.schedule_at_round(spec.at_round, spec.build(runner.round_seconds))


def assert_internally_exact(env, scheduler):
    """The post-run acceptance bar for one twin: every engine invariant
    holds and the incremental cost equals a from-scratch rebuild."""
    check_engine_invariants(scheduler)
    rebuilt = FastCostEngine(env.allocation, env.traffic)
    live = scheduler.fastcost.total_cost()
    fresh = rebuilt.total_cost()
    assert abs(live - fresh) <= RELTOL * max(1.0, abs(fresh))


def run_differential(seed, policy, cached, n_iterations=3):
    """One fuzz case: mid-round and boundary replays of the same schedule
    on independent twins, each held to the internal-exactness bar."""
    specs = fuzz_schedule(seed)

    env_mid, sched_mid, runner_mid = build_runner(seed, policy, cached)
    schedule_all(runner_mid, specs)
    report_mid = runner_mid.run(n_iterations=n_iterations)

    env_bnd, sched_bnd, runner_bnd = build_runner(seed, policy, cached)
    schedule_all(runner_bnd, specs)
    reports_bnd = runner_bnd.run_at_boundaries(n_iterations=n_iterations)

    assert_internally_exact(env_mid, sched_mid)
    assert_internally_exact(env_bnd, sched_bnd)

    # Traffic and population evolve event-driven only, so the twins must
    # agree on *what exists* even though placements diverge.
    assert sorted(env_mid.allocation.vm_ids()) == sorted(
        env_bnd.allocation.vm_ids()
    )
    assert env_mid.traffic.n_pairs == env_bnd.traffic.n_pairs
    # The *primary* (spec-scheduled) events fired identically in both
    # granularities.  Follow-ups (restores, budget lifts) are scheduled
    # relative to the pump's "now", which legitimately differs between
    # wave- and boundary-granularity — so only primaries are compared.
    primary_times = {
        spec.at_round * runner_mid.round_seconds for spec in specs
    }

    def primary_key(log):
        return [
            (e.time_s, e.event.describe())
            for e in log
            if e.time_s in primary_times
        ]

    assert primary_key(runner_mid.log) == primary_key(runner_bnd.log)
    assert len(primary_key(runner_mid.log)) == len(specs)
    assert len(runner_mid.log) >= len(specs)  # follow-ups may add more
    assert report_mid.final_cost > 0
    assert all(r.final_cost > 0 for r in reports_bnd)
    return report_mid


def decisions_key(report):
    return [
        (d.vm_id, d.target_host, d.migrated, d.reason, d.delta)
        for d in report.decisions
    ]


QUICK_SEEDS = [11, 23, 37]


class TestInterleavingDifferential:
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_mid_round_vs_boundary_stay_exact(self, seed, policy, cached):
        run_differential(seed, policy, cached)

    @pytest.mark.parametrize("policy", ["rr", "hlf"])
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_cached_equals_uncached_under_identical_schedule(
        self, seed, policy
    ):
        """The round cache must be invisible even when events land between
        waves: bit-exact decisions, waves and costs against the uncached
        twin fed the identical mid-round schedule."""
        specs = fuzz_schedule(seed)
        reports = {}
        for cached in (True, False):
            env, sched, runner = build_runner(seed, policy, cached)
            schedule_all(runner, specs)
            reports[cached] = runner.run(n_iterations=3)
            assert_internally_exact(env, sched)
        assert decisions_key(reports[True]) == decisions_key(reports[False])
        assert reports[True].final_cost == reports[False].final_cost
        assert [i.waves for i in reports[True].iterations] == [
            i.waves for i in reports[False].iterations
        ]
        assert [i.migrations for i in reports[True].iterations] == [
            i.migrations for i in reports[False].iterations
        ]

    def test_fuzz_replay_is_deterministic(self):
        """Same seed, same schedule, same trajectory — byte for byte."""
        assert fuzz_schedule(42) == fuzz_schedule(42)
        a = run_differential(42, "hlf", True)
        b = run_differential(42, "hlf", True)
        assert decisions_key(a) == decisions_key(b)
        assert a.final_cost == b.final_cost

    def test_per_event_validation_hook_runs_clean(self):
        """validate=True replays the whole invariant harness after every
        single applied event, mid-round included."""
        specs = fuzz_schedule(7)
        env, sched, runner = build_runner(7, "hlf", True, validate=True)
        schedule_all(runner, specs)
        runner.run(n_iterations=3)
        assert len(runner.log) >= len(specs)


def _stress_seeds():
    raw = os.environ.get("REPRO_STRESS_SEEDS", "")
    if raw.strip():
        return [int(s) for s in raw.split(",") if s.strip()]
    return [101, 202, 303, 404, 505]


@pytest.mark.stress
@pytest.mark.parametrize("policy", ["rr", "hlf"])
@pytest.mark.parametrize("seed", _stress_seeds())
def test_stress_seed_matrix(seed, policy):
    """The wide matrix CI runs as its own job: longer horizons, per-event
    invariant validation on, cache on and off for every seed."""
    for cached in (True, False):
        specs = fuzz_schedule(seed, horizon_rounds=4.0)
        env, sched, runner = build_runner(seed, policy, cached, validate=True)
        schedule_all(runner, specs)
        runner.run(n_iterations=4)
        assert_internally_exact(env, sched)
        # Boundary twin of the same seed, also invariant-checked per event.
        env_b, sched_b, runner_b = build_runner(seed, policy, cached, validate=True)
        schedule_all(runner_b, specs)
        runner_b.run_at_boundaries(n_iterations=4)
        assert_internally_exact(env_b, sched_b)
