"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One S-CORE experiment: build topology/cluster/workload per flags, run
    the token loop, print the cost series and summary (optionally with the
    GA-optimal reference).
``compare-policies``
    Run every token policy on identical starts and print a comparison
    table.
``migration-profile``
    Profile the live-migration model across background loads (Fig. 5c/d).
``scenario``
    Run a named scenario from the catalogue (drifting traffic, tenant
    churn, maintenance drains) epoch by epoch via the delta-path engine;
    ``--list`` prints the catalogue.  Runs drain gracefully on
    SIGINT/SIGTERM: the in-flight round finishes, and a durable run
    (``--checkpoint-dir``/``--recover-from``) flushes a final checkpoint
    before exit.
``serve``
    The scheduler-as-a-service daemon: warm scheduler state, a pluggable
    event source (Poisson, a scenario's event feed, newline-JSON),
    bounded admission control, journaled rounds, supervised restarts
    and graceful signal drain (see ``docs/service.md``).
``info``
    Print version and the paper-scale configurations.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.baselines.ga import GAConfig, GeneticOptimizer
from repro.persist.durable import RecoveryError
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    run_experiment,
)
from repro.sim.metrics import convergence_iteration, resample_series


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", choices=["canonical", "fattree"], default="canonical"
    )
    parser.add_argument("--racks", type=int, default=16, help="canonical: ToR count")
    parser.add_argument("--hosts-per-rack", type=int, default=4)
    parser.add_argument("--tors-per-agg", type=int, default=4)
    parser.add_argument("--cores", type=int, default=2)
    parser.add_argument("--fattree-k", type=int, default=4)
    parser.add_argument("--vms-per-host", type=int, default=8)
    parser.add_argument("--fill", type=float, default=0.85, help="slot fill fraction")
    parser.add_argument(
        "--pattern", choices=["sparse", "medium", "dense"], default="sparse"
    )
    parser.add_argument(
        "--placement",
        choices=["random", "round_robin", "packed", "striped"],
        default="random",
    )
    parser.add_argument(
        "--policy", choices=["rr", "hlf", "random", "lrv"], default="hlf"
    )
    parser.add_argument("--weights", choices=["paper", "exponential", "linear"],
                        default="paper")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--migration-cost", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run sharded: partition into up to N scheduling domains "
        "with a cross-domain reconciliation pass (canonical tree only)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="forked worker processes for the sharded domains (with "
        "--shards; 1 = in-process)",
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        topology=args.topology,
        n_racks=args.racks,
        hosts_per_rack=args.hosts_per_rack,
        tors_per_agg=args.tors_per_agg,
        n_cores=args.cores,
        fattree_k=args.fattree_k,
        vms_per_host=args.vms_per_host,
        fill_fraction=args.fill,
        pattern=args.pattern,
        placement=args.placement,
        policy=args.policy,
        weights=args.weights,
        n_iterations=args.iterations,
        migration_cost=args.migration_cost,
        seed=args.seed,
        sharding=args.shards is not None,
        shard_domains=args.shards,
        shard_workers=args.workers,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    env = build_environment(config)
    print(f"topology:  {env.topology.describe()}")
    print(f"vms:       {env.allocation.n_vms}  "
          f"traffic pairs: {env.traffic.n_pairs}")
    ga_cost: Optional[float] = None
    if args.ga:
        ga = GeneticOptimizer(
            env.allocation, env.traffic, env.cost_model,
            GAConfig(population_size=args.ga_population, seed=config.seed),
        ).run()
        ga_cost = ga.best_cost
        print(f"GA-optimal reference: {ga_cost:,.0f} "
              f"({ga.generations} generations)")
    result = run_experiment(config, environment=env)
    print(f"initial cost: {result.initial_cost:,.0f}")
    print(f"final cost:   {result.final_cost:,.0f}  "
          f"(reduction {result.report.cost_reduction:.0%}, "
          f"{result.report.total_migrations} migrations, "
          f"converged at iteration "
          f"{convergence_iteration(result.report, tolerance=0.01)})")
    if result.report.shard_executor is not None:
        print(f"shard executor: {result.report.shard_executor}")
    reference = (
        min(ga_cost, result.final_cost) if ga_cost is not None else None
    )
    if reference:
        series = result.report.cost_ratio_series(reference)
        grid = [series[-1][0] * f for f in (0, 0.25, 0.5, 0.75, 1.0)]
        print("cost ratio vs optimal over time:")
        for t, ratio in resample_series(series, grid):
            print(f"  t={t:8.1f}s  ratio={ratio:.2f}")
    return 0


def _cmd_compare_policies(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    print(f"{'policy':8s} {'reduction':>10s} {'migrations':>11s} {'converged':>10s}")
    for policy in ("rr", "hlf", "random", "lrv"):
        result = run_experiment(base.with_(policy=policy))
        print(
            f"{policy:8s} {result.report.cost_reduction:10.0%} "
            f"{result.report.total_migrations:11d} "
            f"{convergence_iteration(result.report, tolerance=0.01):10d}"
        )
    return 0


def _cmd_migration_profile(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.testbed.livemigration import PreCopyMigrationModel

    model = PreCopyMigrationModel(ram_mb=args.ram, seed=args.seed)
    print(f"{'bg load':>8s} {'total time':>11s} {'downtime':>10s} {'migrated':>10s}")
    for load in np.linspace(0.0, 1.0, args.points):
        sample = model.sample_migrations(args.samples, background_load=float(load))
        print(
            f"{load:8.2f} "
            f"{np.mean([o.total_time_s for o in sample]):10.2f}s "
            f"{np.mean([o.downtime_ms for o in sample]):8.1f}ms "
            f"{np.mean([o.migrated_bytes_mb for o in sample]):8.0f}MB"
        )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import run_scenario, scenario_by_name, scenario_names

    from repro.service import GracefulShutdown

    if args.recover_from is not None:
        print(f"recovering checkpointed run from {args.recover_from}")
        with GracefulShutdown() as stop:
            result = run_scenario(
                "baseline",  # ignored: the journal names the scenario
                profile=args.profile,
                validate=args.validate,
                recover_from=args.recover_from,
                stop_requested=stop,
            )
        scenario = result.scenario
        print(f"scenario: {scenario.name} — {scenario.description}")
    else:
        if args.list or args.name is None:
            print(f"{'scenario':22s} description")
            for name in scenario_names():
                print(f"{name:22s} {scenario_by_name(name).description}")
            if args.name is None and not args.list:
                print("\nrun one with: python -m repro scenario <name>")
            return 0
        scenario = scenario_by_name(args.name)
        print(f"scenario: {scenario.name} — {scenario.description}")
        with GracefulShutdown() as stop:
            result = run_scenario(
                scenario,
                scale=args.scale,
                epochs=args.epochs,
                iterations_per_epoch=args.iterations_per_epoch,
                seed=args.seed,
                profile=args.profile,
                validate=args.validate,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                stop_requested=stop,
            )
    env = result.environment
    print(f"topology: {env.topology.describe()}  policy: {scenario.config.policy}")
    show_recov = any(s.recovered_from for s in result.epoch_stats)
    recov_header = f" {'recov':>30s}" if show_recov else ""
    print(
        f"{'epoch':>5s} {'vms':>6s} {'migr':>6s} {'return':>6s} {'arr':>4s} "
        f"{'dep':>4s} {'drain':>5s} {'event':>5s} {'cost after':>12s} "
        f"{'trans':>8s} {'sched':>8s}" + recov_header
    )
    for s in result.epoch_stats:
        recov = f" {s.recovered_from or '-':>30s}" if show_recov else ""
        print(
            f"{s.epoch:5d} {s.n_vms:6d} {s.migrations:6d} {s.returning:6d} "
            f"{s.arrivals:4d} {s.departures:4d} {s.drained:5d} {s.events:5d} "
            f"{s.cost_after:12.4g} {s.transition_s:7.3f}s {s.schedule_s:7.3f}s"
            + recov
        )
    print(
        f"cost {result.initial_cost:,.0f} -> {result.final_cost:,.0f}  "
        f"migrations {result.total_migrations} "
        f"(oscillation {result.oscillation_index:.1%}, "
        f"settled={result.settled})"
    )
    print(
        f"wall clock: transitions {result.total_transition_s:.3f}s, "
        f"scheduling {result.total_schedule_s:.3f}s"
    )
    where = args.checkpoint_dir or args.recover_from
    if result.interrupted and where is None:
        print("interrupted by shutdown request")
    elif result.interrupted:
        print(
            f"interrupted by shutdown request — final checkpoint flushed; "
            f"resume with: python -m repro scenario --recover-from {where}"
        )
    if result.profile is not None:
        print("scheduling phases (round-cache hit rates included):")
        print(f"  {'transition':12s} {result.total_transition_s:8.3f}s")
        for line in result.profile.lines(result.total_schedule_s):
            print(f"  {line}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.scenarios.scenario import SCALES
    from repro.service import (
        GracefulShutdown,
        JsonLinesSource,
        PoissonSource,
        SchedulerService,
        ScriptedSource,
        ServiceConfig,
        supervise,
    )

    state_dir = args.state_dir
    config = ServiceConfig(
        checkpoint_every=args.checkpoint_every,
        queue_capacity=args.queue_capacity,
        queue_soft_limit=args.queue_soft_limit,
    )

    def make_source(round_seconds: float):
        if args.source == "none":
            return None
        if args.source == "poisson":
            return PoissonSource(
                args.rate,
                round_seconds,
                args.horizon_rounds,
                seed=args.source_seed,
            )
        if args.source.startswith("scenario:"):
            from repro.scenarios import scenario_by_name

            scenario = scenario_by_name(args.source.split(":", 1)[1])
            return ScriptedSource.from_specs(scenario.events, round_seconds)
        if args.source.startswith("jsonl:"):
            target = args.source.split(":", 1)[1]
            if target == "-":
                return JsonLinesSource(sys.stdin, round_seconds)
            with open(target) as handle:
                return JsonLinesSource(handle, round_seconds)
        raise SystemExit(f"unknown --source {args.source!r}")

    on_plan = None
    if args.print_plans:
        def on_plan(plan):
            print(
                f"  plan round={plan.round} t={plan.clock:.1f}s "
                f"cost={plan.cost:.4g} moves={plan.migrations} "
                f"events={plan.events_absorbed}"
            )

    with GracefulShutdown() as stop:
        if args.resume:
            print(f"resuming service from {state_dir}")

            def create_fn():
                return SchedulerService.resume(state_dir, on_plan=on_plan)

        else:
            experiment = ExperimentConfig(
                **SCALES[args.scale], policy=args.policy, seed=args.seed
            )

            def create_fn():
                return SchedulerService.create(
                    experiment,
                    state_dir,
                    make_source,
                    config=config,
                    on_plan=on_plan,
                )

        outcome = supervise(
            state_dir,
            create_fn,
            max_restarts=args.max_restarts,
            serve_kwargs={"max_rounds": args.rounds, "stop_requested": stop},
        )
        outcome.service.close()
    report = outcome.report
    if outcome.service.recovered_from:
        print(f"recovered from: {outcome.service.recovered_from}")
    print(
        f"rounds: {report.rounds_total} total ({report.rounds} live)  "
        f"plans: {report.plans}  events: {report.events_applied}  "
        f"migrations: {report.migrations}"
    )
    print(f"final cost: {report.final_cost:,.4f}")
    adm = report.admissions
    print(
        f"admission: accepted {adm.get('accepted', 0)}, deferred "
        f"{adm.get('deferred', 0)}, coalesced {adm.get('coalesced', 0)}, "
        f"rejected {adm.get('rejected', 0)} "
        f"(backpressure rounds: {report.backpressure_rounds})"
    )
    if report.events_applied:
        print(
            f"throughput: {report.events_per_second:,.1f} events/s, "
            f"p99 event->plan latency {report.p99_latency_s * 1e3:.2f} ms"
        )
    if report.restarts or report.safe_mode or report.degraded:
        print(
            f"robustness: {report.restarts} supervised restart(s), "
            f"{len(report.safe_mode)} safe-mode window(s), "
            f"{len(report.degraded)} degraded window(s)"
        )
    print(f"stopped: {report.stop_reason}")
    if report.stop_reason == "graceful shutdown":
        print(
            f"final checkpoint flushed — resume with: "
            f"python -m repro serve --resume --state-dir {state_dir}"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} — S-CORE reproduction (ICDCS 2014)")
    print("paper-scale configurations:")
    canonical = ExperimentConfig.paper_canonical()
    fattree = ExperimentConfig.paper_fattree()
    print(f"  canonical: {canonical.n_racks} racks x "
          f"{canonical.hosts_per_rack} hosts, {canonical.vms_per_host} VM slots")
    print(f"  fat-tree:  k={fattree.fattree_k} "
          f"({fattree.fattree_k ** 3 // 4} hosts), "
          f"{fattree.vms_per_host} VM slots")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S-CORE: scalable traffic-aware VM management (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one S-CORE experiment")
    _add_experiment_flags(run_parser)
    run_parser.add_argument("--ga", action="store_true",
                            help="also compute the GA-optimal reference")
    run_parser.add_argument("--ga-population", type=int, default=60)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser(
        "compare-policies", help="compare all token policies"
    )
    _add_experiment_flags(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare_policies)

    profile_parser = sub.add_parser(
        "migration-profile", help="live-migration profile (Fig. 5c/d)"
    )
    profile_parser.add_argument("--ram", type=float, default=196.0)
    profile_parser.add_argument("--points", type=int, default=6)
    profile_parser.add_argument("--samples", type=int, default=30)
    profile_parser.add_argument("--seed", type=int, default=42)
    profile_parser.set_defaults(func=_cmd_migration_profile)

    scenario_parser = sub.add_parser(
        "scenario", help="run a named scenario from the catalogue"
    )
    scenario_parser.add_argument(
        "name", nargs="?", default=None,
        help="registered scenario name (omit or --list to see the catalogue)",
    )
    scenario_parser.add_argument(
        "--list", action="store_true", help="print the scenario catalogue"
    )
    scenario_parser.add_argument(
        "--scale", choices=["toy", "small", "paper"], default=None,
        help="topology scale override (default: as declared)",
    )
    scenario_parser.add_argument("--epochs", type=int, default=None)
    scenario_parser.add_argument(
        "--iterations-per-epoch", type=int, default=None
    )
    scenario_parser.add_argument("--seed", type=int, default=None)
    scenario_parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase scheduling timings (transition / score / "
        "wave-apply / re-mask) and round-cache hit rates",
    )
    scenario_parser.add_argument(
        "--validate", action="store_true",
        help="run the engine-invariant harness after every injected "
        "event and epoch (debug; slows the run down)",
    )
    scenario_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="make the run durable: journal + snapshot generations in DIR",
    )
    scenario_parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="rounds between snapshot generations (with --checkpoint-dir)",
    )
    scenario_parser.add_argument(
        "--recover-from", default=None, metavar="DIR",
        help="resume a killed durable run from its checkpoint directory",
    )
    scenario_parser.set_defaults(func=_cmd_scenario)

    serve_parser = sub.add_parser(
        "serve", help="run the scheduler-as-a-service daemon"
    )
    serve_parser.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable state directory (journal + snapshot generations)",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="recover an existing service from --state-dir instead of "
        "creating one (topology/source come from its journal)",
    )
    serve_parser.add_argument(
        "--scale", choices=["toy", "small", "paper"], default="toy"
    )
    serve_parser.add_argument(
        "--policy", choices=["rr", "hlf", "random", "lrv"], default="hlf"
    )
    serve_parser.add_argument("--seed", type=int, default=42)
    serve_parser.add_argument(
        "--source", default="poisson", metavar="SPEC",
        help="event source: 'poisson', 'scenario:<name>', 'jsonl:<path>', "
        "'jsonl:-' (stdin) or 'none'",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=3.0,
        help="poisson source: mean events per token round",
    )
    serve_parser.add_argument(
        "--horizon-rounds", type=float, default=12.0,
        help="poisson source: stream length in rounds",
    )
    serve_parser.add_argument(
        "--source-seed", type=int, default=0,
        help="poisson source: RNG seed (independent of --seed)",
    )
    serve_parser.add_argument(
        "--rounds", type=int, default=None, metavar="N",
        help="stop after N rounds (default: run until the stream is "
        "absorbed and the scheduler quiesces)",
    )
    serve_parser.add_argument("--checkpoint-every", type=int, default=4)
    serve_parser.add_argument("--queue-capacity", type=int, default=64)
    serve_parser.add_argument(
        "--queue-soft-limit", type=int, default=None,
        help="overload watermark (default: half the capacity)",
    )
    serve_parser.add_argument(
        "--max-restarts", type=int, default=8,
        help="supervised restart budget before a crash propagates",
    )
    serve_parser.add_argument(
        "--print-plans", action="store_true",
        help="print every emitted migration plan",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    info_parser = sub.add_parser("info", help="version and paper-scale info")
    info_parser.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A state directory that ``serve --resume`` or ``scenario
    --recover-from`` cannot recover (an older format tag, the other
    driver's directory, no ``begin`` record, a diverged replay) is one
    ``error:`` line on stderr and exit code 1, not a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
