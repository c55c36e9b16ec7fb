"""The rule that picks ``SCOREScheduler``'s execution path, and the
fence around the oracles.

The scheduler has no path switches: it reads the path off what it can
observe.  Every policy supplies a round order, and every round runs as
waves: a round order that covers the whole population runs the one
wave loop over the engine's round cache, any other order over a
round-local batch; ``use_sharding`` runs the shard layer and labels the report with the executor it used.  The paths
production no longer takes live in ``repro.reference``, which no
production module may import; and ``repro.core`` is the S-CORE engine
alone, so none of its modules imports ``repro.baselines``.
"""

from __future__ import annotations

import ast
import pathlib
import pickle

import numpy as np
import pytest

import repro
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.rounds import BatchedRoundEngine
from repro.core.scheduler import SCOREScheduler
from repro.reference import NaiveScheduler, PerHoldScheduler, UncachedScheduler
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.util.validation import check_engine_invariants

SMALL = ExperimentConfig(
    n_racks=8, hosts_per_rack=2, tors_per_agg=4, n_cores=2,
    vms_per_host=4, fill_fraction=0.8, seed=5,
)

POLICIES = ["hlf", "lrv", "random", "rr"]


@pytest.mark.parametrize("policy", POLICIES)
def test_the_policy_picks_the_loop(policy):
    """Every policy supplies a round order, so every policy runs waves
    on the round cache."""
    scheduler = make_scheduler(build_environment(SMALL.with_(policy=policy)))
    profile = scheduler.enable_profiling()
    report = scheduler.run(n_iterations=2)
    n_vms = scheduler.allocation.n_vms
    assert report.iterations[0].waves > 0
    # The cached loop refreshes every owner once per round.
    assert profile.counts["owners"] == 2 * n_vms
    assert report.shard_executor is None


@pytest.mark.parametrize("policy", POLICIES)
def test_one_round_runs_chained_by_next_holder_reproduce_one_run(policy):
    """The durable seam: ``run(1)`` k times, each from the previous
    report's ``next_holder``, is ``run(k)`` hold for hold."""
    config = SMALL.with_(policy=policy)
    whole = make_scheduler(build_environment(config))
    chained = make_scheduler(build_environment(config))
    want = whole.run(n_iterations=3)
    holder, got = None, []
    for _ in range(3):
        report = chained.run(n_iterations=1, first_holder=holder)
        holder = report.next_holder
        got.extend(report.decisions)
    assert got == list(want.decisions)
    assert holder == want.next_holder
    assert chained.allocation.as_dict() == whole.allocation.as_dict()


def _sharded_outcome(policy, n_workers):
    scheduler = make_scheduler(
        build_environment(
            SMALL.with_(
                policy=policy, sharding=True, shard_domains=2,
                shard_workers=n_workers,
            )
        )
    )
    try:
        report = scheduler.run(n_iterations=2)
    finally:
        scheduler.close()
    return report, scheduler.allocation.as_dict()


@pytest.mark.parametrize("policy", ["lrv", "random"])
def test_sharded_runs_are_bit_exact_across_executors_and_runs(policy):
    serial, serial_mapping = _sharded_outcome(policy, 1)
    assert serial.shard_executor == "serial"
    assert serial.iterations[0].waves > 0
    for _ in range(2):
        report, mapping = _sharded_outcome(policy, 2)
        if report.shard_executor != "shm ×2":
            pytest.skip(f"shared memory unavailable: {report.shard_executor}")
        assert mapping == serial_mapping
        assert report.final_cost == serial.final_cost
        assert list(report.decisions) == list(serial.decisions)


def test_a_partial_order_leaves_the_round_cache_untouched():
    env = build_environment(SMALL.with_(policy="rr"))
    engine = MigrationEngine(env.cost_model)
    scheduler = SCOREScheduler(
        env.allocation, env.traffic, policy_by_name("rr"), engine
    )
    profile = scheduler.enable_profiling()
    scheduler.run(n_iterations=1)
    fast = scheduler.fastcost
    cache = fast.round_cache(engine.max_candidates)
    batch = cache.batch
    seen, rescored = profile.counts["owners"], profile.counts["owners_rescored"]
    order = sorted(env.allocation.vm_ids())[::2]
    rounds = BatchedRoundEngine(engine, fast, profile=profile)
    result = rounds.run_round(order)
    assert len(result.decisions) == len(order)
    assert cache.batch is batch  # never refreshed
    assert profile.counts["owners"] == seen
    assert profile.counts["owners_rescored"] == rescored


BATCH_ARRAYS = (
    "ptr", "host", "cover", "rank", "delta", "onto_rate", "source",
    "degree", "total_rate",
)


@pytest.mark.parametrize("threshold", [None, 0.9], ids=["uniform", "budget"])
@pytest.mark.parametrize("phase", ["cold", "converged"])
def test_every_full_round_runs_the_wave_loop_over_the_cache_rows(
    phase, threshold, monkeypatch
):
    """A cold round (every owner re-scored) and a converged one, with or
    without a §V-C budget, all hand the one wave loop the round cache's
    own arrays (zero copy) and leave them bit-identical."""
    env = build_environment(SMALL.with_(policy="rr"))
    scheduler = SCOREScheduler(
        env.allocation, env.traffic, policy_by_name("rr"),
        MigrationEngine(env.cost_model, bandwidth_threshold=threshold),
    )
    profile = scheduler.enable_profiling()
    cache = scheduler.fastcost.round_cache(None)
    n_vms = env.allocation.n_vms
    if phase == "converged":
        scheduler.run(n_iterations=1)
        scheduler.quiesce()
    rounds = []
    run_batch = BatchedRoundEngine._run_batch

    def spy(self, order, batch, positions, injector=None):
        arrays = [getattr(batch, name) for name in BATCH_ARRAYS]
        for name, array in zip(BATCH_ARRAYS, arrays):
            assert array is getattr(cache.batch, name), name
        before = [array.copy() for array in arrays]
        result = run_batch(self, order, batch, positions, injector)
        for name, array, copy in zip(BATCH_ARRAYS, arrays, before):
            assert array.dtype == copy.dtype, name
            assert np.array_equal(array, copy), name
        rounds.append((len(order), int(result.migrations)))
        return result

    monkeypatch.setattr(BatchedRoundEngine, "_run_batch", spy)
    rescored = profile.counts.get("owners_rescored", 0)
    scheduler.run(n_iterations=1)
    if phase == "cold":
        assert profile.counts["owners_rescored"] == n_vms  # every owner scored
        assert rounds[0][0] == n_vms and rounds[0][1] > 0
    else:
        assert rounds == [(n_vms, 0)]  # the round moves nobody
        assert profile.counts["owners_rescored"] - rescored < n_vms


def test_sharding_labels_the_report_with_its_executor():
    scheduler = make_scheduler(
        build_environment(SMALL.with_(sharding=True, shard_domains=2))
    )
    try:
        report = scheduler.run(n_iterations=1)
    finally:
        scheduler.close()
    assert report.shard_executor == "serial"
    assert report.iterations[0].waves > 0


def test_a_sharded_scheduler_survives_a_pickle_round_trip():
    config = SMALL.with_(policy="random", sharding=True, shard_domains=2)
    scheduler = make_scheduler(build_environment(config))
    twin = pickle.loads(pickle.dumps(scheduler))
    try:
        want = scheduler.run(n_iterations=1)
        got = twin.run(n_iterations=1)
    finally:
        scheduler.close()
        twin.close()
    assert got.final_cost == want.final_cost
    assert list(got.decisions) == list(want.decisions)


def test_a_scheduler_pickled_before_it_ran_restores_bound():
    """Every state directory's bootstrap generation pickles a scheduler
    that never ran; it restores with its engine bound and runs exactly
    as a twin that was never pickled."""
    want = make_scheduler(build_environment(SMALL)).run(n_iterations=1)
    restored = pickle.loads(
        pickle.dumps(make_scheduler(build_environment(SMALL)))
    )
    _assert_bound(restored)
    got = restored.run(n_iterations=1)
    assert got.iterations[0].waves > 0
    assert got.final_cost == want.final_cost
    assert list(got.decisions) == list(want.decisions)


def _assert_bound(scheduler):
    """The scheduler's engine binds its own allocation and matrix and
    agrees with them."""
    fast = scheduler.fastcost
    assert fast.allocation is scheduler.allocation
    assert fast.traffic is scheduler.traffic
    check_engine_invariants(scheduler, deep=True)


ORACLES = {
    "per-hold": PerHoldScheduler,
    "naive": NaiveScheduler,
    "uncached": UncachedScheduler,
}


@pytest.mark.parametrize("kind", ["single", "sharded", *ORACLES])
def test_a_never_run_scheduler_is_bound_from_construction(kind):
    """The fast engine exists from construction, on production (single
    domain and sharded) and on every oracle; the naive oracle writes
    through it, so it still agrees with its allocation after running."""
    config = SMALL.with_(sharding=True, shard_domains=2) if (
        kind == "sharded"
    ) else SMALL
    scheduler = make_scheduler(build_environment(config))
    if kind in ORACLES:
        scheduler = ORACLES[kind](
            scheduler.allocation, scheduler.traffic, scheduler._policy,
            MigrationEngine(scheduler.cost_model),
        )
    try:
        _assert_bound(scheduler)
        if kind == "naive":
            scheduler.run(n_iterations=2)
            _assert_bound(scheduler)
    finally:
        scheduler.close()


def _imported_modules(node: ast.AST, package: str):
    """Dotted names one import statement can bind (absolute or relative)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        parts = parts[: len(parts) - node.level + 1]
        base = ".".join(parts + ([node.module] if node.module else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _imports_by_module():
    root = pathlib.Path(repro.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_package = path.name == "__init__.py"
        module = ".".join(parts[:-1] if is_package else parts)
        package = module if is_package else module.rpartition(".")[0]
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(_imported_modules(node, package))
        found[module] = names
    return found


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_no_production_module_imports_the_oracles():
    imports = _imports_by_module()
    # The scan sees the package, and sees the oracle module's own imports.
    assert "repro.core.scheduler" in imports
    assert "repro.core.scheduler" in imports["repro.reference"]
    offenders = sorted(
        module
        for module, names in imports.items()
        if module != "repro.reference"
        and any(_within(name, "repro.reference") for name in names)
    )
    assert offenders == []


def test_no_core_module_imports_the_baselines():
    imports = _imports_by_module()
    # The scan sees the baselines' own imports of the engine.
    assert "repro.core.fastcost" in imports["repro.baselines.ga"]
    offenders = sorted(
        module
        for module, names in imports.items()
        if _within(module, "repro.core")
        and any(_within(name, "repro.baselines") for name in names)
    )
    assert offenders == []
