"""The rule that picks ``SCOREScheduler``'s execution path, and the
fence around the oracles.

The scheduler has no path switches: it reads the path off what it can
observe.  A policy that freezes a round order runs wave rounds on the
engine's round cache; an order-free policy runs the per-hold loop; a
round order that does not cover the whole population takes the uncached
wave loop, and so does a cached round that would carry no decisions
out; ``use_sharding`` runs the shard layer and labels the report with
the executor it used.  The paths production no longer takes live in
``repro.reference``, which no production module may import.
"""

from __future__ import annotations

import ast
import pathlib
import pickle

import pytest

import repro
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.rounds import BatchedRoundEngine
from repro.core.scheduler import SCOREScheduler
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)

SMALL = ExperimentConfig(
    n_racks=8, hosts_per_rack=2, tors_per_agg=4, n_cores=2,
    vms_per_host=4, fill_fraction=0.8, seed=5,
)

#: policy -> whether its rounds run as waves on the round cache.
PATHS = {"rr": True, "hlf": True, "random": False, "lrv": False}


@pytest.mark.parametrize("policy", sorted(PATHS))
def test_the_policy_picks_the_loop(policy):
    wave_rounds = PATHS[policy]
    scheduler = make_scheduler(build_environment(SMALL.with_(policy=policy)))
    report = scheduler.run(n_iterations=2)
    cache = scheduler.fastcost.round_cache()
    n_vms = scheduler.allocation.n_vms
    assert (report.iterations[0].waves > 0) == wave_rounds
    if not wave_rounds:
        assert all(it.waves == 0 for it in report.iterations)
    # The cached loop refreshes every owner once per round.
    assert cache.owners_seen == (2 * n_vms if wave_rounds else 0)
    assert report.shard_executor is None


def test_a_partial_order_leaves_the_round_cache_untouched():
    env = build_environment(SMALL.with_(policy="rr"))
    engine = MigrationEngine(env.cost_model)
    scheduler = SCOREScheduler(
        env.allocation, env.traffic, policy_by_name("rr"), engine
    )
    scheduler.run(n_iterations=1)
    fast = scheduler.fastcost
    cache = fast.round_cache()
    seen, rescored = cache.owners_seen, cache.owners_rescored
    order = sorted(env.allocation.vm_ids())[::2]
    rounds = BatchedRoundEngine(env.allocation, env.traffic, engine, fast)
    result = rounds.run_round(order)
    assert len(result.decisions) == len(order)
    assert (cache.owners_seen, cache.owners_rescored) == (seen, rescored)


@pytest.mark.parametrize("threshold", [None, 0.9], ids=["uniform", "budget"])
def test_only_a_mostly_clean_cached_round_carries_decisions(
    threshold, monkeypatch
):
    """A cold round (every owner re-scored) or a §V-C budget carries
    nothing out, so it runs the uncached wave loop over the cache's rows;
    a converged round on a uniform population carries its decisions."""
    env = build_environment(SMALL.with_(policy="rr"))
    scheduler = SCOREScheduler(
        env.allocation, env.traffic, policy_by_name("rr"),
        MigrationEngine(env.cost_model, bandwidth_threshold=threshold),
    )
    uncached_rounds = []
    run_batch = BatchedRoundEngine._run_batch

    def spy(self, order, *args):
        uncached_rounds.append(len(order))
        return run_batch(self, order, *args)

    monkeypatch.setattr(BatchedRoundEngine, "_run_batch", spy)
    scheduler.run(n_iterations=1)
    cache = scheduler.fastcost.round_cache()
    assert uncached_rounds == [env.allocation.n_vms]
    assert cache.decision_state is None
    scheduler.quiesce()
    del uncached_rounds[:]
    scheduler.run(n_iterations=1)
    carried = threshold is None
    assert uncached_rounds == ([] if carried else [env.allocation.n_vms])
    assert (cache.decision_state is not None) == carried


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


def test_a_restored_scheduler_drops_the_old_path_switches():
    """Snapshots pickled while the switches existed carry them; a
    restored scheduler sheds them instead of re-pickling dead state."""
    scheduler = make_scheduler(build_environment(SMALL))
    obsolete = dict(
        _use_fastcost=True,
        _use_batched_rounds=True,
        _use_round_cache=False,
        _shard_compact=False,
        _shard_transport="pipe",
    )
    vars(scheduler).update(obsolete)
    restored = pickle.loads(pickle.dumps(scheduler))
    assert not set(obsolete) & set(vars(restored))
    assert restored.run(n_iterations=1).iterations[0].waves > 0


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


def test_no_production_module_imports_the_oracles():
    imports = _imports_by_module()
    # The scan sees the package, and sees the oracle module's own imports.
    assert "repro.core.scheduler" in imports
    assert "repro.core.scheduler" in imports["repro.reference"]
    offenders = sorted(
        module
        for module, names in imports.items()
        if module != "repro.reference"
        and any(
            name == "repro.reference" or name.startswith("repro.reference.")
            for name in names
        )
    )
    assert offenders == []
