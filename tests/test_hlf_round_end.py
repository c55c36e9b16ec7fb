"""HLF in wave-batched rounds: the frozen order and the round-end write.

A batched HLF round freezes Algorithm 1's priority at round start
(``round_order``) and writes every entry's measured highest level at
round end (``end_round``); nothing touches the token in between.  The
per-hold loop walks the same order and closes it the same way, so on a
round that moves nothing both leave the measured levels behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CanonicalTree,
    Cluster,
    CostModel,
    DCTrafficGenerator,
    MigrationEngine,
    PlacementManager,
    SPARSE,
    SCOREScheduler,
    ServerCapacity,
    Token,
    place_random,
)
from repro.core.fastcost import FastCostEngine
from repro.core.policies import HighestLevelFirstPolicy
from repro.reference import PerHoldScheduler


def build_env(seed=0):
    topo = CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)
    cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=8192, cpu=8.0))
    manager = PlacementManager(cluster)
    vms = manager.create_vms(64, ram_mb=512, cpu=0.5)
    allocation = place_random(cluster, vms, seed=seed)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], SPARSE, seed=seed
    ).generate()
    return topo, allocation, traffic


def test_static_round_end_matches_the_per_hold_loop():
    """With migrations suppressed (huge cm) the placement never changes,
    so the batched and the per-hold round end write the same levels."""
    topo, allocation, traffic = build_env(3)
    cm = 1e18
    reference = PerHoldScheduler(
        allocation.copy(), traffic, HighestLevelFirstPolicy(),
        MigrationEngine(CostModel(topo), migration_cost=cm),
    )
    reference.run(n_iterations=1)
    # Engines over different allocations bind different matrices.
    batched = SCOREScheduler(
        allocation.copy(), traffic.copy(), HighestLevelFirstPolicy(),
        MigrationEngine(CostModel(topo), migration_cost=cm),
    )
    assert batched.run(n_iterations=1).total_migrations == 0
    levels = dict(zip(batched.token.vm_ids, batched.token.levels.tolist()))
    assert levels == dict(
        zip(reference.token.vm_ids, reference.token.levels.tolist())
    )
    # ... and both equal the measured highest levels.
    fast = batched.fastcost
    measured = dict(
        zip(fast.snapshot.vm_ids.tolist(), fast.highest_levels().tolist())
    )
    assert levels == measured


def _keyed_order(token, vm_u):
    """HLF's round order as a python key sort: level descending, then
    cyclic id order after the holder."""
    level_of = dict(zip(token.vm_ids, token.levels.tolist()))
    ids = [vm for vm in token.vm_ids if vm != vm_u]
    ids.sort(key=lambda v: (-level_of[v], v <= vm_u, v))
    return ([vm_u] if vm_u in token else []) + ids


@pytest.mark.parametrize("seed", range(5))
def test_round_order_is_the_keyed_priority_sort(seed):
    rng = np.random.default_rng(seed)
    token = Token(rng.choice(1000, size=60, replace=False).tolist())
    token.set_levels(token.ids, rng.integers(0, 4, size=len(token)))
    policy = HighestLevelFirstPolicy()
    for vm_u in [*rng.choice(token.ids, size=3).tolist(), -1, 500, 2000]:
        order = policy.round_order(token, vm_u)
        assert order.dtype == np.int64
        assert np.array_equal(order, _keyed_order(token, vm_u))


def test_end_round_writes_known_entries_and_restarts_at_the_top():
    """Entries the engine does not know (a domain's stale last entry)
    keep their level; the next holder is the lowest id at the top level."""
    topo, allocation, traffic = build_env(4)
    fast = FastCostEngine(allocation, traffic)
    stranger = max(allocation.vm_ids()) + 10
    token = Token([*allocation.vm_ids(), stranger])
    token.set_levels([stranger], [7])
    policy = HighestLevelFirstPolicy()
    order = policy.round_order(token, token.lowest_id)
    holder = policy.end_round(token, order, fast)
    measured = dict(
        zip(fast.snapshot.vm_ids.tolist(), fast.highest_levels().tolist())
    )
    levels = dict(zip(token.vm_ids, token.levels.tolist()))
    assert {v: levels[v] for v in measured} == measured
    assert levels[stranger] == 7
    assert holder == stranger
    token.set_levels([stranger], [0])
    top = max(measured.values())
    assert policy.end_round(token, order, fast) == min(
        v for v, level in measured.items() if level == top
    )
