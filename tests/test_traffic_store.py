"""λ lives once: the traffic matrix's columnar store is the engine's.

A ``TrafficMatrix`` keeps one :class:`TrafficSnapshot` store; a fast
engine binds to it (re-indexed onto its allocation's id column) instead
of copying it, so one write is the whole update whichever way it comes
in.  Pinned here:

* the binding — an engine's snapshot *is* the matrix's store, engines
  over the same allocation share it, another allocation raises;
* a direct write to a bound matrix shows as ``in_sync == False`` and the
  next run lands where the engine path lands;
* every λ write rejects negative, NaN and ±inf rates, as do the events
  that carry rates;
* a pickled scheduler restores with one store shared by matrix and
  engine, in sync, and runs on decision for decision.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.fastcost import FastCostEngine
from repro.core.scheduler import SCOREScheduler
from repro.sim.eventqueue import Arrival, TrafficSurge
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.traffic.matrix import TrafficMatrix

CONFIG = dict(
    n_racks=4, hosts_per_rack=4, tors_per_agg=2, n_cores=1, vms_per_host=4
)


def scheduler_for(seed: int) -> SCOREScheduler:
    return make_scheduler(build_environment(ExperimentConfig(seed=seed, **CONFIG)))


def decisions(report):
    return [(d.vm_id, d.target_host, d.migrated) for d in report.decisions]


def some_delta(traffic, seed):
    """Rate changes, removals and one new pair between placed VMs."""
    rng = np.random.default_rng(seed)
    us, vs, rates = traffic.pair_arrays()
    pick = rng.choice(len(us), 12, replace=False)
    new_rates = rates[pick] * rng.uniform(0.2, 3.0, len(pick))
    new_rates[:3] = 0.0
    delta = list(zip(us[pick].tolist(), vs[pick].tolist(), new_rates.tolist()))
    peers = traffic.peers_of(int(us[0]))
    stranger = next(int(v) for v in vs if int(v) not in peers and v != us[0])
    return delta + [(int(us[0]), stranger, 123.0)]


def test_the_engine_snapshot_is_the_matrix_store():
    scheduler = scheduler_for(1)
    scheduler.run(n_iterations=1)
    fast, traffic = scheduler.fastcost, scheduler.traffic
    assert fast.snapshot is traffic.store
    assert fast.snapshot.vm_ids is scheduler.allocation.columns()[0]
    # A second engine over the same allocation shares it and leaves the
    # first in sync (what a fresh-engine cost check does).
    other = FastCostEngine(scheduler.allocation, traffic)
    assert other.snapshot is traffic.store
    assert other.total_cost() == pytest.approx(fast.total_cost(), rel=1e-12)
    assert fast.in_sync and other.in_sync
    # One write through the engine: the matrix reads it back.
    delta = some_delta(traffic, 1)
    version = traffic.version
    scheduler.apply_traffic_delta(delta)
    assert traffic.version == version + 1
    assert fast.in_sync
    for u, v, rate in delta[3:]:
        assert traffic.rate(u, v) == rate


def test_binding_an_engine_over_another_allocation_raises():
    scheduler = scheduler_for(2)
    scheduler.run(n_iterations=1)
    copy = scheduler.allocation.copy()
    with pytest.raises(ValueError, match="bound to another allocation"):
        FastCostEngine(copy, scheduler.traffic)
    twin = FastCostEngine(copy, scheduler.traffic.copy())
    assert twin.total_cost() == pytest.approx(
        scheduler.fastcost.total_cost(), rel=1e-12
    )
    assert twin.snapshot is not scheduler.traffic.store


def test_a_direct_write_to_a_bound_matrix_desyncs_until_the_next_run():
    direct, routed = scheduler_for(3), scheduler_for(3)
    for scheduler in (direct, routed):
        scheduler.run(n_iterations=1)
    delta = some_delta(direct.traffic, 3)
    direct.traffic.apply_delta(delta)  # bypasses the engine
    routed.apply_traffic_delta(delta)
    assert not direct.fastcost.in_sync
    assert routed.fastcost.in_sync
    theirs, ours = direct.run(n_iterations=1), routed.run(n_iterations=1)
    assert direct.fastcost.in_sync
    assert decisions(theirs) == decisions(ours)
    assert theirs.final_cost == pytest.approx(ours.final_cost, rel=1e-9)
    assert direct.allocation.as_dict() == routed.allocation.as_dict()
    for name in ("vm_ids", "ptr", "row", "peer", "rate"):
        assert np.array_equal(
            getattr(direct.traffic.store, name), getattr(routed.traffic.store, name)
        )
    # A direct move is caught the same way.
    fast = direct.fastcost
    vm = int(direct.allocation.columns()[0][0])
    target = next(
        h for h in range(direct.allocation.cluster.n_servers)
        if h != direct.allocation.server_of(vm)
        and direct.allocation.can_host(h, direct.allocation.vm(vm))
    )
    direct.allocation.migrate_many([(vm, target)])
    assert not fast.in_sync


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_every_lambda_write_rejects_non_finite_and_negative_rates(bad):
    matrix = TrafficMatrix.from_pairs([(1, 2, 5.0), (2, 3, 1.0)])
    before = list(matrix.pairs())
    for write in (
        lambda: matrix.set_rate(1, 2, bad),
        lambda: matrix.add_rate(1, 2, bad),
        lambda: matrix.apply_delta([(1, 3, 2.0), (1, 2, bad)]),
        lambda: matrix.apply_delta(
            (np.array([1]), np.array([2]), np.array([bad]))
        ),
        lambda: TrafficMatrix.from_pairs([(1, 2, bad)]),
        lambda: TrafficMatrix.from_pair_arrays([1], [2], [bad]),
        lambda: matrix.scale(bad),
    ):
        with pytest.raises(ValueError):
            write()
    assert list(matrix.pairs()) == before

    scheduler = scheduler_for(4)
    scheduler.run(n_iterations=1)
    u, v, _ = next(scheduler.traffic.pairs())
    total = scheduler.fastcost.total_cost()
    with pytest.raises(ValueError):
        scheduler.apply_traffic_delta([(u, v, bad)])
    with pytest.raises(ValueError):
        scheduler.fastcost.apply_traffic_delta([(u, v, bad)])
    assert scheduler.fastcost.total_cost() == total
    assert scheduler.fastcost.in_sync


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rate_carrying_events_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="rate must be finite"):
        Arrival(2, rate=bad)
    with pytest.raises(ValueError, match="factor must be finite"):
        TrafficSurge(bad)


# -- pickling -----------------------------------------------------------------


@pytest.mark.parametrize("seed", [5, 6])
def test_a_pickled_scheduler_restores_with_one_store(seed):
    live = scheduler_for(seed)
    live.run(n_iterations=1)
    live.apply_traffic_delta(some_delta(live.traffic, seed))
    assert live.fastcost.in_sync
    restored = pickle.loads(
        pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)
    )
    fast = restored.fastcost
    assert fast.snapshot is restored.traffic.store
    assert fast.snapshot.vm_ids is restored.allocation.columns()[0]
    assert fast.in_sync
    assert restored.traffic.version == live.traffic.version
    assert sorted(restored.traffic.pairs()) == sorted(live.traffic.pairs())
    assert fast.total_cost() == live.fastcost.total_cost()
    ours, theirs = live.run(n_iterations=1), restored.run(n_iterations=1)
    assert decisions(theirs) == decisions(ours)
    assert theirs.final_cost == pytest.approx(ours.final_cost, rel=1e-12)
    assert restored.allocation.as_dict() == live.allocation.as_dict()


def test_a_matrix_pickled_before_its_first_index_use_restores():
    matrix = TrafficMatrix.from_pairs([(1, 2, 3.0), (1, 9, 0.5), (4, 7, 2.0)])
    restored = pickle.loads(pickle.dumps(matrix))
    assert list(restored.pairs()) == [(1, 2, 3.0), (1, 9, 0.5), (4, 7, 2.0)]
    assert restored.version == matrix.version
    assert restored.peers_of(1) == {2, 9}
