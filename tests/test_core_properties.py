"""Property-based tests pinning the paper's lemmas to the implementation.

These are the load-bearing invariants of the reproduction:

* **Lemma 3 exactness** — the locally computed migration delta equals the
  difference of globally recomputed costs, for arbitrary allocations,
  traffic matrices and targets.
* **Theorem 1 safety** — a scheduler run never increases the global cost
  when ``cm = 0``, and every performed migration strictly decreases it.
* **Capacity safety** — no sequence of S-CORE decisions ever violates
  server capacity.
* **Only gaining owners hold rows** — every owner of a scored candidate
  batch has a row with delta > 0 or no row at all, and an owner left
  without rows has no candidate the naive Lemma 3 delta says gains
  beyond rounding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CanonicalTree,
    Cluster,
    CostModel,
    FatTree,
    LinkWeights,
    MigrationEngine,
    RoundRobinPolicy,
    SCOREScheduler,
    ServerCapacity,
    TrafficMatrix,
    VM,
)
from repro.cluster.allocation import Allocation
from repro.reference import candidate_hosts

TOPOLOGIES = st.sampled_from(
    [
        CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=2),
        FatTree(k=4),
    ]
)


@st.composite
def scenario(draw):
    """Random topology + allocation + traffic matrix + one VM/target pair."""
    topology = draw(TOPOLOGIES)
    n_hosts = topology.n_hosts
    cluster = Cluster(topology, ServerCapacity(max_vms=4, ram_mb=4096, cpu=8.0))
    n_vms = draw(st.integers(4, 16))
    allocation = Allocation(cluster)
    for vm_id in range(1, n_vms + 1):
        host = draw(st.integers(0, n_hosts - 1))
        vm = VM(vm_id, ram_mb=128, cpu=0.1)
        if allocation.can_host(host, vm):
            allocation.add_vm(vm, host)
        else:
            fallback = next(
                h for h in range(n_hosts) if allocation.can_host(h, vm)
            )
            allocation.add_vm(vm, fallback)
    traffic = TrafficMatrix()
    n_pairs = draw(st.integers(1, 20))
    for _ in range(n_pairs):
        u = draw(st.integers(1, n_vms))
        v = draw(st.integers(1, n_vms))
        if u != v:
            traffic.add_rate(u, v, draw(st.floats(0.1, 1e4)))
    vm_u = draw(st.integers(1, n_vms))
    target = draw(st.integers(0, n_hosts - 1))
    return topology, allocation, traffic, vm_u, target


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(scenario())
def test_lemma3_local_delta_equals_global_difference(data):
    topology, allocation, traffic, vm_u, target = data
    model = CostModel(topology, LinkWeights.paper())
    before = model.total_cost(allocation, traffic)
    delta = model.migration_delta(allocation, traffic, vm_u, target)
    trial = allocation.copy()
    if not trial.can_host(target, trial.vm(vm_u)) and trial.server_of(vm_u) != target:
        return  # infeasible move; nothing to check
    trial.migrate_many([(vm_u, target)])
    after = model.total_cost(trial, traffic)
    assert before - after == pytest.approx(delta, rel=1e-9, abs=1e-9)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(scenario())
def test_scheduler_never_increases_cost_with_zero_cm(data):
    topology, allocation, traffic, _, _ = data
    model = CostModel(topology, LinkWeights.paper())
    engine = MigrationEngine(model)
    scheduler = SCOREScheduler(allocation, traffic, RoundRobinPolicy(), engine)
    report = scheduler.run(n_iterations=2)
    costs = [cost for _, cost in report.time_series]
    for earlier, later in zip(costs, costs[1:]):
        assert later <= earlier + 1e-9
    # Every performed migration strictly improved the global cost.
    for decision in report.decisions:
        if decision.migrated:
            assert decision.delta > 0


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(scenario())
def test_scheduler_preserves_capacity_invariants(data):
    topology, allocation, traffic, _, _ = data
    model = CostModel(topology, LinkWeights.paper())
    engine = MigrationEngine(model)
    scheduler = SCOREScheduler(allocation, traffic, RoundRobinPolicy(), engine)
    scheduler.run(n_iterations=2)
    allocation.validate()


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(scenario(), st.floats(0.0, 1e5))
def test_theorem1_respects_migration_cost(data, cm):
    """No performed migration may gain less than the configured cm."""
    topology, allocation, traffic, _, _ = data
    model = CostModel(topology, LinkWeights.paper())
    engine = MigrationEngine(model, migration_cost=cm)
    scheduler = SCOREScheduler(allocation, traffic, RoundRobinPolicy(), engine)
    report = scheduler.run(n_iterations=1)
    for decision in report.decisions:
        if decision.migrated:
            assert decision.delta > cm


CAPS = st.sampled_from([None, 1, 2, 3, 7])


def scored_batch(data, cap):
    topology, allocation, traffic, _, _ = data
    model = CostModel(topology, LinkWeights.paper())
    engine = MigrationEngine(model, max_candidates=cap)
    fast = engine.bind(allocation, traffic)
    batch = fast.candidate_batch(np.arange(fast.snapshot.n_vms), cap)
    return engine, fast, batch


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(scenario(), CAPS)
def test_every_batch_owner_can_gain_or_has_no_row(data, cap):
    _engine, _fast, batch = scored_batch(data, cap)
    for i in range(batch.n_owners):
        rows = batch.delta[batch.ptr[i] : batch.ptr[i + 1]]
        assert rows.size == 0 or (rows > 0).any()


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(scenario(), CAPS)
def test_an_owner_without_rows_has_no_gaining_candidate(data, cap):
    """The oracle's probing list (capped alike), scored by the naive
    per-peer delta, holds no gain for an owner the batch left empty.
    The naive sum runs in another order, so a true zero may read a few
    ulp either side of it: no gain may exceed 1e-12 of the owner's
    Eq. 1 cost, which bounds every delta it has."""
    _topology, allocation, traffic, _, _ = data
    engine, fast, batch = scored_batch(data, cap)
    model = engine.cost_model
    empty = np.flatnonzero(batch.ptr[1:] == batch.ptr[:-1])
    for vm in fast.snapshot.vm_ids[empty].tolist():
        noise = 1e-12 * max(1.0, model.vm_cost(allocation, traffic, vm))
        for host in candidate_hosts(engine, allocation, traffic, vm):
            assert model.migration_delta(allocation, traffic, vm, host) <= noise
