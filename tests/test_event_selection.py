"""Array-backed event selection vs. its scalar definitions.

``Arrival``, ``Retirement`` and ``TrafficSurge`` pick VMs and pairs from
``SCOREScheduler.traffic_snapshot()`` — the store the fast engine binds
while it is indexed over the live population, a view re-indexed onto the
token's ids after a foreign write re-created the allocation's id column.
The scalar definitions (``TrafficMatrix.vm_load`` / ``pairs()`` under
python ``sorted``) are the oracle here: same picks, same tie-breaks, on
every source, and the same picks from either source after churn and
drift.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.fastcost import TrafficSnapshot
from repro.core.rounds import DecisionColumns
from repro.service import SchedulerService, ScriptedSource
from repro.sim import EventQueueRunner
from repro.sim.eventqueue import Arrival, Retirement, TrafficSurge
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.traffic.matrix import TrafficMatrix

#: 8 racks x 2 hosts x 4 slots at 60 % fill: 38 VMs, arrivals never clip.
SMALL = dict(n_racks=8, hosts_per_rack=2, vms_per_host=4, fill_fraction=0.6)

#: How the snapshot is served: by the in-sync engine's store, by a view
#: re-indexed onto the token's ids after a foreign write re-created the
#: allocation's id column, or by the store after an out-of-band rate edit
#: left the engine behind.
SOURCES = ("engine", "re-indexed", "out-of-sync")


@st.composite
def matrices(draw):
    """Pairs over the first ``n`` VMs with few distinct, exactly summable
    rates: load ties, equal-rate pairs and zero-load VMs are the rule."""
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([1.0, 2.0, 2.0, 4.0, 0.5]),
            ).filter(lambda p: p[0] != p[1]),
            max_size=30,
        )
    )
    return n, pairs


def build(drawn, source):
    """Environment whose live VMs are the first ``n`` placed ones, wired
    with exactly the drawn pairs, and a runner served by ``source``."""
    n, pairs = drawn
    env = build_environment(ExperimentConfig(seed=1, **SMALL))
    matrix = env.traffic
    ids = sorted(env.allocation.vm_ids())
    env.allocation.remove_vms(ids[n:])
    matrix.apply_delta([(u, v, 0.0) for u, v, _ in list(matrix.pairs())])
    matrix.apply_delta([(ids[u], ids[v], rate) for u, v, rate in pairs])
    scheduler = make_scheduler(env)
    if source == "re-indexed":
        reindex_behind_the_engine(scheduler)
    else:
        scheduler.run(n_iterations=1)
    if source == "out-of-sync":
        matrix.set_rate(ids[0], ids[1], 8.0)
        assert not scheduler.fastcost.in_sync
    elif source == "engine":
        assert scheduler.traffic_snapshot() is matrix.store
    return env, scheduler, EventQueueRunner(scheduler, environment=env)


def reindex_behind_the_engine(scheduler):
    """Take a VM out of the allocation and put it back, bypassing the
    engine: same population, a new id column, so the snapshot is served
    as a view re-indexed onto the token's ids."""
    allocation = scheduler.allocation
    vm_id = min(allocation.vm_ids())
    vm, host = allocation.vm(vm_id), allocation.server_of(vm_id)
    allocation.remove_vms([vm_id])
    allocation.add_vms([vm], [host])
    assert scheduler.traffic_snapshot() is not scheduler.traffic.store


def scalar_retirement(scheduler, count, pick):
    matrix = scheduler.traffic
    alive = sorted(scheduler.allocation.vm_ids())
    keys = {
        "hottest": lambda v: (-matrix.vm_load(v), v),
        "coldest": lambda v: (matrix.vm_load(v), v),
        "newest": lambda v: -v,
        "oldest": lambda v: v,
    }
    # The token keeps one entry: the ranking's tail is clipped.
    return sorted(alive, key=keys[pick])[: min(count, len(alive) - 1)]


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(matrices(), st.integers(1, 14), st.sampled_from(Retirement.PICKS),
       st.sampled_from(SOURCES))
def test_retirement_sets_match_scalar_definition(drawn, count, pick, source):
    env, scheduler, runner = build(drawn, source)
    expected = scalar_retirement(scheduler, count, pick)
    before = set(env.allocation.vm_ids())
    changed = Retirement(count, pick=pick).apply(runner, 0.0)
    assert changed == bool(expected)
    assert before - set(env.allocation.vm_ids()) == set(expected)
    assert len(scheduler.token) >= 1  # single survivor at worst


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(matrices(), st.sampled_from(SOURCES))
def test_arrival_seeds_on_hottest_lowest_id(drawn, source):
    env, scheduler, runner = build(drawn, source)
    matrix = scheduler.traffic
    expected = max(
        env.allocation.vm_ids(), key=lambda v: (matrix.vm_load(v), -v)
    )
    arrival = Arrival(2, rate=300.0)
    assert arrival.apply(runner, 0.0)
    for vm_id in arrival.admitted:
        assert matrix.rate(vm_id, expected) == 300.0


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(matrices(), st.integers(1, 40), st.sampled_from(SOURCES))
def test_surge_scales_the_scalar_top_k(drawn, top_pairs, source):
    _env, scheduler, runner = build(drawn, source)
    matrix = scheduler.traffic
    before = {(u, v): rate for u, v, rate in matrix.pairs()}
    ranked = sorted(before, key=lambda p: (-before[p], p[0], p[1]))
    expected = dict(before)
    for pair in ranked[:top_pairs]:  # top_pairs may exceed the pair count
        expected[pair] *= 3.0
    changed = TrafficSurge(3.0, top_pairs=top_pairs).apply(runner, 0.0)
    assert changed == bool(before)
    assert {(u, v): rate for u, v, rate in matrix.pairs()} == expected


def test_ranking_primitives_break_ties_like_sorted():
    matrix = TrafficMatrix.from_pairs(
        [(0, 3, 2.0), (1, 2, 2.0), (0, 1, 2.0), (2, 5, 1.0), (3, 5, 1.0)]
    )
    snapshot = TrafficSnapshot.build(matrix, range(7))  # VMs 4, 6 idle
    assert snapshot.vm_loads().tolist() == [
        matrix.vm_load(v) for v in range(7)
    ]
    # Loads: 0->4, 1->4, 2->3, 3->3, 4->0, 5->2, 6->0.
    assert snapshot.ranked_vms(3, hottest=True).tolist() == [0, 1, 2]
    assert snapshot.ranked_vms(3, hottest=False).tolist() == [4, 6, 5]
    assert snapshot.ranked_vms(99, hottest=False).tolist() == [
        4, 6, 5, 2, 3, 0, 1
    ]
    us, vs, rates = snapshot.heaviest_pairs(4)
    assert list(zip(us.tolist(), vs.tolist(), rates.tolist())) == [
        (0, 1, 2.0), (0, 3, 2.0), (1, 2, 2.0), (2, 5, 1.0)
    ]
    assert len(snapshot.heaviest_pairs(99)[0]) == 5


@pytest.mark.parametrize("seed", [3, 11])
def test_bound_and_reindexed_sources_agree_through_churn_and_drift(seed):
    """Twin systems, one served by the delta-patched engine's store and
    one by the view re-indexed after a foreign write, fed one script of
    surges (non-dyadic rates, so load sums depend on summation order),
    drift, arrivals and load-ranked retirements: the same VMs and pairs
    are picked at every step."""

    def twin(bound):
        env = build_environment(ExperimentConfig(seed=seed, **SMALL))
        scheduler = make_scheduler(env)
        if bound:
            scheduler.run(n_iterations=1)
        else:
            reindex_behind_the_engine(scheduler)
        return env, scheduler, EventQueueRunner(scheduler, environment=env)

    live, bare = twin(True), twin(False)
    script = [
        lambda: TrafficSurge(1.37, top_pairs=6),
        lambda: Arrival(3, rate=333.3),
        lambda: Retirement(2, pick="hottest"),
        lambda: TrafficSurge(0.61, top_pairs=9),
        lambda: Retirement(3, pick="coldest"),
        lambda: Arrival(2, rate=777.7),
        lambda: Retirement(1, pick="hottest"),
    ]
    for step, make_event in enumerate(script):
        for env, scheduler, runner in (live, bare):
            if step == 3:  # drift a third of the live pairs
                scheduler.apply_traffic_delta([
                    (u, v, rate * 1.1)
                    for u, v, rate in sorted(env.traffic.pairs())[::3]
                ])
            assert make_event().apply(runner, 0.0)
        assert live[1].fastcost.in_sync
        assert live[1].traffic_snapshot() is live[0].traffic.store
        assert bare[1].traffic_snapshot() is not bare[0].traffic.store
        assert sorted(live[0].traffic.pairs()) == sorted(bare[0].traffic.pairs())
        assert set(live[0].allocation.vm_ids()) == set(bare[0].allocation.vm_ids())


def test_one_service_round_runs_no_per_element_python(tmp_path, monkeypatch):
    """The machine-independent reason the per-event path got cheaper: a
    service round with churn on it walks neither the matrix's pairs nor
    per-VM loads, and never materializes its decisions."""
    events = [
        (0.10, TrafficSurge(1.5, top_pairs=4)),
        (0.20, Arrival(2, rate=400.0)),
        (0.30, Retirement(1, pick="hottest")),
        (0.40, Retirement(1, pick="coldest")),
        (1.20, TrafficSurge(0.8, top_pairs=8)),
    ]
    service = SchedulerService.create(
        ExperimentConfig(seed=5, **SMALL),
        str(tmp_path),
        lambda round_s: ScriptedSource(
            [(at * round_s, event) for at, event in events]
        ),
    )
    calls = {"pairs": 0, "vm_load": 0, "_materialize": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(TrafficMatrix, "pairs")
    counted(TrafficMatrix, "vm_load")
    counted(DecisionColumns, "_materialize")
    with service:
        plans = [service.step() for _ in range(3)]
    assert service.report.events_applied == len(events)
    assert sum(plan.migrations for plan in plans) > 0
    assert calls == {"pairs": 0, "vm_load": 0, "_materialize": 0}
