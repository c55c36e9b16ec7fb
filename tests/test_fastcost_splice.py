"""Differential state machine for the spliced engine structure.

Every structural mutation of ``FastCostEngine`` — pair-set deltas,
arrivals, departures — splices the sorted CSR, the pair arrays and the
sorted pair index in place and shifts the Eq. 1/2 and egress caches by
the changed terms.  ``FastCostEngine(allocation, traffic)`` built fresh
is the reference after every single op:

* the CSR arrays (``vm_ids, ptr, row, peer, rate``) are **array-equal**
  (canonical (row, peer) order — what keeps ``vm_loads()`` and so event
  selection bit-identical on live, restored and cold-rebuilt services),
* the pair arrays are equal as a set (their order is free),
* the lookup indexes are sorted and consistent with the arrays,
* ``vm_loads()`` / ``heaviest_pairs(k)`` are bit-identical,
* the shifted caches agree within 1e-9, dtypes survive, the sync ledger
  holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import CanonicalTree, Cluster, ServerCapacity
from repro.cluster.allocation import Allocation
from repro.cluster.vm import VM
from repro.core.fastcost import FastCostEngine
from repro.sim import EventQueueRunner
from repro.sim.eventqueue import Arrival, Retirement, TrafficSurge
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.traffic.matrix import TrafficMatrix

N_HOSTS = 16
#: VM ids are drawn from this pool; the boot population sits in the
#: middle so arrivals can land below, between and above it.
ID_POOL = range(40)
BOOT_IDS = range(10, 30, 2)
#: 0 removes; the rest are rate changes, including two that are not
#: exactly representable in binary.
RATES = (0.0, 0.0, 0.5, 1.0, 2.0, 2.0, 0.1, 1234.567)


BOOT_PAIRS = ((10, 12, 2.0), (12, 20, 1.0), (14, 28, 0.1))


def build(ids=BOOT_IDS, pairs=BOOT_PAIRS):
    tree = CanonicalTree(n_racks=8, hosts_per_rack=2, tors_per_agg=4, n_cores=2)
    cluster = Cluster(tree, ServerCapacity(max_vms=4, ram_mb=4096, cpu=4.0))
    allocation = Allocation(cluster)
    ids = list(ids)
    allocation.add_vms(
        [VM(i, 512, 0.5) for i in ids], [(7 * i) % N_HOSTS for i in ids]
    )
    traffic = TrafficMatrix.from_pairs(list(pairs))
    return allocation, traffic, FastCostEngine(allocation, traffic)


def pair_set(snapshot):
    return set(
        zip(
            snapshot.pair_u.tolist(),
            snapshot.pair_v.tolist(),
            snapshot.pair_rate.tolist(),
        )
    )


def assert_spliced_matches_fresh(engine, allocation, traffic):
    fresh = FastCostEngine(allocation, traffic)
    snap, ref = engine.snapshot, fresh.snapshot
    for name in ("vm_ids", "ptr", "row", "peer", "rate"):
        got, want = getattr(snap, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    for name in ("pair_u", "pair_v", "pair_rate"):
        assert getattr(snap, name).dtype == getattr(ref, name).dtype, name
    assert pair_set(snap) == pair_set(ref)
    assert len(snap.pair_rate) == len(ref.pair_rate)  # no duplicates hidden

    # Lookup indexes: sorted, and pointing at what they claim to.
    n = snap.n_vms
    key = snap.pair_u * n + snap.pair_v
    assert sorted(engine._pair_sorted_order.tolist()) == list(range(len(key)))
    assert np.array_equal(engine._pair_key_sorted, key[engine._pair_sorted_order])
    assert (np.diff(engine._pair_key_sorted) > 0).all()
    assert np.array_equal(engine._csr_key, snap.row * n + snap.peer)
    assert (np.diff(engine._csr_key) > 0).all()

    # What event selection reads: bit-identical, not merely close.
    assert np.array_equal(snap.vm_loads(), ref.vm_loads())
    for k in (1, 3, snap.n_pairs + 2):
        for got, want in zip(snap.heaviest_pairs(k), ref.heaviest_pairs(k)):
            assert np.array_equal(got, want)

    # Shifted caches vs recomputed ones.
    for name in ("_vm_cost", "_egress", "_cpu_used"):
        assert getattr(engine, name).dtype == np.float64, name
    assert np.allclose(engine.total_cost(), fresh.total_cost(), rtol=1e-9, atol=1e-6)
    assert np.allclose(engine._vm_cost, fresh._vm_cost, rtol=1e-9, atol=1e-6)
    assert np.allclose(engine._egress, fresh._egress, rtol=1e-9, atol=1e-6)
    for name in ("_host_of", "_slot_used", "_ram_used", "_vm_ram"):
        assert np.array_equal(getattr(engine, name), getattr(fresh, name)), name
    assert np.allclose(engine._cpu_used, fresh._cpu_used, rtol=1e-9, atol=1e-9)
    assert engine._uniform_vm == fresh._uniform_vm
    assert engine.in_sync


def apply_delta(engine, traffic, delta):
    engine.apply_traffic_delta(delta)
    traffic.apply_delta(delta)


def admit(engine, allocation, ids):
    vms = [VM(i, 512, 0.5) for i in ids]
    free = [
        h for h in range(N_HOSTS) for _ in range(allocation.free_slots(h))
    ]
    allocation.add_vms(vms, free[: len(vms)])
    engine.add_vms(vms)


def retire_with_pairs(engine, allocation, traffic, ids):
    """Engine-side removal of VMs whose pairs are still snapshotted: the
    matrix-side zeroing and its ledger entry are the caller's job."""
    gone = set(ids)
    ceased = [
        (u, v, 0.0) for u, v, _ in list(traffic.pairs()) if u in gone or v in gone
    ]
    if ceased:
        traffic.apply_delta(ceased)
        engine._advance_sync(traffic=True)
    allocation.remove_vms(ids)
    engine.remove_vms(ids)


class SpliceMachine(RuleBasedStateMachine):
    """Random op sequences over one long-lived engine, never rebuilt."""

    @initialize()
    def boot(self):
        self.allocation, self.traffic, self.engine = build()

    def live(self):
        return sorted(self.allocation.vm_ids())

    @precondition(lambda self: self.allocation.n_vms >= 2)
    @rule(data=st.data())
    def traffic_delta(self, data):
        """Adds, removals, re-adds, rate changes and duplicates, mixed in
        whatever proportion the draw gives (an absent pair at 0 is a
        no-op row)."""
        live = self.live()
        vm = st.sampled_from(live)
        delta = data.draw(
            st.lists(
                st.tuples(vm, vm, st.sampled_from(RATES)).filter(
                    lambda t: t[0] != t[1]
                ),
                min_size=1,
                max_size=8,
            )
        )
        apply_delta(self.engine, self.traffic, delta)

    @precondition(lambda self: self.traffic.n_pairs > 0)
    @rule()
    def drop_every_pair(self):
        delta = [(u, v, 0.0) for u, v, _ in list(self.traffic.pairs())]
        apply_delta(self.engine, self.traffic, delta)

    @precondition(lambda self: self.allocation.n_vms <= 36)
    @rule(data=st.data())
    def arrivals(self, data):
        absent = [i for i in ID_POOL if i not in self.allocation]
        ids = data.draw(
            st.lists(st.sampled_from(absent), min_size=1, max_size=3, unique=True)
        )
        admit(self.engine, self.allocation, ids)

    @precondition(lambda self: self.allocation.n_vms >= 1)
    @rule(data=st.data())
    def departures(self, data):
        ids = data.draw(
            st.lists(
                st.sampled_from(self.live()), min_size=1, max_size=3, unique=True
            )
        )
        retire_with_pairs(self.engine, self.allocation, self.traffic, ids)

    @invariant()
    def spliced_matches_fresh(self):
        if hasattr(self, "engine"):
            assert_spliced_matches_fresh(self.engine, self.allocation, self.traffic)


TestSpliceMachine = SpliceMachine.TestCase
TestSpliceMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)


def test_scripted_corner_cases():
    """The cases the splice has to get right, spelled out one by one."""
    allocation, traffic, engine = build()

    def check():
        assert_spliced_matches_fresh(engine, allocation, traffic)

    check()
    apply_delta(engine, traffic, [(10, 14, 4.0), (26, 28, 0.5)])  # add only
    check()
    apply_delta(engine, traffic, [(10, 12, 0.0)])  # remove only
    check()
    apply_delta(  # add + remove + rate change in one delta
        engine, traffic, [(16, 18, 1234.567), (10, 14, 0.0), (12, 20, 3.0)]
    )
    check()
    apply_delta(engine, traffic, [(10, 12, 1.0), (12, 10, 2.0)])  # duplicate, re-add
    check()
    assert traffic.rate(10, 12) == 2.0
    apply_delta(engine, traffic, [(20, 22, 1.0), (22, 20, 0.0)])  # add then gone
    check()
    admit(engine, allocation, [0, 3])  # low end of the id range
    check()
    admit(engine, allocation, [15])  # middle
    check()
    admit(engine, allocation, [39, 33])  # high end, unsorted batch
    check()
    apply_delta(engine, traffic, [(0, 39, 2.0), (15, 16, 0.1)])
    check()
    retire_with_pairs(engine, allocation, traffic, [12])  # still has pairs
    check()
    retire_with_pairs(engine, allocation, traffic, [0, 39, 22])  # ends + a quiet VM
    check()
    # Down to the last pair, then retire one of its endpoints.
    last = list(traffic.pairs())[-1]
    apply_delta(
        engine, traffic,
        [(u, v, 0.0) for u, v, _ in list(traffic.pairs()) if (u, v) != last[:2]],
    )
    check()
    assert traffic.n_pairs == 1
    retire_with_pairs(engine, allocation, traffic, [last[0]])
    check()
    assert traffic.n_pairs == 0 and engine.total_cost() == pytest.approx(0.0, abs=1e-6)
    # ... and back from the empty matrix.
    live = sorted(allocation.vm_ids())
    apply_delta(engine, traffic, [(live[0], live[-1], 2.0), (live[1], live[2], 0.5)])
    check()
    # Down to no VM at all, and back.
    retire_with_pairs(engine, allocation, traffic, live)
    check()
    assert engine.snapshot.n_vms == 0
    admit(engine, allocation, [5, 4])
    apply_delta(engine, traffic, [(4, 5, 1.0)])
    check()


def test_engine_built_over_an_empty_matrix_takes_its_first_delta():
    # Regression: bincount of an empty input is int64 even with weights,
    # so the caches were integer arrays and the first in-place float
    # shift raised UFuncTypeError.
    allocation, traffic, engine = build(pairs=())
    assert engine._vm_cost.dtype == engine._egress.dtype == np.float64
    apply_delta(engine, traffic, [(10, 12, 0.5)])
    assert_spliced_matches_fresh(engine, allocation, traffic)
    # Same pitfall on the CPU mirror of an engine built over no VMs.
    allocation, traffic, engine = build(ids=(), pairs=())
    admit(engine, allocation, [7])
    assert_spliced_matches_fresh(engine, allocation, traffic)


def test_churn_stream_never_resorts_or_recomputes(monkeypatch):
    """The machine-independent reason for the speedup: after boot, the
    engine absorbs an arrival + retirement + surge stream without a
    rebuild, a from-scratch cache recomputation, a re-index of the pair
    keys or any sort the size of the snapshot."""
    config = ExperimentConfig(
        seed=3, n_racks=8, hosts_per_rack=2, vms_per_host=4, fill_fraction=0.6
    )
    env = build_environment(config)
    scheduler = make_scheduler(env)
    runner = EventQueueRunner(scheduler, environment=env)
    scheduler.run(n_iterations=1)
    engine = scheduler.fastcost
    n_pairs = engine.snapshot.n_pairs

    calls = {
        "rebuild": 0, "_recompute_cost_caches": 0, "_index_pairs": 0,
        "apply_traffic_delta": 0, "add_vms": 0, "remove_vms": 0,
    }
    depth = [0]  # > 0 while one of the engine's delta ops is running

    def counted(name):
        original = getattr(FastCostEngine, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            depth[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(FastCostEngine, name, wrapper)

    for name in calls:
        counted(name)
    # Sorts issued from inside the delta ops, by input size.  (Event
    # selection and round scoring sort too — heads of partitions, the
    # re-scored owners' edges — outside them.)
    sorts = {"lexsort": [], "argsort": []}
    original = {name: getattr(np, name) for name in sorts}

    def lexsort(keys, *args, **kwargs):
        if depth[0]:
            sorts["lexsort"].append(len(keys[0]))
        return original["lexsort"](keys, *args, **kwargs)

    def argsort(a, *args, **kwargs):
        if depth[0]:
            sorts["argsort"].append(len(a))
        return original["argsort"](a, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", lexsort)
    monkeypatch.setattr(np, "argsort", argsort)

    arrival = Arrival(3, rate=300.0)
    stream = [
        arrival,
        TrafficSurge(2.0, top_pairs=4),
        Retirement(2, pick="hottest"),
        Arrival(2, rate=50.0),
        Retirement(1, pick="newest"),
        TrafficSurge(0.5, top_pairs=6),
        Retirement(vm_ids=arrival.admitted),
    ]
    for event in stream:
        assert event.apply(runner, 0.0)
        scheduler.run(n_iterations=1)

    assert calls["apply_traffic_delta"] == 7  # 2 arrivals, 3 retirements, 2 surges
    assert calls["add_vms"] == 2 and calls["remove_vms"] == 3
    assert calls["rebuild"] == 0
    assert calls["_recompute_cost_caches"] == 0
    assert calls["_index_pairs"] == 0
    assert sorts["lexsort"] == []
    # What is sorted is the delta itself: a few keys per event.
    assert sorts["argsort"] and max(sorts["argsort"]) < n_pairs // 2
    assert engine is scheduler.fastcost and engine.in_sync
    assert_spliced_matches_fresh(engine, scheduler.allocation, scheduler.traffic)
