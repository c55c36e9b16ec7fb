"""Candidate rows at rack-block granularity, pinned to the per-host scorer.

:meth:`repro.core.fastcost.FastCostEngine.candidate_batch` holds one
block row per (owner, peer rack) and one host row per (owner, peer
host).  Expanded to one row per candidate host
(:func:`repro.reference.host_rows`), a batch must be, bit for bit, what
the per-host scorer (:func:`repro.reference.score_rows_reference`)
produces — at every round start — and a wave's stale-delta correction,
split rows included, what the per-host correction
(:func:`repro.reference.adjust_rows_reference`) makes of the rows before
it.  The differential runs over seeds x sizes x caps, with and without
the §V-C budget, on a uniform and a mixed VM population, three rounds
each; ``pytest -m roundcache`` widens the seeds (``REPRO_CACHE_SEEDS``).
Plus the peer ranking's one-sort key against ``np.lexsort``, and one
wave that lands a peer on a covered host of a deferred owner.

The gain bound that settles owners before any ranking
(:meth:`~repro.core.fastcost.FastCostEngine._gain_bound`) runs the same
matrix plus a fat-tree: every owner the per-host scorer gives a row with
delta > 0 passes it, and the bounded batch equals the unbounded one
(``_score_owners``) row for row; a hypothesis case covers the owner
whose peers split evenly between its host and a rack-mate's, which the
aggregated score reads a few ulp above 0.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CanonicalTree, Cluster, PlacementManager, ServerCapacity
from repro.cluster.allocation import Allocation
from repro.cluster.placement import place_by_name
from repro.cluster.vm import VM
from repro.core.cost import CostModel, LinkWeights
from repro.core.fastcost import peer_rank_order
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.rounds import BatchedRoundEngine
from repro.core.scheduler import SCOREScheduler
from repro.reference import (
    adjust_rows_reference,
    host_rows,
    score_rows_reference,
)
from repro.topology.fattree import FatTree
from repro.traffic import TrafficMatrix
from repro.traffic.generator import PATTERNS, DCTrafficGenerator


def _cache_seeds(default):
    raw = os.environ.get("REPRO_CACHE_SEEDS", "")
    if raw.strip():
        return [int(s) for s in raw.split(",") if s.strip()]
    return default


def assert_rows_equal(got, want):
    """Per-host rows ``(owner, host, delta, onto)``, bit for bit."""
    names = ("owner", "host", "delta", "onto")
    for name, mine, theirs in zip(names, got, want):
        assert len(mine) == len(theirs), name
        assert np.array_equal(mine, theirs), name


class CheckedRounds(BatchedRoundEngine):
    """The production wave loop, with every wave's stale-delta
    correction compared against the per-host one."""

    adjusted = 0
    splits = 0

    def _adjust_stale(self, batch, moved, old_hosts, new_hosts):
        before = host_rows(batch)
        want = adjust_rows_reference(
            self._fast, batch, before, moved, old_hosts, new_hosts
        )
        n_rows = batch.n_rows
        got = super()._adjust_stale(batch, moved, old_hosts, new_hosts)
        owner, host, delta, onto, _row = host_rows(got)
        assert np.array_equal(owner, before[0])
        assert np.array_equal(host, before[1])
        assert np.array_equal(delta, want[0])
        if len(got.onto_rate):
            assert np.array_equal(onto, want[1])
        type(self).adjusted += 1
        type(self).splits += got.n_rows - n_rows
        return got


class CheckedScheduler(SCOREScheduler):
    _rounds_class = CheckedRounds


def environment(seed: int, n_racks: int, uniform: bool, topology=None):
    """A canonical tree (or the given topology), 80 % full; a mixed
    population's RAM binds."""
    if topology is None:
        topology = CanonicalTree(
            n_racks=n_racks, hosts_per_rack=4, tors_per_agg=4, n_cores=2
        )
    cluster = Cluster(topology, ServerCapacity(max_vms=4, ram_mb=2560, cpu=4.0))
    manager = PlacementManager(cluster)
    n_vms = int(cluster.total_vm_slots * 0.8)
    if uniform:
        vms = manager.create_vms(n_vms, ram_mb=512, cpu=0.5)
    else:
        vms = [
            vm
            for i in range(n_vms)
            for vm in manager.create_vms(1, ram_mb=(256, 512, 1024)[i % 3],
                                         cpu=(0.5, 1.5)[i % 2])
        ]
    allocation = place_by_name("random", cluster, vms, seed=seed)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], PATTERNS["medium"], seed=seed
    ).generate()
    return topology, allocation, traffic


CAPS = [None, 1, 3, 6, 13]


@pytest.mark.roundcache
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "mixed"])
@pytest.mark.parametrize("threshold", [None, 0.6], ids=["free", "budget"])
@pytest.mark.parametrize("n_racks", [4, 8])
@pytest.mark.parametrize("seed", _cache_seeds([1, 2, 5, 9]))
def test_block_rows_expand_to_the_per_host_scorer(
    seed, n_racks, threshold, uniform
):
    """Every cap, three rounds: the scored batch expands to the per-host
    scorer's rows at each round start, and every wave's correction
    (split rows included) to the per-host correction."""
    run_differential(seed, n_racks, threshold, uniform)


def run_differential(seed, n_racks, threshold, uniform):
    for cap in CAPS:
        topology, allocation, traffic = environment(seed, n_racks, uniform)
        engine = MigrationEngine(
            CostModel(topology), bandwidth_threshold=threshold,
            max_candidates=cap,
        )
        scheduler = CheckedScheduler(
            allocation, traffic, policy_by_name("rr", seed=seed), engine
        )
        fast = scheduler.fastcost
        every = np.arange(fast.snapshot.n_vms)
        for _ in range(3):
            assert_rows_equal(
                host_rows(fast.candidate_batch(every, cap))[:4],
                score_rows_reference(fast, every, cap),
            )
            scheduler.run(n_iterations=1)


def test_the_differential_covers_adjusted_and_split_rows():
    """The differential's premise: its waves correct stale rows and split
    hosts off block rows."""
    CheckedRounds.adjusted = CheckedRounds.splits = 0
    run_differential(1, 8, None, True)
    assert CheckedRounds.adjusted > 0
    assert CheckedRounds.splits > 0


BATCH_COLUMNS = (
    "vms", "source", "degree", "ptr", "owner", "host", "cover", "rank",
    "delta", "onto_rate",
)


def assert_bound_sound(fast, owners, cap):
    """The gain bound passes every owner the per-host scorer gives a row
    with delta > 0, and the bounded batch is the unbounded one row for
    row.  Returns how many owners the bound settled."""
    edges = fast._owner_edges(owners)
    may_gain = fast._gain_bound(edges)[0]
    ref_owner, _host, ref_delta, _onto = score_rows_reference(fast, owners, cap)
    assert may_gain[ref_owner[ref_delta > 0]].all()
    got = fast.candidate_batch(owners, cap)
    want = fast._score_owners(owners, cap, edges)
    for name in BATCH_COLUMNS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs), name
    # A rowless owner's total rate is summed in CSR order, a scored one's
    # in rank order: equal for every owner with rows, to rounding else.
    rows = got.ptr[1:] > got.ptr[:-1]
    assert np.array_equal(got.total_rate[rows], want.total_rate[rows])
    np.testing.assert_allclose(got.total_rate, want.total_rate, rtol=1e-12)
    assert got.bounded == int((~may_gain).sum())
    return got.bounded


def run_bound_differential(seed, n_racks, threshold, uniform, topology=None):
    bounded = 0
    for cap in CAPS:
        _topo, allocation, traffic = environment(
            seed, n_racks, uniform, topology
        )
        engine = MigrationEngine(
            CostModel(allocation.topology), bandwidth_threshold=threshold,
            max_candidates=cap,
        )
        scheduler = SCOREScheduler(
            allocation, traffic, policy_by_name("rr", seed=seed), engine
        )
        fast = scheduler.fastcost
        every = np.arange(fast.snapshot.n_vms)
        for _ in range(3):
            bounded += assert_bound_sound(fast, every, cap)
            # A round-local request: a shuffled subset, repeats allowed.
            some = np.random.default_rng(seed).choice(every, len(every) // 2)
            bounded += assert_bound_sound(fast, some, cap)
            scheduler.run(n_iterations=1)
    return bounded


@pytest.mark.roundcache
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "mixed"])
@pytest.mark.parametrize("threshold", [None, 0.6], ids=["free", "budget"])
@pytest.mark.parametrize("n_racks", [4, 8, "fattree"])
@pytest.mark.parametrize("seed", _cache_seeds([1, 2, 5, 9]))
def test_the_gain_bound_passes_every_owner_that_can_gain(
    seed, n_racks, threshold, uniform
):
    """Every cap, three rounds, on canonical trees and a fat-tree: the
    one-sort gain bound never settles an owner the exact scorer would
    give a row, so pruning by it leaves the batch unchanged."""
    if n_racks == "fattree":
        run_bound_differential(seed, 0, threshold, uniform, FatTree(k=4))
    else:
        run_bound_differential(seed, n_racks, threshold, uniform)


def test_the_differential_covers_bounded_owners():
    """The bound differential's premise: the bound settles owners, so it
    compares pruned batches, not copies."""
    assert run_bound_differential(1, 8, None, True) > 0


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rates=st.lists(
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
        min_size=1, max_size=4,
    ),
    weights=st.sampled_from(
        [LinkWeights.paper(), LinkWeights(weights=(1.0, 2.0, 4.0))]
    ),
    shuffle=st.randoms(use_true_random=False),
)
def test_an_owner_with_peers_split_evenly_passes_the_bound(
    rates, weights, shuffle
):
    """VM 1's peers sit on its own host 0 and on rack-mate host 1 at the
    same rates, so moving to host 1 gains exactly 0 — which the
    aggregated score may read a few ulp above 0 and give a row.  The
    bound's slack keeps such an owner, so the batch is unchanged."""
    topology = CanonicalTree(
        n_racks=4, hosts_per_rack=4, tors_per_agg=2, n_cores=2
    )
    cluster = Cluster(topology, ServerCapacity(max_vms=16, ram_mb=8192, cpu=16.0))
    allocation = Allocation(cluster)
    allocation.add_vm(VM(1, ram_mb=128, cpu=0.1), 0)
    other = list(rates)
    shuffle.shuffle(other)
    traffic = TrafficMatrix()
    vm_id = 2
    for host, group in ((0, rates), (1, other)):
        for rate in group:
            allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
            traffic.set_rate(1, vm_id, rate)
            vm_id += 1
    engine = MigrationEngine(CostModel(topology, weights))
    fast = engine.bind(allocation, traffic)
    every = np.arange(fast.snapshot.n_vms)
    for cap in (None, 1, 3):
        assert_bound_sound(fast, every, cap)


def test_an_evenly_split_owner_reads_a_rounding_gain():
    """The case above is live: under the paper's weights one peer on
    each host scores a row a few ulp above 0."""
    topology = CanonicalTree(
        n_racks=4, hosts_per_rack=4, tors_per_agg=2, n_cores=2
    )
    cluster = Cluster(topology, ServerCapacity(max_vms=4, ram_mb=8192, cpu=16.0))
    allocation = Allocation(cluster)
    for vm_id, host in ((1, 0), (2, 0), (3, 1)):
        allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
    traffic = TrafficMatrix()
    traffic.set_rate(1, 2, 1.0)
    traffic.set_rate(1, 3, 1.0)
    fast = MigrationEngine(CostModel(topology, LinkWeights.paper())).bind(
        allocation, traffic
    )
    _owner, host, delta, _onto = score_rows_reference(fast, [0])
    assert 0 < delta[host == 1][0] < 1e-9
    assert (delta[host != 1] < 0).all()
    assert assert_bound_sound(fast, np.array([0]), None) == 0


def test_racks_wider_than_a_row_window_split_into_chunks():
    """A rack of more hosts than one row's bitmask covers scores as
    several block rows, and still expands to the per-host scorer."""
    topology = CanonicalTree(
        n_racks=3, hosts_per_rack=70, tors_per_agg=3, n_cores=2
    )
    cluster = Cluster(topology, ServerCapacity(max_vms=2, ram_mb=4096, cpu=4.0))
    vms = PlacementManager(cluster).create_vms(300, ram_mb=512, cpu=0.5)
    allocation = place_by_name("random", cluster, vms, seed=3)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], PATTERNS["dense"], seed=3
    ).generate()
    engine = MigrationEngine(CostModel(topology))
    scheduler = CheckedScheduler(
        allocation, traffic, policy_by_name("rr", seed=3), engine
    )
    fast = scheduler.fastcost
    every = np.arange(fast.snapshot.n_vms)
    for cap in (None, 66, 100):
        batch = fast.candidate_batch(every, cap)
        assert (batch.host % 70 == 64).any()  # a second-chunk block row
        assert_rows_equal(
            host_rows(batch)[:4], score_rows_reference(fast, every, cap)
        )
    scheduler.run(n_iterations=2)
    assert_rows_equal(
        host_rows(fast.candidate_batch(every))[:4],
        score_rows_reference(fast, every),
    )


def test_a_peer_landing_on_a_covered_host_splits_it_off():
    """Wave 1 moves p onto host 6, a covered host of u's rack-1 block (u
    yields: p is its peer and gains more).  u's deferred rows split host
    6 off the block, with p's level-0 term; wave 2 moves u next to p."""
    topology = CanonicalTree(n_racks=4, hosts_per_rack=4, tors_per_agg=2,
                             n_cores=2)
    cluster = Cluster(topology, ServerCapacity(max_vms=2, ram_mb=4096, cpu=4.0))
    allocation = Allocation(cluster)
    u, p, q, w = 1, 2, 3, 4
    placed = {u: 0, q: 4, w: 5, p: 8}
    fillers = [0, 1, 1, 2, 2, 3, 3, 4, 5, 8, 9, 9, 10, 10, 11, 11]
    for vm_id, host in placed.items():
        allocation.add_vm(VM(vm_id, ram_mb=512, cpu=0.5), host)
    for vm_id, host in enumerate(fillers, start=10):
        allocation.add_vm(VM(vm_id, ram_mb=512, cpu=0.5), host)
    traffic = TrafficMatrix()
    traffic.set_rate(u, p, 1.0)
    traffic.set_rate(u, q, 10.0)
    traffic.set_rate(p, w, 100.0)
    engine = MigrationEngine(CostModel(topology))
    scheduler = CheckedScheduler(
        allocation, traffic, policy_by_name("rr", seed=1), engine
    )
    fast = scheduler.fastcost
    batch = fast.candidate_batch(fast.dense_indices([u]))
    # u's rows: q's and p's hosts, and the rest of each rack as a block.
    assert sorted(zip(batch.host.tolist(), batch.cover.tolist())) == [
        (4, 1), (4, 0b1110), (8, 1), (8, 0b1110),
    ]
    CheckedRounds.splits = 0
    report = scheduler.run(n_iterations=1)
    assert CheckedRounds.splits == 1
    moves = {
        d.vm_id: d.target_host for d in report.decisions if d.migrated
    }
    assert moves == {p: 6, u: 6}
    cols = report.decisions.columns()
    waves = dict(zip(cols.vm.tolist(), cols.wave.tolist()))
    assert (waves[p], waves[u]) == (1, 2)
    model = CostModel(topology)
    assert model.total_cost(allocation, traffic) == pytest.approx(
        fast.total_cost(), rel=1e-12
    )


def test_peer_rank_order_equals_lexsort():
    """One stable argsort over a (owner, level, dense rate rank) key is
    the permutation of the lexsort it replaces, ties included."""
    rng = np.random.default_rng(7)
    for trial in range(300):
        size = int(rng.integers(1, 400))
        owner = np.sort(rng.integers(0, int(rng.integers(1, 40)), size))
        level = rng.integers(0, 4, size)
        palette = rng.choice([1.0, 2.5, 1e6, 3e-3, 7.0], rng.integers(1, 5))
        rate = rng.choice(palette, size)
        if trial % 3 == 0:  # a third of the trials with few exact ties
            rate = rate * (1 + rng.random(size))
        assert np.array_equal(
            peer_rank_order(owner, level, rate),
            np.lexsort((-rate, owner * 4 + (3 - level))),
        )
    empty = np.empty(0, dtype=np.int64)
    assert peer_rank_order(empty, empty, np.empty(0)).size == 0
