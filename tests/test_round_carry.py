"""What the cached round loop carries across rounds, checked from outside.

``tests/test_round_cache.py`` pins the *trajectory* (cached == uncached).
This suite pins the *carried structures* themselves, so bookkeeping that
happens to be harmless today cannot rot silently:

* the spliced score cache equals a from-scratch re-score, array for
  array;
* after every epoch of a drift / drain / fill / free script, the carried
  :class:`~repro.core.roundcache.DecisionState` is what a full evaluation
  against its own ``host_ok`` would produce;
* a carried epoch never sorts, bisects or dedups anything as large as the
  carried tie pool or shadow index — the machine-independent reason a
  mostly-clean round costs what changed;
* a carried round hands exactly its round-start proposers to the one
  wave loop, and marks them for re-evaluation.

``pytest -m carry`` runs the audit over a wider seed matrix
(``REPRO_CARRY_SEEDS`` — comma-separated ints; CI runs it as its own
job).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.fastcost import FastCostEngine
from repro.core.rounds import BatchedRoundEngine
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.util.rng import make_rng

CACHE_ARRAYS = (
    "_ptr", "_host", "_delta", "_onto", "_source", "_degree", "_total_rate"
)
BATCH_ARRAYS = (
    "ptr", "host", "delta", "onto_rate", "source", "degree", "total_rate"
)


def small_config(seed, **overrides):
    settings = dict(
        n_racks=8, hosts_per_rack=4, tors_per_agg=2, n_cores=2,
        vms_per_host=4, policy="rr", seed=seed,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def drift_delta(traffic, rng, n_rate, n_removed=0):
    """Rate changes on random pairs; ``n_removed`` of them cease (which
    shrinks their endpoints' candidate sets and forces a real splice)."""
    us, vs, rates = traffic.pair_arrays()
    picked = rng.choice(len(us), n_rate + n_removed, replace=False)
    return [
        (
            int(us[i]),
            int(vs[i]),
            0.0 if j >= n_rate else float(rates[i]) * (0.5 + rng.random()),
        )
        for j, i in enumerate(picked)
    ]


# -- (a) splice differential --------------------------------------------------


def assert_cache_equals_fresh_scores(fast, cache):
    cache.refresh()
    fresh = fast.candidate_batch(
        np.arange(fast.snapshot.n_vms, dtype=np.int64), cache.max_candidates
    )
    for mine, theirs in zip(CACHE_ARRAYS, BATCH_ARRAYS):
        got, want = getattr(cache, mine), getattr(fresh, theirs)
        assert got.dtype == want.dtype, mine
        assert np.array_equal(got, want), mine


@pytest.mark.parametrize("seed", [3, 8])
def test_spliced_cache_equals_a_fresh_score(seed):
    env = build_environment(small_config(seed))
    allocation, traffic = env.allocation, env.traffic
    fast = FastCostEngine(allocation, traffic)
    cache = fast.round_cache()
    rng = make_rng(seed)
    vm_ids = sorted(allocation.vm_ids())
    n_hosts = allocation.cluster.n_servers
    assert_cache_equals_fresh_scores(fast, cache)
    for step in range(12):
        for _ in range(int(rng.integers(0, 4))):
            vm_id = vm_ids[int(rng.integers(len(vm_ids)))]
            target = int(rng.integers(n_hosts))
            if allocation.can_host(target, allocation.vm(vm_id)):
                fast.apply_migration(vm_id, target)
        if step % 3 != 2:
            delta = drift_delta(traffic, rng, n_rate=4, n_removed=step % 2)
            traffic.apply_delta(delta)
            fast.apply_traffic_delta(delta)
        assert_cache_equals_fresh_scores(fast, cache)
    assert cache.owners_spliced > 0 and cache.owners_scattered > 0


# -- (b) decision-carry audit -------------------------------------------------


def _carry_seeds():
    raw = os.environ.get("REPRO_CARRY_SEEDS", "")
    if raw.strip():
        return [int(s) for s in raw.split(",") if s.strip()]
    return [5, 21]


def fresh_evaluation(cache, host_ok):
    """Every owner's (feasible mask, best, exact-tie rows, row owner)
    over the cache's rows under ``host_ok``, computed from scratch."""
    ptr, host, delta = cache._ptr, cache._host, cache._delta
    n = len(ptr) - 1
    row_owner = np.repeat(np.arange(n), np.diff(ptr))
    feasible = host_ok[host]
    best = np.full(n, -np.inf)
    np.maximum.at(best, row_owner[feasible], delta[feasible])
    tie_rows = np.flatnonzero(feasible & (delta == best[row_owner]))
    return feasible, best, tie_rows, row_owner


def audit_decision_carry(fast):
    """Check the carried decisions against a full evaluation.

    Audits every owner that is ``_valid`` and not ``stale_decision``,
    against ``state.host_ok`` — lazy by design: the last wave's capacity
    flips are absorbed at the next round start, so the carried decisions
    describe the feasibility vector the state itself holds.  Returns the
    number of owners audited (0 when no decisions are being carried).
    """
    cache = fast.round_cache()
    state = cache.decision_state
    if state is None:
        return 0
    host, delta = cache._host, cache._delta
    feasible, best, tie_rows, row_owner = fresh_evaluation(
        cache, state.host_ok
    )
    n = len(best)
    choice = np.full(n, -1, dtype=np.int64)
    choice[row_owner[tie_rows[::-1]]] = tie_rows[::-1]  # first tie wins
    audited = cache._valid & ~state.stale_decision

    assert np.array_equal(state.best[audited], best[audited])
    assert np.array_equal(state.choice[audited], choice[audited])

    assert (np.diff(state.pool_rows) > 0).all()
    pooled = audited[state.pool_owner]
    assert np.array_equal(
        state.pool_rows[pooled], tie_rows[audited[row_owner[tie_rows]]]
    )
    assert np.array_equal(
        state.pool_owner[pooled], row_owner[state.pool_rows[pooled]]
    )
    assert np.array_equal(
        state.pool_hosts[pooled], host[state.pool_rows[pooled]]
    )

    shadow = state.shadow
    blocked = ~feasible & (delta >= best[row_owner]) & audited[row_owner]
    assert shadow.member[blocked].all()
    assert len(np.unique(shadow.rows)) == len(shadow.rows)
    assert np.array_equal(np.sort(shadow.rows), np.flatnonzero(shadow.member))
    return int(audited.sum())


@pytest.mark.carry
@pytest.mark.parametrize("seed", _carry_seeds())
def test_carried_decisions_equal_a_full_evaluation(seed):
    env = build_environment(small_config(seed, n_racks=12, fill_fraction=0.9))
    sched = make_scheduler(env)
    sched.run(n_iterations=4)
    fast = sched.fastcost
    allocation = env.allocation
    rng = make_rng(seed)
    rack = env.topology.hosts_in_rack(1)
    squeezed = {}
    audited_epochs = 0
    for epoch in range(14):
        sched.apply_traffic_delta(
            drift_delta(env.traffic, rng, n_rate=5, n_removed=epoch % 2)
        )
        if epoch % 4 == 1:
            # Two splices with no round between them: the second re-keys
            # without a carried row -> owner map.
            fast.round_cache().refresh()
            sched.apply_traffic_delta(
                drift_delta(env.traffic, rng, n_rate=2, n_removed=1)
            )
        if epoch == 3:
            sched.drain_hosts(rack, offline=True)
        if epoch == 7:
            sched.restore_hosts(rack)
        if epoch in (5, 9):
            # Fill: shrink a few hosts that still have headroom to their
            # current usage — capacity flips with no scored row changing.
            for h in rng.choice(allocation.cluster.n_servers, 6, replace=False):
                h = int(h)
                used = len(allocation.vms_on(h))
                slots = allocation.cluster.server(h).capacity.max_vms
                if h not in rack and h not in squeezed and 0 < used < slots:
                    squeezed[h] = slots
                    sched.set_host_capacity(h, max_vms=used)
        if epoch in (6, 11):
            # Free: the squeezed hosts get their slots back.
            for h, slots in squeezed.items():
                sched.set_host_capacity(h, max_vms=slots)
            squeezed.clear()
        sched.run(n_iterations=1)
        audited_epochs += audit_decision_carry(fast) > 0
    assert audited_epochs >= 10


# -- (c) structural pin -------------------------------------------------------


def test_carried_epochs_never_reorganise_the_whole_carry(monkeypatch):
    """The paper's rack shape (20 hosts x 16 slots) at an eighth of its
    racks: ties and blocked rows are pervasive, so the carried pool and
    shadow dwarf the owner count and what one drift epoch touches.  A
    carried epoch may sort / bisect / dedup per-owner inputs, never one
    the size of the carry — including right after a renumbering splice."""
    env = build_environment(
        small_config(9, n_racks=16, hosts_per_rack=20, tors_per_agg=8,
                     n_cores=4, vms_per_host=16)
    )
    sched = make_scheduler(env)
    sched.run(n_iterations=5)
    sched.quiesce()
    cache = sched.fastcost.round_cache()
    n = env.allocation.n_vms
    rng = make_rng(9)
    largest = {}

    def watch(name, size_of):
        real = getattr(np, name)

        def watched(*args, **kwargs):
            largest[name] = max(largest.get(name, 0), size_of(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, watched)

    for name in ("sort", "argsort", "unique"):
        watch(name, lambda a, *_: np.size(a))
    watch("searchsorted", lambda a, needles, *_: np.size(needles))

    spliced_epochs = 0
    for _ in range(8):
        sched.apply_traffic_delta(
            drift_delta(env.traffic, rng, n_rate=6, n_removed=1)
        )
        state = cache.decision_state
        assert state is not None
        carry = min(len(state.pool_rows), int(state.shadow.member.sum()))
        assert carry > 4 * n  # the premise: a carry much larger than n
        spliced = cache.owners_spliced
        largest.clear()
        sched.run(n_iterations=1)
        assert cache.decision_state is state  # carried, not rebuilt
        assert max(largest.values()) <= n, largest
        spliced_epochs += cache.owners_spliced > spliced
    assert spliced_epochs >= 4


# -- (d) one wave loop --------------------------------------------------------


def test_a_carried_round_hands_its_proposers_to_the_wave_loop(monkeypatch):
    """A carried round settles the owners without a beneficial move and
    runs the uncached wave loop over exactly the round-start proposers
    — a fresh evaluation's beneficial owners, fewer than the population
    — which end marked for re-evaluation, the rest of the carry intact."""
    env = build_environment(small_config(5, n_racks=12, fill_fraction=0.9))
    sched = make_scheduler(env)
    sched.run(n_iterations=4)
    sched.quiesce()
    fast = sched.fastcost
    cache = fast.round_cache()
    cm = sched._engine.migration_cost
    segments = []
    wave_segment = BatchedRoundEngine._wave_segment

    def spy(self, result, batch, positions, injector=None):
        _, best, _, _ = fresh_evaluation(cache, fast.uniform_host_ok())
        beneficial = np.flatnonzero((best > 0) & (best > cm))
        segments.append((batch.vms.copy(), beneficial))
        return wave_segment(self, result, batch, positions, injector)

    monkeypatch.setattr(BatchedRoundEngine, "_wave_segment", spy)
    rng = make_rng(5)
    proposed = 0
    for _ in range(4):
        sched.apply_traffic_delta(drift_delta(env.traffic, rng, n_rate=8))
        state = cache.decision_state
        assert state is not None
        del segments[:]
        sched.run(n_iterations=1)
        assert cache.decision_state is state  # carried, not rebuilt
        [(owners, beneficial)] = segments
        assert np.array_equal(owners, beneficial)
        assert len(owners) < env.allocation.n_vms
        assert state.stale_decision[owners].all()
        assert audit_decision_carry(fast) > 0
        proposed += len(owners)
    assert proposed > 0
