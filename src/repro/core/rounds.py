"""Wave-batched token rounds: one S-CORE iteration, numpy end-to-end.

The per-hold oracle (``repro.reference.PerHoldScheduler``) circulates the
token hold by hold — ~|V| per-VM python/numpy round-trips per iteration.
Every policy freezes its visit order at round start
(:meth:`repro.core.policies.TokenPolicy.round_order`), so this module
executes the whole round in *waves* instead:

1. **Round snapshot.**  Every hold's candidate targets and Lemma 3 deltas
   are scored in one vectorized pass
   (:meth:`repro.core.fastcost.FastCostEngine.candidate_batch`).  The
   candidate *sets* are frozen for the round (the round-snapshot
   contract); delta values are kept exact across waves by incremental
   adjustment (see 4).
2. **Wave planning.**  Proposals are admitted greedily in descending-gain
   priority under the interference rule — no two migrations in a wave may
   share a source host, a target host, or a communication-peer relation —
   which makes every admitted move's delta, capacity probe and §V-C
   bandwidth probe exact regardless of application order within the wave.
   When a proposal's target host is already claimed, the planner may
   *retarget* it to another candidate with exactly the same delta (same-
   rack ties are pervasive), so equal-gain movers pack one wave instead
   of serializing; in an interference-free round no retargeting (and no
   deferral) ever happens, and the outcome is identical to the
   sequential loop's.
3. **Batched apply.**  Each wave lands as one ``FastCostEngine.apply_moves``
   call, which moves the VMs with one ``Allocation.migrate_many`` and
   updates the engine's caches.
4. **Deferral + re-evaluation.**  Proposals the wave could not admit are
   re-evaluated against the post-wave state: feasibility is re-masked
   from the allocation's live usage every wave, and the deltas of every
   deferred VM with a *moved peer* are incrementally corrected (only the
   moved peers' terms change), so every applied delta is exact at its
   application time.  VMs without a beneficial move are settled when
   first evaluated.

A round therefore applies the same kind of strictly-improving, exactly-
accounted migrations as the sequential loop: when no decision interacts
with another the outcomes are identical, and when they do interact the
round still only applies exact positive deltas (``tests/test_wave_rounds``
pins both properties, plus the interference rule itself on live waves).

**Incremental round cache.**  A round whose order covers the engine's
whole population runs the same protocol against the
:class:`~repro.core.roundcache.RoundScoreCache` instead of a per-round
throwaway batch: scored candidate rows persist across waves, rounds and
epochs, and each wave re-evaluates only the owners inside its dependency
footprint — owners with a moved peer (their Lemma 3 terms changed) and
owners holding a candidate in a rack whose capacity state *flipped* (a
filled pick, a freed strictly-better host).  Everything else keeps its
cached decision untouched, which is exactly what a full re-evaluation
would recompute, so the cached trajectory is bit-for-bit the uncached
one.  Partial orders (the shard reconcile boundary) and the mid-round
live finish take the uncached loop, and so does a cached round with
nothing to carry out (a mostly-dirty cache, per-row feasibility) — over
the cache's rows; ``repro.reference.UncachedScheduler`` forces it for
every round, the twin ``tests/test_round_cache.py`` pins the cached loop
against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fastcost import CandidateBatch, FastCostEngine, pair_levels
from repro.core.migration import MigrationDecision, MigrationEngine
from repro.core.roundcache import DecisionState, ShadowIndex, segment_rows


#: Reason strings indexed by the round engine's per-hold reason codes.
#: ``retired`` settles a hold whose VM left the allocation mid-round (an
#: injected departure): the hold is consumed without a decision.
_REASONS = ("no_peers", "no_feasible_target", "no_gain", "migrated", "retired")


class DecisionColumns:
    """Lazily materialized per-hold decision record (column arrays).

    Token rounds mint one decision per hold — tens of thousands per
    paper-scale iteration — so the hot loop writes flat columns and the
    :class:`~repro.core.migration.MigrationDecision` tuples are built
    only when someone actually reads them (reports, tests, analyses).
    Behaves as an immutable sequence.  ``target`` is meaningful on
    migrated rows only (``reason`` code 3).
    """

    __slots__ = ("vm", "source", "target", "delta", "reason", "_materialized")

    def __init__(self, n: int) -> None:
        self.vm = np.zeros(n, dtype=np.int64)
        self.source = np.zeros(n, dtype=np.int64)
        self.target = np.full(n, -1, dtype=np.int64)
        self.delta = np.zeros(n)
        self.reason = np.full(n, -1, dtype=np.int8)
        self._materialized: Optional[List[MigrationDecision]] = None

    @classmethod
    def from_decisions(
        cls, decisions: Sequence[MigrationDecision]
    ) -> "DecisionColumns":
        """Pack settled decision tuples (the per-hold oracle's output)
        into columns; the inverse of materializing."""
        decisions = list(decisions)
        cols = cls(len(decisions))
        for pos, decision in enumerate(decisions):
            cols.set(pos, decision)
        return cols

    @classmethod
    def concatenate(
        cls, blocks: Sequence["DecisionColumns"]
    ) -> "DecisionColumns":
        """One record holding the given blocks' holds, in order."""
        cols = cls(0)
        for name in ("vm", "source", "target", "delta", "reason"):
            parts = [getattr(block, name) for block in (cols, *blocks)]
            setattr(cols, name, np.concatenate(parts))
        return cols

    def set(self, pos: int, decision: MigrationDecision) -> None:
        """Write one settled decision tuple at hold ``pos``."""
        self.vm[pos] = decision.vm_id
        self.source[pos] = decision.source_host
        target = decision.target_host
        self.target[pos] = -1 if target is None else target
        self.delta[pos] = decision.delta
        self.reason[pos] = _REASONS.index(decision.reason)

    @property
    def complete(self) -> bool:
        """Whether every hold has been decided."""
        return bool((self.reason >= 0).all())

    def _materialize(self) -> List[MigrationDecision]:
        if self._materialized is None:
            self._materialized = [
                MigrationDecision(
                    vm, src, tgt if code == 3 else None, delta, code == 3,
                    _REASONS[code],
                )
                for vm, src, tgt, delta, code in zip(
                    self.vm.tolist(),
                    self.source.tolist(),
                    self.target.tolist(),
                    self.delta.tolist(),
                    self.reason.tolist(),
                )
            ]
        return self._materialized

    def __len__(self) -> int:
        return len(self.vm)

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def migrated_count(self) -> int:
        """Number of migrated holds, without materializing."""
        return int((self.reason == 3).sum())

    def moves(self) -> List[Tuple[int, int, int]]:
        """``(vm_id, source_host, target_host)`` of every migrated hold,
        in hold order, without materializing."""
        rows = np.nonzero(self.reason == 3)[0]
        return list(
            zip(
                self.vm[rows].tolist(),
                self.source[rows].tolist(),
                self.target[rows].tolist(),
            )
        )


@dataclass
class RoundResult:
    """Outcome of one wave-batched token round."""

    #: Final per-hold decisions, aligned with the round's visit order —
    #: an array-backed lazy sequence (see :class:`DecisionColumns`).
    decisions: DecisionColumns = field(
        default_factory=lambda: DecisionColumns(0)
    )
    #: Per-hold migrated flags / applied deltas, aligned with the order —
    #: the array form the scheduler builds its time series from.
    hold_migrated: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    hold_delta: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Number of migrations performed.
    migrations: int = 0
    #: Number of waves the round took (1 when nothing interfered).
    waves: int = 0
    #: Total deferral events (a hold deferred over k waves counts k times).
    deferrals: int = 0
    #: Per-wave applied moves, ``(vm_id, source_host, target_host)`` — the
    #: raw material of the wave-disjointness property test.  Populated only
    #: when the engine was built with ``record_waves=True``.
    wave_moves: List[List[Tuple[int, int, int]]] = field(default_factory=list)

    @classmethod
    def for_round(cls, n: int) -> "RoundResult":
        return cls(
            decisions=DecisionColumns(n),
            hold_migrated=np.zeros(n, dtype=bool),
            hold_delta=np.zeros(n),
        )

    @property
    def interference_free(self) -> bool:
        """Whether every proposal landed in the first wave, untouched."""
        return self.deferrals == 0


class BatchedRoundEngine:
    """Executes wave-batched token rounds over one fast engine's
    (allocation, traffic) binding.

    Thresholds (``cm``, §V-C bandwidth, candidate cap) are read from the
    :class:`MigrationEngine` so batched and per-hold decisions share one
    configuration.
    """

    def __init__(
        self,
        engine: MigrationEngine,
        fast: FastCostEngine,
        record_waves: bool = False,
        profile=None,
    ) -> None:
        """``profile``, when given, is a
        :class:`repro.util.profiling.PhaseTimings` accumulating per-phase
        wall clock (score / re-mask / plan / wave-apply / adjust /
        settle)."""
        self._engine = engine
        self._fast = fast
        self._record_waves = record_waves
        self._profile = profile

    # -- profiling hooks -----------------------------------------------------

    def _tick(self) -> float:
        return time.perf_counter() if self._profile is not None else 0.0

    def _lap(self, phase: str, t0: float) -> None:
        if self._profile is not None:
            self._profile.add(phase, time.perf_counter() - t0)

    def run_round(self, order: Sequence[int], injector=None) -> RoundResult:
        """Run one full token round over ``order`` (a visit-order snapshot).

        Takes the cached loop exactly when ``order`` covers the engine's
        whole population (the round cache is keyed by the dense VM
        index); partial orders take the uncached wave loop.

        ``injector``, when given, is pumped after every applied wave with
        the number of holds decided so far:
        ``injector(settled_holds) -> bool``.  Returning ``True`` means
        external events mutated engine state mid-round (churn, traffic
        deltas, capacity changes); the in-flight scored batch is then
        stale, so the round abandons it and finishes through
        :meth:`_finish_round_live` — fresh re-scores of the still
        undecided holds against the live state.  Both loops pump at the
        exact same protocol points, so a cached/uncached twin pair under
        an identical injector sees identical pump times and produces the
        identical trajectory.
        """
        n = self._fast.snapshot.n_vms
        if len(order) == n:
            dense_order = self._fast.dense_indices(order)
            if bool(np.bincount(dense_order, minlength=n).all()):
                return self._run_round_cached(order, dense_order, injector)
        return self._run_round_uncached(order, injector)

    def _run_round_uncached(
        self, order: Sequence[int], injector=None
    ) -> RoundResult:
        """The uncached wave loop: full re-mask of every pending owner
        per wave, round-local candidate batch.  Pinned against the cached
        loop by ``tests/test_round_cache.py``."""
        fast = self._fast
        t0 = self._tick()
        batch = fast.candidate_batch(
            fast.dense_indices(order), self._engine.max_candidates
        )
        self._lap("score", t0)
        positions = np.arange(len(order), dtype=np.int64)
        return self._run_batch(order, batch, positions, injector)

    def _run_batch(
        self,
        order: Sequence[int],
        batch: CandidateBatch,
        positions: np.ndarray,
        injector=None,
    ) -> RoundResult:
        """The uncached wave loop over a batch scoring the whole round."""
        result = RoundResult.for_round(len(order))
        if self._wave_segment(result, batch, positions, injector):
            self._finish_round_live(result, list(order), injector)
        assert result.decisions.complete
        return result

    def _wave_segment(
        self,
        result: RoundResult,
        batch: CandidateBatch,
        positions: np.ndarray,
        injector=None,
    ) -> bool:
        """Run the uncached wave loop over one scored batch to completion.

        ``positions`` maps the batch's owners to their visit positions in
        the round; owners are settled and proposed in visit order, so the
        batch itself may be in any owner order (the round cache's is
        dense-VM order, and deferred owners are carried in batch order so
        the next wave's batch is one mask compress of this one).  Returns
        ``True`` when the injector fired
        mid-segment: the batch (round-snapshot candidate sets,
        incrementally adjusted deltas) no longer describes the live
        engine state, so the caller must re-score whatever is still
        undecided and run a new segment.
        """
        fast = self._fast
        engine = self._engine
        cm = engine.migration_cost
        threshold = engine.bandwidth_threshold
        n_hosts = self._fast.allocation.cluster.n_servers

        while positions.size:
            t0 = self._tick()
            feasible = fast.candidate_feasible(batch, threshold)
            choice, best, _, ties = fast.best_candidates(
                batch, feasible, return_ties=True
            )
            self._lap("re-mask", t0)
            beneficial = (choice >= 0) & (best > 0) & (best > cm)
            t0 = self._tick()
            self._settle_owners(
                result, batch, np.nonzero(~beneficial)[0], positions, choice,
                best,
            )
            self._lap("settle", t0)
            prop = np.nonzero(beneficial)[0]
            if prop.size == 0:
                break
            prop = prop[np.argsort(positions[prop], kind="stable")]
            result.waves += 1
            t0 = self._tick()
            accepted, target = self._plan_wave(
                batch, best, prop, ties, n_hosts
            )
            self._lap("plan", t0)
            t0 = self._tick()
            moved, old_hosts, new_hosts = self._apply_wave(
                result, positions, batch, prop[accepted], target[accepted]
            )
            self._lap("wave-apply", t0)
            if injector is not None and injector(self._settled_count(result)):
                return True
            deferred = np.sort(prop[~accepted])
            if deferred.size == 0:
                break
            result.deferrals += int(deferred.size)
            keep = batch.select(deferred, with_onto=threshold is not None)
            keep_positions = positions[deferred]
            if moved.size:
                t0 = self._tick()
                self._adjust_stale(
                    keep,
                    np.arange(keep.n_owners, dtype=np.int64),
                    moved,
                    old_hosts,
                    new_hosts,
                )
                self._lap("adjust", t0)
            batch = keep
            positions = keep_positions
        return False

    @staticmethod
    def _settled_count(result: RoundResult) -> int:
        """Holds decided so far this round (the injector's clock input)."""
        return int((result.decisions.reason >= 0).sum())

    def _settle_retired(
        self, result: RoundResult, vm_ids: List[int], positions: List[int]
    ) -> None:
        """Consume the holds of VMs that left the allocation mid-round.

        A retired VM's remaining holds settle with the ``retired`` reason
        (no decision, zero delta); they still consume their clock ticks,
        keeping the round's hold count — and therefore every twin's event
        timeline — fixed at the visit-order snapshot's length.
        """
        cols = result.decisions
        pos = np.asarray(positions, dtype=np.int64)
        cols.vm[pos] = np.asarray(vm_ids, dtype=np.int64)
        cols.source[pos] = -1
        cols.delta[pos] = 0.0
        cols.reason[pos] = 4  # retired

    def _finish_round_live(
        self, result: RoundResult, order_ids: List[int], injector
    ) -> None:
        """Finish a round whose in-flight batch an injected event staled.

        Loops until every hold is decided: settle the holds of VMs that
        no longer exist, score a *fresh* candidate batch over the still
        undecided (and still placed) VMs against the live engine state,
        and run a wave segment over it — which may itself be interrupted
        by further injections.  The continuation depends only on live
        engine state, so the cached and uncached loops (which share this
        path after bailing out) produce bit-identical trajectories.
        """
        fast = self._fast
        allocation = fast.allocation
        while True:
            undecided = np.nonzero(result.decisions.reason < 0)[0]
            if undecided.size == 0:
                return
            alive_pos: List[int] = []
            alive_ids: List[int] = []
            gone_pos: List[int] = []
            gone_ids: List[int] = []
            for pos in undecided.tolist():
                vm_id = order_ids[pos]
                if vm_id in allocation:
                    alive_pos.append(pos)
                    alive_ids.append(vm_id)
                else:
                    gone_pos.append(pos)
                    gone_ids.append(vm_id)
            if gone_pos:
                self._settle_retired(result, gone_ids, gone_pos)
            if not alive_pos:
                return
            t0 = self._tick()
            batch = fast.candidate_batch(
                fast.dense_indices(alive_ids), self._engine.max_candidates
            )
            self._lap("score", t0)
            positions = np.asarray(alive_pos, dtype=np.int64)
            if not self._wave_segment(result, batch, positions, injector):
                return

    # -- cached round loop ---------------------------------------------------

    def _run_round_cached(
        self, order: Sequence[int], dense_order: np.ndarray, injector=None
    ) -> RoundResult:
        """One token round against the persistent round-score cache.

        Owners are indexed by *dense VM* (the cache's key space), with
        ``pos_of`` mapping them back to visit positions; proposals reach
        the planner sorted by visit position and decisions land at their
        positions, so decisions, waves and applied moves come out in
        exactly the uncached loop's order.

        Tie rows live in two tiers.  The round-local *active* set holds
        the ties of currently-beneficial owners — the only rows the wave
        planner can use — and is small (proposals shrink wave over
        wave), so per-wave maintenance is O(touched).  Everything else
        sits in the cache's persistent pool plus the shadow index, which
        are only *read* mid-round (host-flag gathers marking settled
        owners stale) and batch-updated once per round, so a
        mostly-converged round costs a sparse re-score, not a full
        O(rows) evaluation.
        """
        fast = self._fast
        engine = self._engine
        n = len(order)
        t0 = self._tick()
        cache = fast.round_cache(engine.max_candidates)
        batch, dirty = cache.refresh()
        self._lap("score", t0)
        if self._profile is not None:
            self._profile.bump("owners", n)
            self._profile.bump("owners_rescored", int(dirty.size))
        pos_of = np.empty(n, dtype=np.int64)
        pos_of[dense_order] = np.arange(n, dtype=np.int64)
        cm = engine.migration_cost
        threshold = engine.bandwidth_threshold
        n_hosts = self._fast.allocation.cluster.n_servers
        ptr = batch.ptr
        pod_of_host = fast._pod_of

        # Incremental feasibility (and therefore decision persistence)
        # needs per-host state: a uniform population and no §V-C budget.
        t0 = self._tick()
        host_ok = fast.uniform_host_ok() if threshold is None else None
        state = cache.decision_state if host_ok is not None else None
        if state is not None:
            # Mostly-dirty rounds (early convergence, big drift bursts):
            # one vectorized full evaluation beats piecewise catch-up.
            # (``refresh`` marked the re-scored owners stale.)
            if int(state.stale_decision.sum()) * 4 > n:
                state = None
                cache.decision_state = None
        if state is None and (host_ok is None or int(dirty.size) * 4 > n):
            # No decisions will carry out of this round (per-row
            # feasibility, or a mostly-dirty cache): the incremental
            # structures would be built only to be dropped, so run the
            # uncached wave loop over the cache's rows.
            cache.decision_state = None
            self._lap("re-mask", t0)
            return self._run_batch(order, batch, pos_of, injector)
        result = RoundResult.for_round(n)
        empty64 = np.empty(0, dtype=np.int64)
        retired: List[np.ndarray] = []
        if state is not None:
            # Carried decisions: re-evaluate only the re-scored owners
            # plus those whose ``stale_decision`` mark was set while they
            # were unmaintained (a tie host filled, a qualifying blocked
            # host freed) — including, below, flips that happened
            # *between* runs; everything else keeps its (choice, best,
            # ties, shadow) verbatim — a fresh evaluation would
            # reproduce it.
            choice, best = state.choice, state.best
            if state.row_owner is None:
                state.row_owner = np.repeat(
                    np.arange(n, dtype=np.int64), np.diff(ptr)
                )
            row_owner_arr = state.row_owner
            owner_pods = state.owner_pods
            pool_rows = state.pool_rows
            pool_owner = state.pool_owner
            pool_hosts = state.pool_hosts
            shadow = state.shadow
            need = state.stale_decision
            flips = np.nonzero(host_ok != state.host_ok)[0]
            if flips.size:
                # Out-of-round capacity changes (drains, resizes, runs
                # through other engine paths).  Filled hosts unseat the
                # pooled ties sitting on them; freed hosts route through
                # the shadow index, exactly like a mid-round wave.
                filled = flips[~host_ok[flips]]
                if filled.size:
                    on_filled = self._host_flags(n_hosts, filled)[pool_hosts]
                    need[pool_owner[on_filled]] = True
                freed = flips[host_ok[flips]]
                if freed.size:
                    _, cand = shadow.on_hosts(self._host_flags(n_hosts, freed))
                    c_owner = row_owner_arr[cand]
                    need[c_owner[batch.delta[cand] >= best[c_owner]]] = True
            state.host_ok = host_ok
            sub = np.nonzero(need)[0]
            new_rows = new_owner = empty64
            if sub.size:
                # Re-evaluated owners rebuild their blocked rows against
                # their fresh best; drop the stale entries so the shadow
                # never accumulates garbage across rounds.
                shadow.compact(~need[row_owner_arr[shadow.rows]])
                new_rows, new_owner, new_blocked = self._rescore_owners(
                    batch, sub, host_ok, choice, best
                )
                shadow.add(new_blocked, batch.host[new_blocked])
            else:
                shadow.compact()
            # Activate the beneficial owners' ties: fresh ones routed by
            # their owner's verdict, carried ones extracted from the
            # persistent pool (and re-inserted when the round retires
            # them again).  The re-evaluated owners' old ties leave the
            # pool in the same pass.
            beneficial0 = (choice >= 0) & (best > 0) & (best > cm)
            act_mask = beneficial0[new_owner]
            act_rows = new_rows[act_mask]
            act_owner = new_owner[act_mask]
            retired.append(new_rows[~act_mask])
            pos, rows = self._owner_pool_rows(
                pool_rows, ptr, np.nonzero(need | beneficial0)[0]
            )
            if pos.size:
                owner = pool_owner[pos]
                carried = ~need[owner]
                act_rows, act_owner = self._active_merge(
                    act_rows, act_owner, rows[carried], owner[carried]
                )
                pool_rows, pool_owner, pool_hosts = self._without(
                    pos, pool_rows, pool_owner, pool_hosts
                )
            need[:] = False
        else:
            # Round-start evaluation of every owner — the one full pass on
            # a mostly-clean cache; the values (and the exact-tie row
            # pool) are then maintained incrementally wave over wave and
            # carried into the next round.
            feasible = fast.candidate_feasible(batch, threshold)
            choice, best, _, tie_rows = fast.best_candidates(
                batch, feasible, return_ties=True
            )
            # Row → owner map (one pass; the freed-host scan and tie-pool
            # bookkeeping gather from it instead of bisecting).
            row_owner_arr = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(ptr)
            )
            tie_owner = row_owner_arr[tie_rows]
            # Split: beneficial owners' ties go live; the rest wait in
            # the persistent pool.
            beneficial0 = (choice >= 0) & (best > 0) & (best > cm)
            act_mask = beneficial0[tie_owner]
            act_rows = tie_rows[act_mask]
            act_owner = tie_owner[act_mask]
            pool_rows = tie_rows[~act_mask]
            pool_owner = tie_owner[~act_mask]
            pool_hosts = batch.host[pool_rows].astype(np.int64)
            # (owner × pod) candidate incidence, pruning stale-delta
            # corrections to incidences that can touch a candidate.
            n_pods = int(pod_of_host.max()) + 1
            owner_pods = (
                np.bincount(
                    row_owner_arr * n_pods + pod_of_host[batch.host],
                    minlength=n * n_pods,
                ).reshape(n, n_pods)
                > 0
            )
            # Shadow index: infeasible rows whose delta already reaches
            # their owner's best.  Only these can change a decision when
            # their host frees up, so the freed-host scan touches them
            # alone; later qualifiers are appended, gated by the index's
            # membership bitmap.
            blocked = np.nonzero(
                ~feasible & (batch.delta >= best[row_owner_arr])
            )[0]
            shadow = ShadowIndex(batch.n_pairs, n_hosts)
            shadow.add(blocked, batch.host[blocked])
            state = DecisionState(
                choice, best, host_ok, row_owner_arr, owner_pods, shadow
            )
            del feasible
        self._lap("re-mask", t0)
        pending = np.ones(n, dtype=bool)

        while True:
            beneficial = pending & (choice >= 0) & (best > 0) & (best > cm)
            to_settle = np.nonzero(pending & ~beneficial)[0]
            t0 = self._tick()
            if to_settle.size:
                pending[to_settle] = False
                act_rows, act_owner = self._active_retire(
                    act_rows, act_owner, ptr, to_settle, retired
                )
            self._settle_owners(
                result, batch, to_settle, pos_of, choice, best
            )
            self._lap("settle", t0)
            prop = np.nonzero(beneficial)[0]
            if prop.size == 0:
                break
            prop = prop[np.argsort(pos_of[prop], kind="stable")]
            result.waves += 1
            t0 = self._tick()
            accepted, target = self._plan_wave(
                batch, best, prop, act_rows, n_hosts, tie_owner=act_owner
            )
            self._lap("plan", t0)
            t0 = self._tick()
            moved, old_hosts, new_hosts = self._apply_wave(
                result, pos_of, batch, prop[accepted], target[accepted]
            )
            self._lap("wave-apply", t0)
            if injector is not None and injector(self._settled_count(result)):
                # Injected events mutated engine state mid-round: both the
                # round-local incremental structures (choice/best, active
                # ties, shadow) and any carried cross-round decision state
                # are stale.  Drop the decision carry — the persistent
                # scored rows themselves stay valid because every event
                # routes through the engine's footprint invalidation —
                # and finish the round on the live path, exactly like the
                # uncached loop.
                cache.invalidate_decisions()
                self._finish_round_live(result, list(order), injector)
                assert result.decisions.complete
                return result
            wave_owners = prop[accepted]
            pending[wave_owners] = False
            if wave_owners.size:
                act_rows, act_owner = self._active_retire(
                    act_rows, act_owner, ptr, np.sort(wave_owners), retired
                )
            deferred = prop[~accepted]
            if deferred.size == 0:
                break
            result.deferrals += int(deferred.size)
            if moved.size:
                t0 = self._tick()
                stale = self._adjust_stale(
                    batch, deferred, moved, old_hosts, new_hosts,
                    owner_pods=owner_pods,
                )
                self._lap("adjust", t0)
                t0 = self._tick()
                # Surgical invalidation: exactly the owners inside this
                # wave's dependency footprint.
                host_hit = np.zeros(n_hosts, dtype=bool)
                host_hit[old_hosts] = True
                host_hit[new_hosts] = True
                touched = np.nonzero(host_hit)[0]
                now_ok = fast.uniform_host_ok(touched)
                flipped = now_ok != host_ok[touched]
                freed = touched[flipped & now_ok]
                filled = touched[flipped & ~now_ok]
                host_ok[touched] = now_ok
                dropped_owner = empty64
                affected = []
                if filled.size:
                    # Filled picks.  Active ties drop out (a pending
                    # owner losing its whole tie set re-probes; the
                    # dropped row enters the shadow — it may return if
                    # the host frees again).  Pooled ties of unmaintained
                    # owners only *mark* them for lazy round-start
                    # catch-up; the pool itself is not touched mid-round.
                    filled_flag = self._host_flags(n_hosts, filled)
                    hit = filled_flag[batch.host[act_rows]]
                    if bool(hit.any()):
                        dropped_owner = act_owner[hit]
                        dropped = act_rows[hit]
                        shadow.add(dropped, batch.host[dropped])
                        affected.append(dropped_owner)
                        act_rows = act_rows[~hit]
                        act_owner = act_owner[~hit]
                    on_filled = filled_flag[pool_hosts]
                    state.stale_decision[pool_owner[on_filled]] = True
                rescore = np.zeros(n, dtype=bool)
                rescore[stale] = True
                if dropped_owner.size:
                    _, has_rows = self._first_pool_rows(
                        act_rows, ptr, dropped_owner
                    )
                    rescore[dropped_owner[~has_rows]] = True
                rescore &= pending
                sub = np.nonzero(rescore)[0]
                added = []
                if sub.size:
                    pos, _ = self._owner_pool_rows(act_rows, ptr, sub)
                    if pos.size:
                        act_rows, act_owner = self._without(
                            pos, act_rows, act_owner
                        )
                    new_rows, new_owner, new_blocked = self._rescore_owners(
                        batch, sub, host_ok, choice, best
                    )
                    added.append((new_rows, new_owner))
                    shadow.add(new_blocked, batch.host[new_blocked])
                if freed.size:
                    # Freed strictly-better (or tying) hosts, via the
                    # shadow index.  Settled owners with a qualifying
                    # blocked row are marked for lazy round-start
                    # catch-up; pending ones update right here.
                    cand_pos, cand = shadow.on_hosts(
                        self._host_flags(n_hosts, freed)
                    )
                    c_owner = row_owner_arr[cand]
                    settled_hit = ~pending[c_owner] & (
                        batch.delta[cand] >= best[c_owner]
                    )
                    state.stale_decision[c_owner[settled_hit]] = True
                    eligible = pending & ~rescore
                    fr_rows, fr_owner, improved = self._freed_rows_update(
                        batch, cand, c_owner, eligible, best
                    )
                    if improved.size:
                        pos, _ = self._owner_pool_rows(
                            act_rows, ptr, improved
                        )
                        if pos.size:
                            act_rows, act_owner = self._without(
                                pos, act_rows, act_owner
                            )
                    if fr_rows.size:
                        added.append((fr_rows, fr_owner))
                        affected.append(fr_owner)
                        # Promoted rows leave the shadow: a live tie must
                        # never double as a blocked entry, or a later
                        # freed host would re-add it.
                        at = np.searchsorted(fr_rows, cand).clip(
                            max=len(fr_rows) - 1
                        )
                        shadow.discard(cand_pos[fr_rows[at] == cand])
                if added:
                    new_rows = np.concatenate([a[0] for a in added])
                    new_owner = np.concatenate([a[1] for a in added])
                    if len(added) > 1:
                        merge = np.argsort(new_rows, kind="stable")
                        new_rows = new_rows[merge]
                        new_owner = new_owner[merge]
                    act_rows, act_owner = self._active_merge(
                        act_rows, act_owner, new_rows, new_owner
                    )
                if affected:
                    # Choice = first (probing-order) live tie; recompute
                    # for owners whose tie set changed — identical to a
                    # recompute for everyone else.  Owners left without
                    # ties were either rescued above (pending) or marked
                    # stale (settled); their choice is not read before
                    # it is rebuilt.
                    aff_hit = np.zeros(n, dtype=bool)
                    aff_hit[np.concatenate(affected)] = True
                    aff = np.nonzero(aff_hit)[0]
                    first, has_rows = self._first_pool_rows(
                        act_rows, ptr, aff
                    )
                    choice[aff[has_rows]] = act_rows[first[has_rows]]
                self._lap("re-mask", t0)

        # Retire the round's settled ties back into the persistent
        # pool; fills that happened after an owner settled are caught
        # here (the owner re-evaluates next round).
        assert act_rows.size == 0
        ret_rows = np.sort(np.concatenate(retired)) if retired else empty64
        if ret_rows.size:
            ret_owner = row_owner_arr[ret_rows]
            ret_hosts = batch.host[ret_rows].astype(np.int64)
            state.stale_decision[ret_owner[~host_ok[ret_hosts]]] = True
            at = np.searchsorted(pool_rows, ret_rows)
            pool_rows = np.insert(pool_rows, at, ret_rows)
            pool_owner = np.insert(pool_owner, at, ret_owner)
            pool_hosts = np.insert(pool_hosts, at, ret_hosts)
        state.pool_rows = pool_rows
        state.pool_owner = pool_owner
        state.pool_hosts = pool_hosts
        cache.decision_state = state
        assert result.decisions.complete
        return result

    @staticmethod
    def _host_flags(n_hosts: int, hosts: np.ndarray) -> np.ndarray:
        """Per-host flag vector with the given hosts set.  The extra last
        entry stays False: it is the shadow index's tombstone host."""
        flag = np.zeros(n_hosts + 1, dtype=bool)
        flag[hosts] = True
        return flag

    @staticmethod
    def _without(pos: np.ndarray, *arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The parallel arrays with the entries at ``pos`` removed."""
        keep = np.ones(len(arrays[0]), dtype=bool)
        keep[pos] = False
        return tuple(array[keep] for array in arrays)

    # -- active-tie bookkeeping ----------------------------------------------

    def _active_merge(
        self,
        act_rows: np.ndarray,
        act_owner: np.ndarray,
        add_rows: np.ndarray,
        add_owner: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Insert row-sorted additions into the active tie set."""
        if add_rows.size == 0:
            return act_rows, act_owner
        at = np.searchsorted(act_rows, add_rows)
        return (
            np.insert(act_rows, at, add_rows),
            np.insert(act_owner, at, add_owner),
        )

    def _active_retire(
        self,
        act_rows: np.ndarray,
        act_owner: np.ndarray,
        ptr: np.ndarray,
        owners: np.ndarray,
        retired: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Move settling owners' live ties onto the round's retire list."""
        if act_rows.size == 0 or owners.size == 0:
            return act_rows, act_owner
        pos, rows = self._owner_pool_rows(act_rows, ptr, owners)
        if pos.size == 0:
            return act_rows, act_owner
        retired.append(rows)
        return self._without(pos, act_rows, act_owner)

    # -- pool / shadow bookkeeping -------------------------------------------

    def _owner_pool_rows(
        self, tie_rows: np.ndarray, ptr: np.ndarray, owners: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(positions, row ids) of the given owners' entries in the
        row-sorted pool (each owner's rows live in ``ptr[o]:ptr[o+1]``)."""
        lo = np.searchsorted(tie_rows, ptr[owners])
        hi = np.searchsorted(tie_rows, ptr[owners + 1])
        counts = hi - lo
        seg = np.zeros(len(lo) + 1, dtype=np.int64)
        np.cumsum(counts, out=seg[1:])
        pos = np.repeat(lo - seg[:-1], counts) + np.arange(int(seg[-1]))
        return pos, tie_rows[pos]

    def _first_pool_rows(
        self, tie_rows: np.ndarray, ptr: np.ndarray, owners: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(first pool position, any-rows mask) per owner."""
        lo = np.searchsorted(tie_rows, ptr[owners])
        has = lo < len(tie_rows)
        has[has] &= tie_rows[lo[has]] < ptr[owners[has] + 1]
        return lo, has

    def _freed_rows_update(
        self,
        batch: CandidateBatch,
        rows: np.ndarray,
        row_owner: np.ndarray,
        eligible: np.ndarray,
        best: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fold freshly-freed candidate rows into the owners' decisions.

        A host regaining capacity can only matter to an owner holding a
        candidate row on it, and only when that row's delta reaches the
        owner's cached best: strictly better replaces the best (the
        "freed strictly-better host" invalidation), exactly equal joins
        the tie set.  Everything below the bar is untouched — which is
        precisely what a full re-mask would conclude.  ``rows`` (with
        their owners) come from the caller's shadow index: distinct, in
        no particular order, possibly stale — stale ones are filtered
        here and the survivors sorted.

        Returns ``(tie_rows, tie_owners, improved_owners)``: the rows to
        add to the live tie pool and the owners whose previous ties are
        now obsolete.  ``best`` is updated in place.
        """
        empty = np.empty(0, dtype=np.int64)
        ok = eligible[row_owner]
        rows, row_owner = rows[ok], row_owner[ok]
        if rows.size == 0:
            return empty, empty.copy(), empty.copy()
        deltas = batch.delta[rows]
        reach = deltas >= best[row_owner]
        rows, row_owner, deltas = rows[reach], row_owner[reach], deltas[reach]
        if rows.size == 0:
            return empty, empty.copy(), empty.copy()
        order = np.argsort(rows, kind="stable")
        rows, row_owner, deltas = rows[order], row_owner[order], deltas[order]
        seg_first = np.ones(len(rows), dtype=bool)
        seg_first[1:] = row_owner[1:] != row_owner[:-1]
        starts = np.flatnonzero(seg_first)
        owners_u = row_owner[starts]
        seg_max = np.maximum.reduceat(deltas, starts)
        gain = seg_max > best[owners_u]
        improved = owners_u[gain]
        best[improved] = seg_max[gain]
        win = deltas == best[row_owner]
        return rows[win], row_owner[win], improved

    def _rescore_owners(
        self,
        batch: CandidateBatch,
        owners: np.ndarray,
        host_ok: np.ndarray,
        choice: np.ndarray,
        best: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recompute (choice, best) plus exact-tie rows for a dirty subset.

        The subset restriction of :meth:`FastCostEngine.best_candidates`
        under per-host feasibility ``host_ok``: same masking, same
        segment maxima, same first-in-probing-order tie-breaking,
        evaluated only over the given owners' candidate rows.  Updates
        ``choice``/``best`` in place and returns the owners' fresh tie
        rows (row-ascending, therefore owner-grouped), their owners, and
        the owners' *infeasible* rows whose delta reaches the fresh best
        — the rows the caller's shadow index must track in case their
        host frees.
        """
        rows, seg_ptr = segment_rows(batch.ptr, owners)
        choice[owners] = -1
        best[owners] = -np.inf
        empty = np.empty(0, dtype=np.int64)
        if rows.size == 0:
            return empty, empty.copy(), empty.copy()
        feas = host_ok[batch.host[rows]]
        deltas = batch.delta[rows]
        masked = np.where(feas, deltas, -np.inf)
        starts = seg_ptr[:-1]
        nonempty = seg_ptr[1:] > starts
        seg_max = np.full(len(owners), -np.inf)
        if np.any(nonempty):
            seg_max[nonempty] = np.maximum.reduceat(masked, starts[nonempty])
        best[owners] = seg_max
        seg_len = (seg_ptr[1:] - starts).astype(np.int64)
        max_rep = np.repeat(seg_max, seg_len)
        hit = feas & (masked == max_rep)
        hit_idx = np.nonzero(hit)[0]
        if hit_idx.size:
            owner_local = np.searchsorted(seg_ptr, hit_idx, side="right") - 1
            new_owner = owners[owner_local]
            new_rows = rows[hit_idx]
            first = np.ones(len(new_owner), dtype=bool)
            first[1:] = new_owner[1:] != new_owner[:-1]
            choice[new_owner[first]] = new_rows[first]
        else:
            new_rows = empty
            new_owner = empty.copy()
        blocked = rows[~feas & (deltas >= max_rep)]
        return new_rows, new_owner, blocked

    # -- wave planning ------------------------------------------------------

    def _plan_wave(
        self,
        batch: CandidateBatch,
        best: np.ndarray,
        prop: np.ndarray,
        ties: np.ndarray,
        n_hosts: int,
        tie_owner: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Greedy interference-free admission with exact-tie retargeting.

        Returns ``(accepted, target)`` over ``prop``: the admission mask
        and each admitted proposal's target host.  Priority is descending
        Lemma 3 gain (stable on visit position — callers pass ``prop`` in
        visit order).  Each proposal may land on any candidate whose
        delta *exactly equals* its best (``ties``, from
        :meth:`FastCostEngine.best_candidates`) — the first such host in
        probing order not yet claimed this wave — so an already-claimed
        host only defers a VM when no equally-good alternative exists.
        ``tie_owner``, when given, supplies each tied row's owner
        position directly (the cached loop maintains it alongside its tie
        pool); rows must be grouped by owner, probing order within.
        """
        fast = self._fast
        snap = fast.snapshot
        n_prop = len(prop)
        order = np.argsort(-best[prop], kind="stable")
        rank_of = np.empty(n_prop, dtype=np.int64)
        rank_of[order] = np.arange(n_prop)

        # Tied rows of the proposal owners only, mapped to proposal index.
        prop_index = np.full(batch.n_owners, -1, dtype=np.int64)
        prop_index[prop] = np.arange(n_prop)
        owner_of_ties = (
            batch.owner[ties] if tie_owner is None else tie_owner
        )
        t_owner = prop_index[owner_of_ties]
        in_prop = t_owner >= 0
        t_owner = t_owner[in_prop]
        t_host = batch.host[ties[in_prop]]

        sources = batch.source[prop]
        vms = batch.vms[prop]
        accepted = np.zeros(n_prop, dtype=bool)
        target = np.full(n_prop, -1, dtype=np.int64)
        alive = np.ones(n_prop, dtype=bool)
        host_used = np.zeros(n_hosts, dtype=bool)
        vm_blocked = np.zeros(snap.n_vms, dtype=bool)
        big = n_prop  # sentinel priority rank

        while True:
            alive &= ~host_used[sources] & ~vm_blocked[vms]
            # Compact the tied rows to the still-contending owners; rows of
            # admitted/claimed hosts and settled owners never return.
            open_rows = alive[t_owner] & ~host_used[t_host]
            t_owner = t_owner[open_rows]
            t_host = t_host[open_rows]
            if t_owner.size == 0:
                break
            # First open tied row per owner (probing order).
            pick = np.full(n_prop, -1, dtype=np.int64)
            # rows are grouped by owner ascending; first occurrence wins.
            first_of_owner = np.ones(len(t_owner), dtype=bool)
            first_of_owner[1:] = t_owner[1:] != t_owner[:-1]
            pick[t_owner[first_of_owner]] = np.nonzero(first_of_owner)[0]
            contenders = np.nonzero(pick >= 0)[0]
            # Host claims resolve by gain priority (then visit order).
            claim = np.full(n_hosts, big, dtype=np.int64)
            np.minimum.at(claim, sources[contenders], rank_of[contenders])
            np.minimum.at(claim, t_host[pick[contenders]], rank_of[contenders])
            winners = contenders[
                (claim[sources[contenders]] == rank_of[contenders])
                & (claim[t_host[pick[contenders]]] == rank_of[contenders])
            ]
            # Peer filter, vectorized: a winner yields when one of its
            # peers is a higher-priority winner (the loser stays alive for
            # the next admission round — conservative vs the sequential
            # sweep, but converging to the same admitted set).
            winner_rank = np.full(snap.n_vms, big, dtype=np.int64)
            winner_rank[vms[winners]] = rank_of[winners]
            w_ptr, w_peers = self._peer_slices(vms[winners])
            peer_best = np.full(len(winners), big, dtype=np.int64)
            starts = w_ptr[:-1]
            nonempty = w_ptr[1:] > starts
            if np.any(nonempty):
                peer_best[nonempty] = np.minimum.reduceat(
                    winner_rank[w_peers], starts[nonempty]
                )
            ok = (peer_best > rank_of[winners]) & ~vm_blocked[vms[winners]]
            chosen = winners[ok]
            if chosen.size == 0:
                break
            accepted[chosen] = True
            alive[chosen] = False
            target[chosen] = t_host[pick[chosen]]
            host_used[sources[chosen]] = True
            host_used[target[chosen]] = True
            c_ptr, c_peers = self._peer_slices(vms[chosen])
            vm_blocked[c_peers] = True
        return accepted, target

    def _peer_slices(self, dense_vms: np.ndarray):
        """CSR (ptr, flat peer indices) of the given dense VMs."""
        snap = self._fast.snapshot
        counts = (snap.ptr[dense_vms + 1] - snap.ptr[dense_vms]).astype(np.int64)
        ptr = np.zeros(len(dense_vms) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        flat = np.repeat(snap.ptr[dense_vms] - ptr[:-1], counts) + np.arange(
            int(ptr[-1])
        )
        return ptr, snap.peer[flat]

    # -- wave application ---------------------------------------------------

    def _apply_wave(
        self,
        result: RoundResult,
        positions: np.ndarray,
        batch: CandidateBatch,
        wave: np.ndarray,
        targets: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply one admitted wave; returns (moved dense, old, new hosts).

        The planner's capacity mask reads the allocation's own usage with
        ``Allocation.migrate_many``'s expression and the wave's targets
        are disjoint, so the batched apply cannot be rejected; a
        :class:`~repro.cluster.allocation.CapacityError` would be a bug
        and propagates with the allocation and the engine untouched.
        """
        fast = self._fast
        vm_ids = fast.snapshot.vm_ids
        dense = batch.vms[wave]
        sources = batch.source[wave]
        # Theorem 1 is decided on the exact per-peer delta (the value the
        # cache update applies), not the batch's aggregated score — a move
        # whose true gain is zero must not ride in on rounding noise.  A
        # proposal failing the exact gate settles as no-gain.
        exact = fast.exact_deltas(dense, targets)
        cm = self._engine.migration_cost
        genuine = (exact > 0) & (exact > cm)
        if not genuine.all():
            cols = result.decisions
            pos = positions[wave[~genuine]]
            cols.vm[pos] = vm_ids[dense[~genuine]]
            cols.source[pos] = sources[~genuine]
            cols.delta[pos] = np.maximum(exact[~genuine], 0.0)
            cols.reason[pos] = 2  # no_gain (failed the exact gate)
            wave = wave[genuine]
            dense = dense[genuine]
            sources = sources[genuine]
            targets = targets[genuine]
        moved_vms = vm_ids[dense]
        if dense.size:
            deltas, _ = fast.apply_moves(dense, targets)
            pos_arr = positions[wave]
            result.hold_migrated[pos_arr] = True
            result.hold_delta[pos_arr] = deltas
            cols = result.decisions
            cols.vm[pos_arr] = moved_vms
            cols.source[pos_arr] = sources
            cols.target[pos_arr] = targets
            cols.delta[pos_arr] = deltas
            cols.reason[pos_arr] = 3  # migrated
            result.migrations += int(dense.size)
        if self._record_waves:
            result.wave_moves.append(
                list(zip(moved_vms.tolist(), sources.tolist(), targets.tolist()))
            )
        return dense, sources, targets

    # -- staleness ----------------------------------------------------------

    def _adjust_stale(
        self,
        batch: CandidateBatch,
        owners: np.ndarray,
        moved: np.ndarray,
        old_hosts: np.ndarray,
        new_hosts: np.ndarray,
        owner_pods: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Correct the given owners' deltas for this wave's peer movements.

        For owner u with candidate x and moved peer p (rate λ):

        ``Δ(u→x) += λ·(w[l(src_u, new_p)] − w[l(src_u, old_p)])
                  − λ·(w[l(x, new_p)] − w[l(x, old_p)])``

        and the §V-C landing rate gains/loses λ as p lands on / leaves x.
        Only the moved peers' terms change, so the correction touches
        ``Σ_u |candidates(u)| × |moved peers(u)|`` rows — a tiny slice of
        a full re-score — and keeps every retained delta exact against
        the post-wave placement (candidate sets stay the round snapshot).

        ``owners`` selects which of the batch's owners to correct (the
        uncached loop passes all of its compacted batch, the cached loop
        the deferred subset of the full-population batch).  Returns the
        owner indices that actually had a moved peer — the cached loop's
        stale set.  ``owner_pods``, when given, is an (owners × pods)
        candidate-incidence map: an incidence whose peer moved between
        pods the owner holds no candidate in contributes exactly zero to
        the candidate-side term, so its row expansion is skipped outright
        (the source-side aggregate still counts every incidence).
        """
        fast = self._fast
        snap = fast.snapshot
        pw = fast._path_weight
        rack_of, pod_of = fast._rack_of, fast._pod_of
        moved_flag = np.zeros(snap.n_vms, dtype=bool)
        moved_flag[moved] = True
        old_of = np.zeros(snap.n_vms, dtype=np.int64)
        new_of = np.zeros(snap.n_vms, dtype=np.int64)
        old_of[moved] = old_hosts
        new_of[moved] = new_hosts

        # (owner, moved peer) incidences of the given owners.
        owners = np.asarray(owners, dtype=np.int64)
        deg = batch.degree[owners]
        cum = np.zeros(len(owners) + 1, dtype=np.int64)
        np.cumsum(deg, out=cum[1:])
        owner_e = np.repeat(
            np.arange(len(owners), dtype=np.int64), deg
        )
        edge = np.repeat(
            snap.ptr[batch.vms[owners]] - cum[:-1], deg
        ) + np.arange(int(cum[-1]))
        peer = snap.peer[edge]
        hit = moved_flag[peer]
        if not np.any(hit):
            return np.empty(0, dtype=np.int64)
        m_owner = owner_e[hit]
        m_peer = peer[hit]
        m_rate = snap.rate[edge[hit]]
        m_old = old_of[m_peer]
        m_new = new_of[m_peer]

        src = batch.source[owners[m_owner]]
        src_term = m_rate * (
            pw[pair_levels(src, m_new, rack_of, pod_of)]
            - pw[pair_levels(src, m_old, rack_of, pod_of)]
        )
        # Work in the compact row space of the stale owners only (their
        # candidate segments), then scatter once into the batch arrays.
        u_own, inv = np.unique(m_owner, return_inverse=True)
        g_own = owners[u_own]
        seg_len = (batch.ptr[g_own + 1] - batch.ptr[g_own]).astype(np.int64)
        c_ptr = np.zeros(len(u_own) + 1, dtype=np.int64)
        np.cumsum(seg_len, out=c_ptr[1:])
        n_stale_rows = int(c_ptr[-1])
        if n_stale_rows == 0:
            return g_own
        stale_rows = np.repeat(
            batch.ptr[g_own] - c_ptr[:-1], seg_len
        ) + np.arange(n_stale_rows)
        # Source-side term: one per-owner aggregate over its whole segment.
        src_adjust = np.zeros(len(u_own))
        np.add.at(src_adjust, inv, src_term)
        adjust = np.repeat(src_adjust, seg_len)

        # Candidate-side term: expand each incidence over the owner's rows.
        if owner_pods is not None:
            ow = owners[m_owner]
            hit = (
                owner_pods[ow, pod_of[m_new]]
                | owner_pods[ow, pod_of[m_old]]
            )
            inv_c = inv[hit]
            rate_c = m_rate[hit]
            old_c = m_old[hit]
            new_c = m_new[hit]
        else:
            inv_c, rate_c, old_c, new_c = inv, m_rate, m_old, m_new
        inc_rows = seg_len[inv_c]
        i_ptr = np.zeros(len(inv_c) + 1, dtype=np.int64)
        np.cumsum(inc_rows, out=i_ptr[1:])
        total = int(i_ptr[-1])
        row_local = np.repeat(c_ptr[inv_c] - i_ptr[:-1], inc_rows) + np.arange(
            total
        )
        row_hosts = batch.host[stale_rows]
        # The level-weight difference vanishes unless the candidate host
        # shares a pod with the peer's old or new placement (both levels
        # are 3 otherwise) — which prunes the expensive part of the
        # expansion to a couple of pods' worth of rows.  Pods (narrowed
        # to int32: the filter is bandwidth-bound) are gathered once per
        # stale row and once per incidence, then expanded; only the near
        # rows gather their incidence's values.
        pod32 = pod_of.astype(np.int32)
        host_pod = pod32[row_hosts][row_local]
        near = (host_pod == np.repeat(pod32[new_c], inc_rows)) | (
            host_pod == np.repeat(pod32[old_c], inc_rows)
        )
        at_near = np.flatnonzero(near)
        row_near = row_local[at_near]
        inc_near = np.searchsorted(i_ptr, at_near, side="right") - 1
        hosts_n = row_hosts[row_near]
        new_n = new_c[inc_near]
        old_n = old_c[inc_near]
        rate_n = rate_c[inc_near]
        cand_term = rate_n * (
            pw[pair_levels(hosts_n, new_n, rack_of, pod_of)]
            - pw[pair_levels(hosts_n, old_n, rack_of, pod_of)]
        )
        adjust -= np.bincount(row_near, weights=cand_term, minlength=n_stale_rows)
        batch.delta[stale_rows] += adjust
        if self._engine.bandwidth_threshold is not None:
            # The §V-C landing rate is only consumed when the threshold is
            # in force; skip the correction otherwise.
            onto_term = rate_n * (
                (new_n == hosts_n).astype(float) - (old_n == hosts_n)
            )
            batch.onto_rate[stale_rows] += np.bincount(
                row_near, weights=onto_term, minlength=n_stale_rows
            )
        return g_own

    # -- settlement ---------------------------------------------------------

    def _settle_owners(
        self,
        result: RoundResult,
        batch: CandidateBatch,
        rows: np.ndarray,
        positions: np.ndarray,
        choice: np.ndarray,
        best: np.ndarray,
    ) -> None:
        """Record final decisions for owners without a beneficial move.

        ``rows`` are owner indices into the batch; ``positions`` maps
        owner index → visit position.
        """
        if rows.size == 0:
            return
        vm_ids = self._fast.snapshot.vm_ids
        reason_code = np.where(
            batch.degree[rows] == 0, 0, np.where(choice[rows] < 0, 1, 2)
        )
        deltas = np.where(reason_code == 2, np.maximum(best[rows], 0.0), 0.0)
        vms = vm_ids[batch.vms[rows]]
        pos = positions[rows]
        cols = result.decisions
        cols.vm[pos] = vms
        cols.source[pos] = batch.source[rows]
        cols.delta[pos] = deltas
        cols.reason[pos] = reason_code
