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
   call, in visit order, which moves the VMs with one
   ``Allocation.migrate_many`` and updates the engine's caches.
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

A round's outcome is its :class:`DecisionColumns`, one row per hold
(§V-A, Algorithm 1), plus three counters.  A migrated row carries its
exact applied delta and the wave it moved in, so the round's moves
grouped by ``wave`` (visit order within a wave) are the very
``apply_moves`` calls it made; the sharded coordinator replays a
domain's round from them.

**Incremental round cache.**  A round whose order covers the engine's
whole population scores against the
:class:`~repro.core.roundcache.RoundScoreCache` instead of a per-round
throwaway batch: scored candidate rows persist across rounds, runs and
epochs, and only owners whose dependency footprint changed are
re-scored.  Every other order (the shard reconcile boundary) scores a
round-local batch.  Either batch then runs the one wave loop
(``_run_batch``), so a cached round *is* the uncached one, bit for bit;
``repro.reference.UncachedScheduler`` takes a round-local batch for
every round, the twin ``tests/test_round_cache.py`` pins the cached
round against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fastcost import (
    BLOCK_WIDTH,
    CandidateBatch,
    FastCostEngine,
    low_masks,
    lowest_offsets,
    pair_levels,
    segment_rows,
)
from repro.core.migration import MigrationDecision, MigrationEngine


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
    migrated rows only (``reason`` code 3).  ``wave`` is the 1-based wave
    a migrated hold moved in (−1 on every other row): a round's moves,
    grouped by ``wave`` ascending and in hold order within a wave, are
    the ``apply_moves`` calls that made them.  It is not part of the
    decision sequence a :class:`MigrationDecision` carries.
    """

    __slots__ = (
        "vm", "source", "target", "delta", "reason", "wave", "_materialized",
    )

    def __init__(self, n: int) -> None:
        self.vm = np.zeros(n, dtype=np.int64)
        self.source = np.zeros(n, dtype=np.int64)
        self.target = np.full(n, -1, dtype=np.int64)
        self.delta = np.zeros(n)
        self.reason = np.full(n, -1, dtype=np.int8)
        self.wave = np.full(n, -1, dtype=np.int32)
        self._materialized: Optional[List[MigrationDecision]] = None

    @classmethod
    def from_decisions(
        cls, decisions: Sequence[MigrationDecision]
    ) -> "DecisionColumns":
        """Pack settled decision tuples (the per-hold oracle's output)
        into columns; the inverse of materializing.  Each migration is
        its own wave of one, numbered in hold order."""
        decisions = list(decisions)
        cols = cls(len(decisions))
        for pos, decision in enumerate(decisions):
            cols.set(pos, decision)
        migrated = cols.reason == 3
        cols.wave[migrated] = np.arange(1, int(migrated.sum()) + 1)
        return cols

    @classmethod
    def concatenate(
        cls, blocks: Sequence["DecisionColumns"]
    ) -> "DecisionColumns":
        """One record holding the given blocks' holds, in order."""
        cols = cls(0)
        for name in ("vm", "source", "target", "delta", "reason", "wave"):
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

    def waves(self) -> List[np.ndarray]:
        """Row indices of each wave's migrated holds, waves ascending and
        hold order within a wave: one array per ``apply_moves`` call the
        round made."""
        rows = np.flatnonzero(self.reason == 3)
        if not rows.size:
            return []
        rows = rows[np.argsort(self.wave[rows], kind="stable")]
        waves = self.wave[rows]
        return np.split(rows, np.flatnonzero(waves[1:] != waves[:-1]) + 1)


@dataclass
class RoundResult:
    """Outcome of one wave-batched token round: its decision columns and
    the counters the round's telemetry reads."""

    #: Final per-hold decisions, aligned with the round's visit order —
    #: an array-backed lazy sequence (see :class:`DecisionColumns`).  A
    #: migrated hold's ``delta`` is its applied exact delta and its
    #: ``wave`` the wave it moved in.
    decisions: DecisionColumns = field(
        default_factory=lambda: DecisionColumns(0)
    )
    #: Number of migrations performed.
    migrations: int = 0
    #: Number of waves the round took (1 when nothing interfered).
    waves: int = 0
    #: Total deferral events (a hold deferred over k waves counts k times).
    deferrals: int = 0

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
        profile=None,
    ) -> None:
        """``profile``, when given, is a
        :class:`repro.util.profiling.PhaseTimings` accumulating per-phase
        wall clock (score / re-mask / plan / wave-apply / adjust /
        settle)."""
        self._engine = engine
        self._fast = fast
        self._profile = profile

    # -- profiling hooks -----------------------------------------------------

    def _tick(self) -> float:
        return time.perf_counter() if self._profile is not None else 0.0

    def _lap(self, phase: str, t0: float) -> None:
        if self._profile is not None:
            self._profile.add(phase, time.perf_counter() - t0)

    def run_round(self, order: np.ndarray, injector=None) -> RoundResult:
        """Run one full token round over ``order`` (a visit-order snapshot:
        the ``int64`` id array a policy's ``round_order`` returns, or any
        sequence of ids).

        When ``order`` covers the engine's whole population, the round
        runs over the round cache's refreshed rows (keyed by dense VM,
        each mapped to its visit position); any other order scores a
        round-local batch in visit order.  Both run the one wave loop,
        :meth:`_run_batch`.

        ``injector``, when given, is pumped after every applied wave with
        the number of holds decided so far:
        ``injector(settled_holds) -> bool``.  Returning ``True`` means
        external events mutated engine state mid-round (churn, traffic
        deltas, capacity changes); the in-flight scored batch is then
        stale, so the round abandons it and finishes through
        :meth:`_finish_round_live` — fresh re-scores of the still
        undecided holds against the live state.  Every round pumps from
        the one wave loop, so a cached/uncached twin pair under an
        identical injector sees identical pump times and produces the
        identical trajectory.
        """
        fast = self._fast
        n = fast.snapshot.n_vms
        order = np.asarray(order, dtype=np.int64)
        dense_order = fast.dense_indices(order)
        t0 = self._tick()
        if len(order) == n and bool(
            np.bincount(dense_order, minlength=n).all()
        ):
            cache = fast.round_cache(self._engine.max_candidates)
            batch, dirty = cache.refresh()
            if self._profile is not None:
                self._profile.bump("owners", n)
                self._profile.bump("owners_rescored", int(dirty.size))
                self._profile.bump("owners_bounded", batch.bounded)
                self._profile.bump("rows", batch.n_rows)
            positions = np.empty(n, dtype=np.int64)
            positions[dense_order] = np.arange(n, dtype=np.int64)
        else:
            batch = fast.candidate_batch(
                dense_order, self._engine.max_candidates
            )
            positions = np.arange(len(order), dtype=np.int64)
        self._lap("score", t0)
        return self._run_batch(order, batch, positions, injector)

    def _run_batch(
        self,
        order: np.ndarray,
        batch: CandidateBatch,
        positions: np.ndarray,
        injector=None,
    ) -> RoundResult:
        """The wave loop over a batch scoring the whole round;
        ``positions`` maps each batch owner to its visit position."""
        result = RoundResult(decisions=DecisionColumns(len(order)))
        if self._wave_segment(result, batch, positions, injector):
            self._finish_round_live(result, order, injector)
        assert result.decisions.complete
        return result

    def _wave_segment(
        self,
        result: RoundResult,
        batch: CandidateBatch,
        positions: np.ndarray,
        injector=None,
    ) -> bool:
        """Run the wave loop over one scored batch to completion.

        ``positions`` maps the batch's owners to their visit positions in
        the round; owners are settled and proposed in visit order, so the
        batch itself may be in any owner order (the round cache's is
        dense-VM order, and deferred owners are carried in batch order so
        the next wave's batch is one mask compress of this one).  An owner
        without rows cannot gain, so it settles before the first wave
        (:meth:`_settle_rowless`) and the waves resolve and settle only
        the owners that hold rows.  Returns ``True`` when the injector
        fired mid-segment: the batch (round-snapshot candidate sets,
        incrementally adjusted deltas) no longer describes the live
        engine state, so the caller must re-score whatever is still
        undecided and run a new segment.
        """
        fast = self._fast
        engine = self._engine
        cm = engine.migration_cost
        threshold = engine.bandwidth_threshold
        n_hosts = self._fast.allocation.cluster.n_servers

        t0 = self._tick()
        has_rows = batch.ptr[1:] > batch.ptr[:-1]
        self._settle_rowless(
            result, batch, np.flatnonzero(~has_rows), positions
        )
        self._lap("settle", t0)
        while positions.size:
            t0 = self._tick()
            targets = fast.candidate_feasible(batch, threshold)
            choice, best, _, ties = fast.best_candidates(
                batch, targets, return_ties=True
            )
            self._lap("re-mask", t0)
            if self._profile is not None:
                self._profile.bump("rows_remasked", batch.n_rows)
            beneficial = (choice >= 0) & (best > 0) & (best > cm)
            t0 = self._tick()
            self._settle_owners(
                result, batch, np.flatnonzero(has_rows & ~beneficial),
                positions, choice, best,
            )
            self._lap("settle", t0)
            prop = np.nonzero(beneficial)[0]
            if prop.size == 0:
                break
            prop = prop[np.argsort(positions[prop], kind="stable")]
            result.waves += 1
            t0 = self._tick()
            accepted, target = self._plan_wave(
                batch, best, prop, ties, targets, n_hosts
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
                keep = self._adjust_stale(keep, moved, old_hosts, new_hosts)
                self._lap("adjust", t0)
            batch = keep
            positions = keep_positions
            has_rows = batch.ptr[1:] > batch.ptr[:-1]
        return False

    @staticmethod
    def _settled_count(result: RoundResult) -> int:
        """Holds decided so far this round (the injector's clock input)."""
        return int((result.decisions.reason >= 0).sum())

    def _settle_retired(
        self, result: RoundResult, vm_ids: np.ndarray, positions: np.ndarray
    ) -> None:
        """Consume the holds of VMs that left the allocation mid-round.

        A retired VM's remaining holds settle with the ``retired`` reason
        (no decision, zero delta); they still consume their clock ticks,
        keeping the round's hold count — and therefore every twin's event
        timeline — fixed at the visit-order snapshot's length.
        """
        cols = result.decisions
        cols.vm[positions] = vm_ids
        cols.source[positions] = -1
        cols.delta[positions] = 0.0
        cols.reason[positions] = 4  # retired

    def _finish_round_live(
        self, result: RoundResult, order_ids: np.ndarray, injector
    ) -> None:
        """Finish a round whose in-flight batch an injected event staled.

        Loops until every hold is decided: settle the holds of VMs that
        no longer exist, score a *fresh* candidate batch over the still
        undecided (and still placed) VMs against the live engine state,
        and run a wave segment over it — which may itself be interrupted
        by further injections.  The continuation depends only on live
        engine state, so cached and uncached rounds (which share this
        path after bailing out) produce bit-identical trajectories.
        """
        fast = self._fast
        allocation = fast.allocation
        while True:
            undecided = np.flatnonzero(result.decisions.reason < 0)
            if undecided.size == 0:
                return
            ids = order_ids[undecided]
            alive = np.isin(ids, allocation.columns()[0])
            if not alive.all():
                self._settle_retired(result, ids[~alive], undecided[~alive])
                if not alive.any():
                    return
            t0 = self._tick()
            batch = fast.candidate_batch(
                fast.dense_indices(ids[alive]), self._engine.max_candidates
            )
            self._lap("score", t0)
            if not self._wave_segment(
                result, batch, undecided[alive], injector
            ):
                return

    # -- wave planning ------------------------------------------------------

    def _plan_wave(
        self,
        batch: CandidateBatch,
        best: np.ndarray,
        prop: np.ndarray,
        ties: np.ndarray,
        targets: np.ndarray,
        n_hosts: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Greedy interference-free admission with exact-tie retargeting.

        Returns ``(accepted, target)`` over ``prop``: the admission mask
        and each admitted proposal's target host.  Priority is descending
        Lemma 3 gain (stable on visit position — callers pass ``prop`` in
        visit order).  Each proposal may land on any feasible host whose
        delta *exactly equals* its best (the covered hosts of ``ties``,
        from :meth:`FastCostEngine.best_candidates`) — the first such
        host in probing order not yet claimed this wave — so an
        already-claimed host only defers a VM when no equally-good
        alternative exists.  A tied block row offers its covered hosts
        from its resolved target (``targets``) on, each probed with the
        live feasibility test when the ones before it are claimed.
        """
        fast = self._fast
        snap = fast.snapshot
        threshold = self._engine.bandwidth_threshold
        n_prop = len(prop)
        order = np.argsort(-best[prop], kind="stable")
        rank_of = np.empty(n_prop, dtype=np.int64)
        rank_of[order] = np.arange(n_prop)

        # Tied rows of the proposal owners only, mapped to proposal index
        # (grouped by owner).  Each offers its covered hosts from its
        # resolved target (its first candidate) on; the host-only test
        # narrows them when a claim moves the row past its target.
        prop_index = np.full(batch.n_owners, -1, dtype=np.int64)
        prop_index[prop] = np.arange(n_prop)
        t_owner = prop_index[batch.owner[ties]]
        in_prop = t_owner >= 0
        t_owner = t_owner[in_prop]
        t_row = ties[in_prop]
        t_base = batch.host[t_row].astype(np.int64)
        cand = targets[t_row]
        t_bits = batch.cover[t_row] & ~low_masks(cand - t_base)
        open_window = None

        sources = batch.source[prop]
        vms = batch.vms[prop]
        accepted = np.zeros(n_prop, dtype=bool)
        target = np.full(n_prop, -1, dtype=np.int64)
        alive = np.ones(n_prop, dtype=bool)
        host_used = np.zeros(n_hosts, dtype=bool)
        vm_blocked = np.zeros(snap.n_vms, dtype=bool)
        # Each admission iteration's winners, by ``big − rank`` (higher
        # wins; 0 for every other VM), written and cleared in place.
        winner_top = np.zeros(snap.n_vms, dtype=np.int64)
        big = n_prop  # sentinel priority rank

        while True:
            alive &= ~host_used[sources] & ~vm_blocked[vms]
            # A row whose candidate was claimed moves on to its next open
            # host; claimed hosts and settled owners never return.
            claimed = np.flatnonzero(host_used[cand])
            if claimed.size:
                if open_window is None:
                    open_window = fast.host_window(fast.open_hosts())
                at = t_base[claimed]
                t_bits[claimed] &= open_window[at] & ~fast.host_window(
                    host_used
                )[at]
                cand[claimed], t_bits[claimed] = fast.first_passing(
                    batch, t_row[claimed], t_bits[claimed], threshold
                )
            open_rows = alive[t_owner] & (cand >= 0)
            t_owner = t_owner[open_rows]
            t_row = t_row[open_rows]
            t_base = t_base[open_rows]
            t_bits = t_bits[open_rows]
            cand = cand[open_rows]
            if t_owner.size == 0:
                break
            # First open tied host per owner: the lowest probing rank
            # over the owner's rows.
            first = np.ones(len(t_owner), dtype=bool)
            first[1:] = t_owner[1:] != t_owner[:-1]
            if not first.all():
                t_rank = batch.rank[t_row] + (cand - t_base)
                starts = np.flatnonzero(first)
                lowest = np.minimum.reduceat(t_rank, starts)
                first = t_rank == np.repeat(
                    lowest, np.diff(np.append(starts, len(t_rank)))
                )
            pick = np.full(n_prop, -1, dtype=np.int64)
            pick[t_owner[first]] = np.flatnonzero(first)
            contenders = np.nonzero(pick >= 0)[0]
            picked = cand[pick[contenders]]
            # Host claims resolve by gain priority (then visit order).
            claim = np.full(n_hosts, big, dtype=np.int64)
            np.minimum.at(claim, sources[contenders], rank_of[contenders])
            np.minimum.at(claim, picked, rank_of[contenders])
            wins = (claim[sources[contenders]] == rank_of[contenders]) & (
                claim[picked] == rank_of[contenders]
            )
            winners = contenders[wins]
            # Peer filter, vectorized: a winner yields when one of its
            # peers is a higher-priority winner (the loser stays alive for
            # the next admission round — conservative vs the sequential
            # sweep, but converging to the same admitted set).
            top = big - rank_of[winners]
            winner_top[vms[winners]] = top
            w_ptr, w_peers = self._peer_slices(vms[winners])
            peer_top = np.zeros(len(winners), dtype=np.int64)
            starts = w_ptr[:-1]
            nonempty = w_ptr[1:] > starts
            if np.any(nonempty):
                peer_top[nonempty] = np.maximum.reduceat(
                    winner_top[w_peers], starts[nonempty]
                )
            winner_top[vms[winners]] = 0
            ok = (peer_top < top) & ~vm_blocked[vms[winners]]
            chosen = winners[ok]
            if chosen.size == 0:
                break
            accepted[chosen] = True
            alive[chosen] = False
            target[chosen] = picked[wins][ok]
            host_used[sources[chosen]] = True
            host_used[target[chosen]] = True
            vm_blocked[w_peers[np.repeat(ok, np.diff(w_ptr))]] = True
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
        if dense.size:
            deltas = fast.apply_moves(dense, targets)
            pos_arr = positions[wave]
            cols = result.decisions
            cols.vm[pos_arr] = vm_ids[dense]
            cols.source[pos_arr] = sources
            cols.target[pos_arr] = targets
            cols.delta[pos_arr] = deltas
            cols.reason[pos_arr] = 3  # migrated
            cols.wave[pos_arr] = result.waves
            result.migrations += int(dense.size)
        return dense, sources, targets

    # -- staleness ----------------------------------------------------------

    def _adjust_stale(
        self,
        batch: CandidateBatch,
        moved: np.ndarray,
        old_hosts: np.ndarray,
        new_hosts: np.ndarray,
    ) -> CandidateBatch:
        """Correct the batch's deltas for this wave's peer movements.

        For owner u with candidate x and moved peer p (rate λ):

        ``Δ(u→x) += λ·(w[l(src_u, new_p)] − w[l(src_u, old_p)])
                  − λ·(w[l(x, new_p)] − w[l(x, old_p)])``

        and the §V-C landing rate gains/loses λ as p lands on / leaves x.
        Only the moved peers' terms change, so the correction touches
        ``Σ_u rows(u) × |moved peers(u)|`` terms — a tiny slice of a full
        re-score — and keeps every retained delta exact against the
        post-wave placement (candidate sets stay the round snapshot).

        A row's covered hosts hold none of the owner's peers, so every
        term is the same at each of them, bit for bit, and is taken at
        the first one.  Where a moved peer lands on a covered host of a
        row that covers several, that host first splits off as a row of
        its own (the row's delta, then its own terms); a split row never
        merges back.  Returns the adjusted batch: the given one, written
        in place, or a rebuilt one when a host split off.
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

        # (owner, moved peer) incidences.
        deg = batch.degree
        cum = np.zeros(batch.n_owners + 1, dtype=np.int64)
        np.cumsum(deg, out=cum[1:])
        owner_e = np.repeat(np.arange(batch.n_owners, dtype=np.int64), deg)
        edge = np.repeat(snap.ptr[batch.vms] - cum[:-1], deg) + np.arange(
            int(cum[-1])
        )
        peer = snap.peer[edge]
        hit = moved_flag[peer]
        if not np.any(hit):
            return batch
        m_owner = owner_e[hit]
        m_peer = peer[hit]
        m_rate = snap.rate[edge[hit]]
        m_old = old_of[m_peer]
        m_new = new_of[m_peer]

        src = batch.source[m_owner]
        src_term = m_rate * (
            pw[pair_levels(src, m_new, rack_of, pod_of)]
            - pw[pair_levels(src, m_old, rack_of, pod_of)]
        )
        # Work in the compact row space of the stale owners only (their
        # segments), then write the batch once.
        stale, inv = np.unique(m_owner, return_inverse=True)
        stale_rows, c_ptr = segment_rows(batch.ptr, stale)
        seg_len = np.diff(c_ptr)
        n_stale_rows = len(stale_rows)
        if n_stale_rows == 0:
            return batch
        # Source-side term: one per-owner aggregate over its whole segment.
        src_adjust = np.zeros(len(stale))
        np.add.at(src_adjust, inv, src_term)

        # Candidate-side term: expand each incidence over the owner's rows.
        inc_rows = seg_len[inv]
        i_ptr = np.zeros(len(inv) + 1, dtype=np.int64)
        np.cumsum(inc_rows, out=i_ptr[1:])
        total = int(i_ptr[-1])
        row_local = np.repeat(c_ptr[inv] - i_ptr[:-1], inc_rows) + np.arange(
            total
        )
        row_base = batch.host[stale_rows].astype(np.int64)
        # The level-weight difference vanishes unless the row's rack
        # shares a pod with the peer's old or new placement (both levels
        # are 3 otherwise) — which prunes the expensive part of the
        # expansion to a couple of pods' worth of rows.  Pods (narrowed
        # to int32: the filter is bandwidth-bound) are gathered once per
        # stale row and once per incidence, then expanded; only the near
        # rows gather their incidence's values.
        pod32 = pod_of.astype(np.int32)
        host_pod = pod32[row_base][row_local]
        near = (host_pod == np.repeat(pod32[m_new], inc_rows)) | (
            host_pod == np.repeat(pod32[m_old], inc_rows)
        )
        at_near = np.flatnonzero(near)
        row_near = row_local[at_near]
        inc_near = np.searchsorted(i_ptr, at_near, side="right") - 1

        # Splits: a peer landing on one of several covered hosts (a near
        # term: the landing host shares the row's pod).
        cover = batch.cover[stale_rows]
        land = m_new[inc_near] - row_base[row_near]
        bit = np.uint64(1) << np.clip(land, 0, BLOCK_WIDTH - 1).astype(
            np.uint64
        )
        row_cover = cover[row_near]
        splits = np.flatnonzero(
            (land >= 0) & (land < BLOCK_WIDTH) & (row_cover & bit != 0)
            & (np.bitwise_count(row_cover) > 1)
        )
        parent = row_near[splits]
        np.bitwise_and.at(cover, parent, ~bit[splits])
        split_host = m_new[inc_near[splits]]
        # A split row's terms are its parent's near terms, in the same
        # (incidence) order, taken at the split host.
        split_terms = n_terms = np.empty(0, dtype=np.int64)
        if splits.size:
            by_row = np.argsort(row_near, kind="stable")
            sorted_rows = row_near[by_row]
            lo = np.searchsorted(sorted_rows, parent, side="left")
            n_terms = np.searchsorted(sorted_rows, parent, side="right") - lo
            split_terms = by_row[
                np.repeat(lo - (np.cumsum(n_terms) - n_terms), n_terms)
                + np.arange(int(n_terms.sum()))
            ]
        term_row = np.concatenate((
            row_near,
            n_stale_rows + np.repeat(np.arange(len(splits)), n_terms),
        ))
        term_inc = np.concatenate((inc_near, inc_near[split_terms]))
        first = np.where(cover != 0, lowest_offsets(cover), 0)
        at_host = np.concatenate((row_base + first, split_host))[term_row]
        new_n = m_new[term_inc]
        old_n = m_old[term_inc]
        rate_n = m_rate[term_inc]
        cand_term = rate_n * (
            pw[pair_levels(at_host, new_n, rack_of, pod_of)]
            - pw[pair_levels(at_host, old_n, rack_of, pod_of)]
        )
        # Row r of the extended space adjusts stale row `of_row[r]`'s
        # values (a split row starts from its parent's).
        of_row = np.concatenate((np.arange(n_stale_rows), parent))
        n_ext = len(of_row)
        owner_local = np.repeat(np.arange(len(stale)), seg_len)
        adjust = src_adjust[owner_local[of_row]] - np.bincount(
            term_row, weights=cand_term, minlength=n_ext
        )
        delta = batch.delta[stale_rows[of_row]] + adjust
        batch.delta[stale_rows] = delta[:n_stale_rows]
        with_onto = len(batch.onto_rate) == batch.n_rows
        onto = np.empty(0)
        if with_onto:
            # The §V-C landing rate is only carried (and consumed) when
            # the threshold is in force.
            onto_term = rate_n * (
                (new_n == at_host).astype(float) - (old_n == at_host)
            )
            onto = batch.onto_rate[stale_rows[of_row]] + np.bincount(
                term_row, weights=onto_term, minlength=n_ext
            )
            batch.onto_rate[stale_rows] = onto[:n_stale_rows]
        if not splits.size:
            return batch
        batch.cover[stale_rows] = cover
        return batch.with_rows(
            owners=stale[owner_local[parent]],
            host=split_host,
            cover=np.ones(len(splits), dtype=np.uint64),
            rank=batch.rank[stale_rows[parent]] + land[splits],
            delta=delta[n_stale_rows:],
            onto_rate=onto[n_stale_rows:],
        )

    # -- settlement ---------------------------------------------------------

    def _settle_rowless(
        self,
        result: RoundResult,
        batch: CandidateBatch,
        rows: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Record the decisions of owners the batch holds no rows for.

        The batch keeps no rows for an owner none of whose candidates
        gains (:meth:`~repro.core.fastcost.FastCostEngine.candidate_batch`),
        so each is ``no_peers`` or ``no_gain`` with delta 0 whatever the
        masks say — what :meth:`_settle_owners` would record, in one
        write and without a feasibility probe.
        """
        pos = positions[rows]
        cols = result.decisions
        cols.vm[pos] = self._fast.snapshot.vm_ids[batch.vms[rows]]
        cols.source[pos] = batch.source[rows]
        cols.delta[pos] = 0.0
        cols.reason[pos] = np.where(batch.degree[rows] == 0, 0, 2)

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
        owner index → visit position.  Reasons are gain-first: an owner
        with peers but no gaining candidate
        (:meth:`~repro.core.fastcost.FastCostEngine.gaining`) is
        ``no_gain`` (delta 0) whatever the masks say; only an owner that
        could gain but has no feasible row is ``no_feasible_target``.
        """
        if rows.size == 0:
            return
        vm_ids = self._fast.snapshot.vm_ids
        unplaced = np.flatnonzero(choice[rows] < 0)
        blocked = np.zeros(len(rows), dtype=bool)
        blocked[unplaced] = self._fast.gaining(batch, rows[unplaced])
        reason_code = np.where(
            batch.degree[rows] == 0, 0, np.where(blocked, 1, 2)
        )
        deltas = np.where(reason_code == 2, np.maximum(best[rows], 0.0), 0.0)
        vms = vm_ids[batch.vms[rows]]
        pos = positions[rows]
        cols = result.decisions
        cols.vm[pos] = vms
        cols.source[pos] = batch.source[rows]
        cols.delta[pos] = deltas
        cols.reason[pos] = reason_code
