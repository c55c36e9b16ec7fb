"""Persistent per-owner round-score cache (dirty-owner invalidation).

S-CORE's token protocol is local by design: a hold's decision depends
only on the holding VM's peers, its source host and its candidate
targets (Algorithm 1 / Lemma 3).  The wave-batched round engine
(:mod:`repro.core.rounds`) therefore does not need to re-score every
owner every round — a scored candidate row stays exact until something
in its *dependency footprint* changes:

* the owner itself migrates (its source host and probing order change),
* one of its communication peers migrates (every Lemma 3 term references
  peer placement, and the candidate set is built from peer racks),
* a λ on one of its incident pairs changes (rates weight every term),
* the dense VM index is remapped by churn (arrivals/departures).

Host-side state — free slots, RAM, CPU, egress — is deliberately *not*
part of the scored footprint: capacity never enters a Lemma 3 delta, and
feasibility is re-probed from the allocation's live usage at every use.

:class:`RoundScoreCache` keeps one scored candidate CSR over the whole
VM population, owned by the :class:`~repro.core.fastcost.FastCostEngine`
and invalidated through the engine's mutation paths
(``apply_moves``/``apply_migration`` via each move's
:class:`~repro.core.fastcost.TouchedSet`, ``apply_traffic_delta`` for λ
changes, ``add_vms``/``remove_vms`` flush on dense-index remaps).  At
every round start :meth:`refresh` re-scores *only the dirty owners* —
one ``candidate_batch`` call over the stale subset — and splices the
fresh segments into the cached CSR.  Because a batched score is
computed per owner from that owner's own edges alone, the spliced result
is bit-for-bit the batch a full re-score would produce, which is what
lets the cached round trajectory equal the uncached one exactly
(``tests/test_round_cache.py`` pins this, and ``docs/engine.md``
documents the invalidation rules).

The cache survives across rounds, runs and epochs: late convergence
iterations (few migrations, mostly-clean owners) and steady-state
scenario epochs degrade into near-no-op sparse re-scores.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.fastcost import CandidateBatch, FastCostEngine, TouchedSet


def segment_rows(ptr: np.ndarray, owners: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(flat row indices, segment ptr) of the given owners' CSR segments.

    The standard expansion: ``rows`` walks each owner's ``ptr[i]:ptr[i+1]``
    slice in order, ``seg_ptr`` delimits them in the output.
    """
    owners = np.asarray(owners, dtype=np.int64)
    counts = (ptr[owners + 1] - ptr[owners]).astype(np.int64)
    seg_ptr = np.zeros(len(owners) + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_ptr[1:])
    rows = np.repeat(ptr[owners] - seg_ptr[:-1], counts) + np.arange(
        int(seg_ptr[-1])
    )
    return rows, seg_ptr


class ShadowIndex:
    """Blocked candidate rows that matter if their host frees: unordered.

    An append-only ``(row, host)`` buffer plus a per-row membership
    bitmap.  :meth:`add` appends only non-members, so a row has at most
    one entry and lookups never return duplicates.  Entry order is free:
    every consumer re-checks ``delta >= best[owner]``, so "which blocked
    rows sit on these hosts" is one flag gather over the buffer instead
    of a host-sorted bisect.
    """

    __slots__ = ("member", "_rows", "_hosts", "_size")

    def __init__(self, n_rows: int) -> None:
        #: ``member[row]`` — whether ``row`` has an entry.
        self.member = np.zeros(n_rows, dtype=bool)
        self._rows = np.empty(0, dtype=np.int64)
        self._hosts = np.empty(0, dtype=np.int64)
        self._size = 0

    @property
    def rows(self) -> np.ndarray:
        """Row of every entry (a view)."""
        return self._rows[: self._size]

    @property
    def hosts(self) -> np.ndarray:
        """Host of every entry (a view)."""
        return self._hosts[: self._size]

    def add(self, rows: np.ndarray, hosts: np.ndarray) -> None:
        """Append the non-member rows (``rows`` unique within the call)."""
        new = ~self.member[rows]
        rows = rows[new]
        if rows.size == 0:
            return
        self.member[rows] = True
        end = self._size + len(rows)
        if end > len(self._rows):
            capacity = end + (end >> 2)
            for name in ("_rows", "_hosts"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[: self._size] = getattr(self, name)[: self._size]
                setattr(self, name, grown)
        self._rows[self._size : end] = rows
        self._hosts[self._size : end] = hosts[new]
        self._size = end

    def on_hosts(self, host_flag: np.ndarray) -> np.ndarray:
        """Rows of the entries on the hosts ``host_flag`` selects."""
        return self.rows[host_flag[self.hosts]]

    def compact(self, keep: np.ndarray) -> None:
        """Drop every entry the mask ``keep`` (over the entries) does not
        select."""
        self.member[self.rows[~keep]] = False
        self._store(self.rows[keep], self.hosts[keep])

    def remap(
        self,
        row_owner: np.ndarray,
        shift: np.ndarray,
        dirty_mask: np.ndarray,
        n_rows: int,
    ) -> None:
        """Re-key after a splice: clean owners' rows move by their
        segment's displacement, dirty owners' entries are dropped."""
        owner = row_owner[self.rows]
        keep = ~dirty_mask[owner]
        rows = self.rows[keep] + shift[owner[keep]]
        self._store(rows, self.hosts[keep])
        self.member = np.zeros(n_rows, dtype=bool)
        self.member[rows] = True

    def _store(self, rows: np.ndarray, hosts: np.ndarray) -> None:
        self._size = len(rows)
        self._rows[: self._size] = rows
        self._hosts[: self._size] = hosts


class DecisionState:
    """Per-owner round-start decisions carried *across* rounds and epochs.

    For every owner: its chosen row and best gain as of the last round
    start, its exact-tie rows (the pool), the shadow index of blocked
    rows that could matter if their host frees, and the per-host
    feasibility vector they were all evaluated against.
    ``stale_decision`` is the owner-granular invalidation mark, set when
    the carried decision may no longer be a fresh evaluation's: the
    owner's rows were re-scored, or it proposed a move last round.  The
    next round start also marks the owners a capacity flip since
    ``host_ok`` can affect, re-evaluates the marked owners and keeps
    everything else, which turns a mostly-converged round into a sparse
    re-score instead of a full O(rows) evaluation.
    """

    __slots__ = (
        "choice",
        "best",
        "pool_rows",
        "pool_owner",
        "pool_hosts",
        "shadow",
        "host_ok",
        "stale_decision",
        "row_owner",
    )

    def __init__(
        self,
        choice: np.ndarray,
        best: np.ndarray,
        host_ok: np.ndarray,
        row_owner: np.ndarray,
        pool_rows: np.ndarray,
        pool_hosts: np.ndarray,
        shadow: ShadowIndex,
    ) -> None:
        self.choice = choice
        self.best = best
        #: The exact-tie pool, row-sorted, with each row's owner and host
        #: ("which ties sit on a filled host" is a flag gather over
        #: ``pool_hosts``).
        self.pool_rows = pool_rows
        self.pool_owner = row_owner[pool_rows]
        self.pool_hosts = pool_hosts
        self.shadow = shadow
        self.host_ok = host_ok
        self.stale_decision = np.zeros(len(choice), dtype=bool)
        #: Row → owner map of the CSR the rows above index; None between
        #: a splice and the next round start (which rebuilds it).
        self.row_owner: Optional[np.ndarray] = row_owner

    def remap_rows(
        self, old_ptr: np.ndarray, new_ptr: np.ndarray, dirty_mask: np.ndarray
    ) -> None:
        """Re-key the carried row ids after a refresh splice.

        A splice renumbers monotonically — clean owners keep their
        within-segment offsets and their relative order — so their rows
        shift by the per-owner segment displacement and sorted arrays
        stay sorted; dirty owners' rows are dropped (they are
        re-evaluated from the fresh scores).  Owners come from the
        carried ``row_owner``, never from bisecting rows into ``old_ptr``.
        """
        shift = new_ptr[:-1] - old_ptr[:-1]
        keep = ~dirty_mask[self.pool_owner]
        self.pool_owner = self.pool_owner[keep]
        self.pool_rows = self.pool_rows[keep] + shift[self.pool_owner]
        self.pool_hosts = self.pool_hosts[keep]
        chosen = ~dirty_mask & (self.choice >= 0)
        self.choice[chosen] += shift[chosen]
        row_owner = self.row_owner
        if row_owner is None:  # a second splice before any round ran
            row_owner = np.repeat(
                np.arange(len(shift), dtype=np.int64), np.diff(old_ptr)
            )
        self.shadow.remap(row_owner, shift, dirty_mask, int(new_ptr[-1]))
        self.row_owner = None


class RoundScoreCache:
    """One scored candidate CSR over the full population, owner-invalidated.

    Owned by a :class:`FastCostEngine` (``engine.round_cache()``); the
    engine's mutating ops call :meth:`invalidate_owners`/:meth:`flush`,
    and the cached round loop calls :meth:`refresh` once per round.
    ``decision_state`` additionally carries the loop's per-owner
    decisions across rounds (see :class:`DecisionState`).
    """

    def __init__(
        self, engine: FastCostEngine, max_candidates: Optional[int]
    ) -> None:
        self._engine = engine
        self.max_candidates = max_candidates
        self._valid: Optional[np.ndarray] = None
        # Scored CSR over the dense VM index (owner i == dense VM i).
        self._ptr: Optional[np.ndarray] = None
        self._host: Optional[np.ndarray] = None
        self._delta: Optional[np.ndarray] = None
        self._onto: Optional[np.ndarray] = None
        self._source: Optional[np.ndarray] = None
        self._degree: Optional[np.ndarray] = None
        self._total_rate: Optional[np.ndarray] = None
        #: Cross-round decision carry (None until a cached round builds
        #: it, and whenever a full re-score drops it).
        self.decision_state: Optional[DecisionState] = None
        # Hit-rate accounting (read by --profile and the bench suite).
        self.refreshes = 0
        self.owners_seen = 0
        self.owners_rescored = 0
        # Hybrid-splice accounting: dirty owners whose fresh scores were
        # scattered into their existing segments vs spliced (renumbering).
        self.owners_scattered = 0
        self.owners_spliced = 0

    # -- invalidation --------------------------------------------------------

    def flush(self) -> None:
        """Drop everything (dense-index remap, rebuild, rebinding)."""
        self._valid = None
        self.decision_state = None

    def invalidate_owners(self, dense_owners: np.ndarray) -> None:
        """Mark the given owners' scored rows stale."""
        if self._valid is not None:
            self._valid[dense_owners] = False

    def invalidate_decisions(self) -> None:
        """Drop only the cross-round decision carry, keeping scored rows.

        Mid-round structural churn (an injected arrival, retirement,
        capacity change or traffic delta) invalidates the round engine's
        in-flight incremental decision structures, but the persistent
        scored rows stay correct as long as the mutation itself routed
        through the engine's footprint invalidation (``apply_moves``,
        ``apply_traffic_delta``, splices).  This is the hook for exactly
        that case: the next round re-evaluates every owner's decision
        from its (mostly cached) scored rows instead of rebuilding them.
        """
        self.decision_state = None

    @property
    def hit_ratio(self) -> float:
        """Fraction of owner evaluations answered from cache so far."""
        if self.owners_seen == 0:
            return 0.0
        return 1.0 - self.owners_rescored / self.owners_seen

    # -- refresh -------------------------------------------------------------

    def refresh(self) -> Tuple[CandidateBatch, np.ndarray]:
        """Re-score the dirty owners and return the full-population batch.

        Returns ``(batch, dirty)``: the batch's arrays are the cache's
        own (zero copy), with ``vms[i] == i`` over the dense index, and
        ``dirty`` the owners that were re-scored.  A carried
        :class:`DecisionState` has those owners marked ``stale_decision``
        (the next round re-evaluates them), is row-remapped across a
        splice and dropped on a full re-score.  The round engine never
        writes the returned rows: its wave loop corrects deltas on
        sub-batch copies.
        """
        engine = self._engine
        n = engine.snapshot.n_vms
        self.refreshes += 1
        self.owners_seen += n
        if self._valid is None or len(self._valid) != n:
            self._adopt(
                engine.candidate_batch(
                    np.arange(n, dtype=np.int64), self.max_candidates
                )
            )
            self.decision_state = None
            self.owners_rescored += n
            return self._as_batch(), np.arange(n, dtype=np.int64)
        dirty = np.nonzero(~self._valid)[0]
        if dirty.size:
            fresh = engine.candidate_batch(dirty, self.max_candidates)
            if dirty.size == n:
                self._adopt(fresh)
                self.decision_state = None
            else:
                new_counts = fresh.ptr[1:] - fresh.ptr[:-1]
                old_counts = self._ptr[dirty + 1] - self._ptr[dirty]
                state = self.decision_state
                same = new_counts == old_counts
                if same.all():
                    # Candidate-set sizes unchanged (rate-only deltas,
                    # rack-local moves): scatter the fresh scores into
                    # the existing segments — no row renumbering, so
                    # carried row ids stay valid as-is.
                    rows, _ = segment_rows(self._ptr, dirty)
                    self._host[rows] = fresh.host
                    self._delta[rows] = fresh.delta
                    self._onto[rows] = fresh.onto_rate
                    self._source[dirty] = fresh.source
                    self._degree[dirty] = fresh.degree
                    self._total_rate[dirty] = fresh.total_rate
                    self.owners_scattered += int(dirty.size)
                else:
                    if same.any():
                        # Hybrid splice: owners whose candidate count is
                        # unchanged take the in-place scatter; only the
                        # changed-count subset pays the renumbering
                        # splice.  The scattered owners are marked valid
                        # *before* `_splice` runs so it copies their
                        # just-updated segments as clean ones.
                        keep = dirty[same]
                        dst_rows, _ = segment_rows(self._ptr, keep)
                        src_rows, _ = segment_rows(
                            fresh.ptr, np.nonzero(same)[0]
                        )
                        self._host[dst_rows] = fresh.host[src_rows]
                        self._delta[dst_rows] = fresh.delta[src_rows]
                        self._onto[dst_rows] = fresh.onto_rate[src_rows]
                        self._source[keep] = fresh.source[same]
                        self._degree[keep] = fresh.degree[same]
                        self._total_rate[keep] = fresh.total_rate[same]
                        self._valid[keep] = True
                        changed_pos = np.nonzero(~same)[0]
                        changed = dirty[changed_pos]
                        sub = fresh.select(changed_pos)
                    else:
                        changed = dirty
                        sub = fresh
                    old_ptr = self._ptr
                    self._splice(changed, sub)
                    if state is not None:
                        dirty_mask = np.zeros(n, dtype=bool)
                        dirty_mask[changed] = True
                        state.remap_rows(old_ptr, self._ptr, dirty_mask)
                    self.owners_scattered += int(same.sum())
                    self.owners_spliced += int(changed.size)
                if state is not None:
                    # Whenever the next round runs, it re-evaluates the
                    # re-scored owners (also after a refresh of its own).
                    state.stale_decision[dirty] = True
            self._valid[dirty] = True
            self.owners_rescored += int(dirty.size)
        return self._as_batch(), dirty

    # -- internals -----------------------------------------------------------

    def _as_batch(self) -> CandidateBatch:
        n = len(self._degree)
        return CandidateBatch(
            vms=np.arange(n, dtype=np.int64),
            source=self._source,
            degree=self._degree,
            total_rate=self._total_rate,
            ptr=self._ptr,
            owner=None,
            host=self._host,
            delta=self._delta,
            onto_rate=self._onto,
        )

    def _adopt(self, batch: CandidateBatch) -> None:
        """Install a full-population batch wholesale."""
        n = batch.n_owners
        self._ptr = batch.ptr
        self._host = batch.host
        self._delta = batch.delta
        self._onto = batch.onto_rate
        self._source = batch.source
        self._degree = batch.degree
        self._total_rate = batch.total_rate
        self._valid = np.ones(n, dtype=bool)

    def _splice(self, dirty: np.ndarray, fresh: CandidateBatch) -> None:
        """Replace the dirty owners' segments with freshly scored ones.

        A mask compress/expand per retained array: ``keep`` over the old
        rows and ``stay`` over the new ones are cleared only at the dirty
        owners' segments, so clean rows copy across in their old relative
        order and the fresh rows fill the gaps — per-owner scoring is
        deterministic and self-contained, so the spliced CSR is
        bit-identical to a full re-score.
        """
        old_ptr = self._ptr
        counts = np.diff(old_ptr)
        counts[dirty] = np.diff(fresh.ptr)
        new_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_ptr[1:])
        total = int(new_ptr[-1])
        keep = np.ones(len(self._host), dtype=bool)
        keep[segment_rows(old_ptr, dirty)[0]] = False
        fresh_dst = segment_rows(new_ptr, dirty)[0]
        stay = np.ones(total, dtype=bool)
        stay[fresh_dst] = False
        for name, scored in (
            ("_host", fresh.host),
            ("_delta", fresh.delta),
            ("_onto", fresh.onto_rate),
        ):
            old = getattr(self, name)
            out = np.empty(total, dtype=old.dtype)
            out[stay] = old[keep]
            out[fresh_dst] = scored
            setattr(self, name, out)
        self._ptr = new_ptr
        self._source[dirty] = fresh.source
        self._degree[dirty] = fresh.degree
        self._total_rate[dirty] = fresh.total_rate
