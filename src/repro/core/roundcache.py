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

A cached row exists only for an owner that can gain: ``candidate_batch``
keeps no rows for an owner none of whose candidates has a delta > 0, so
at convergence most owners hold an empty segment, and a re-scored owner
that starts or stops gaining changes its row count (a splice, not a
scatter).

:class:`RoundScoreCache` keeps one scored candidate CSR over the whole
VM population, owned by the :class:`~repro.core.fastcost.FastCostEngine`
and invalidated through the engine's mutation paths
(``apply_moves`` via each move's
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

from repro.core.fastcost import (
    CandidateBatch,
    FastCostEngine,
    TouchedSet,
    segment_rows,
)

class RoundScoreCache:
    """One scored candidate CSR over the full population, owner-invalidated.

    Owned by a :class:`FastCostEngine` (``engine.round_cache()``); the
    engine's mutating ops call :meth:`invalidate_owners`/:meth:`flush`,
    and every full-population round calls :meth:`refresh` once.
    """

    def __init__(
        self, engine: FastCostEngine, max_candidates: Optional[int]
    ) -> None:
        self._engine = engine
        self.max_candidates = max_candidates
        self._valid: Optional[np.ndarray] = None
        # Scored CSR over the dense VM index (owner i == dense VM i); row
        # column ``name`` of ``CandidateBatch.ROW_FIELDS`` is ``_name``.
        self._ptr: Optional[np.ndarray] = None
        self._host: Optional[np.ndarray] = None
        self._cover: Optional[np.ndarray] = None
        self._rank: Optional[np.ndarray] = None
        self._delta: Optional[np.ndarray] = None
        self._onto_rate: Optional[np.ndarray] = None
        self._source: Optional[np.ndarray] = None
        self._degree: Optional[np.ndarray] = None
        self._total_rate: Optional[np.ndarray] = None
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

    def invalidate_owners(self, dense_owners: np.ndarray) -> None:
        """Mark the given owners' scored rows stale."""
        if self._valid is not None:
            self._valid[dense_owners] = False

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
        ``dirty`` the owners that were re-scored.  The round engine never
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
            self.owners_rescored += n
            return self._as_batch(), np.arange(n, dtype=np.int64)
        dirty = np.nonzero(~self._valid)[0]
        if dirty.size:
            fresh = engine.candidate_batch(dirty, self.max_candidates)
            if dirty.size == n:
                self._adopt(fresh)
            else:
                new_counts = fresh.ptr[1:] - fresh.ptr[:-1]
                old_counts = self._ptr[dirty + 1] - self._ptr[dirty]
                same = new_counts == old_counts
                if same.all():
                    # Candidate-set sizes unchanged (rate-only deltas,
                    # rack-local moves): scatter the fresh scores into
                    # the existing segments — no row renumbering.
                    rows, _ = segment_rows(self._ptr, dirty)
                    for name, column in self._row_columns():
                        column[rows] = getattr(fresh, name)
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
                        for name, column in self._row_columns():
                            column[dst_rows] = getattr(fresh, name)[src_rows]
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
                    self._splice(changed, sub)
                    self.owners_scattered += int(same.sum())
                    self.owners_spliced += int(changed.size)
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
            **dict(self._row_columns()),
        )

    def _row_columns(self):
        """``(name, cached column)`` per ``CandidateBatch.ROW_FIELDS``."""
        return [
            (name, getattr(self, "_" + name))
            for name in CandidateBatch.ROW_FIELDS
        ]

    def _adopt(self, batch: CandidateBatch) -> None:
        """Install a full-population batch wholesale."""
        n = batch.n_owners
        self._ptr = batch.ptr
        for name in CandidateBatch.ROW_FIELDS:
            setattr(self, "_" + name, getattr(batch, name))
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
        keep = np.ones(int(old_ptr[-1]), dtype=bool)
        keep[segment_rows(old_ptr, dirty)[0]] = False
        fresh_dst = segment_rows(new_ptr, dirty)[0]
        stay = np.ones(total, dtype=bool)
        stay[fresh_dst] = False
        for name, old in self._row_columns():
            out = np.empty(total, dtype=old.dtype)
            out[stay] = old[keep]
            out[fresh_dst] = getattr(fresh, name)
            setattr(self, "_" + name, out)
        self._ptr = new_ptr
        self._source[dirty] = fresh.source
        self._degree[dirty] = fresh.degree
        self._total_rate[dirty] = fresh.total_rate
