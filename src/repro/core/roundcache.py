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
that starts or stops gaining changes its row count.

:class:`RoundScoreCache` holds one :class:`~repro.core.fastcost.CandidateBatch`
over the whole VM population, owned by the
:class:`~repro.core.fastcost.FastCostEngine` and invalidated through the
engine's mutation paths (``apply_moves`` for each wave's movers and
their peers, ``apply_traffic_delta`` for λ changes,
``add_vms``/``remove_vms`` flush on dense-index remaps).  At every round
start :meth:`~RoundScoreCache.refresh` re-scores *only the dirty owners*
— one ``candidate_batch`` call over the stale subset — and splices the
fresh segments into the cached batch.  Because a batched score is
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

import copy
from typing import Optional, Tuple

import numpy as np

from repro.core.fastcost import CandidateBatch, FastCostEngine, segment_rows


class RoundScoreCache:
    """One scored candidate batch over the full population,
    owner-invalidated.

    Owned by a :class:`FastCostEngine` (``engine.round_cache(cap)``); the
    engine's mutating ops call :meth:`invalidate_owners`/:meth:`flush`,
    and every full-population round calls :meth:`refresh` once.
    ``batch`` is keyed by the dense VM index (owner ``i`` is dense VM
    ``i``, so its ``vms`` column is left ``None``) and ``valid`` marks
    the owners whose rows are still exact; both are ``None`` until the
    first refresh and after a flush.
    """

    def __init__(
        self, engine: FastCostEngine, max_candidates: Optional[int]
    ) -> None:
        self._engine = engine
        self.max_candidates = max_candidates
        self.batch: Optional[CandidateBatch] = None
        self.valid: Optional[np.ndarray] = None

    def flush(self) -> None:
        """Drop everything (dense-index remap, rebuild, rebinding)."""
        self.batch = self.valid = None

    def invalidate_owners(self, dense_owners: np.ndarray) -> None:
        """Mark the given owners' scored rows stale."""
        if self.valid is not None:
            self.valid[dense_owners] = False

    def refresh(self) -> Tuple[CandidateBatch, np.ndarray]:
        """Re-score the dirty owners and return the full-population batch.

        Returns ``(batch, dirty)``: ``batch`` shares the cache's arrays
        (zero copy), with ``vms[i] == i`` over the dense index, and
        ``dirty`` the owners that were re-scored.  The round engine never
        writes the returned rows: its wave loop corrects deltas on
        sub-batch copies.
        """
        n = self._engine.snapshot.n_vms
        if self.valid is None or len(self.valid) != n:
            self.valid = np.zeros(n, dtype=bool)
        dirty = np.flatnonzero(~self.valid)
        score = self._engine.candidate_batch
        fresh = None
        if dirty.size == n:  # first use, after a flush, or all stale
            self.batch = fresh = score(dirty, self.max_candidates)
        elif dirty.size:
            fresh = score(dirty, self.max_candidates)
            self._splice(dirty, fresh)
        self.valid[dirty] = True
        # The cache keeps neither derived column (``vms`` is the identity,
        # and a round materializes the row → owner one): both live on
        # this shallow copy and die with the round, as does the count of
        # re-scored owners the gain bound settled (``bounded``).
        self.batch.vms = self.batch._owner = None
        batch = copy.copy(self.batch)
        batch.vms = np.arange(n, dtype=np.int64)
        batch.bounded = fresh.bounded if fresh is not None else 0
        return batch, dirty

    def _splice(self, dirty: np.ndarray, fresh: CandidateBatch) -> None:
        """Replace the dirty owners' segments of the cached batch with
        freshly scored ones.

        A mask compress/expand per row column: ``keep`` over the old
        rows and ``stay`` over the new ones are cleared only at the dirty
        owners' segments, so clean rows copy across in their old relative
        order and the fresh rows fill the gaps — per-owner scoring is
        deterministic and self-contained, so the spliced batch is
        bit-identical to a full re-score.  Columns are swapped one at a
        time, so only one old column outlives its replacement.
        """
        batch = self.batch
        counts = np.diff(batch.ptr)
        counts[dirty] = np.diff(fresh.ptr)
        ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        total = int(ptr[-1])
        keep = np.ones(batch.n_rows, dtype=bool)
        keep[segment_rows(batch.ptr, dirty)[0]] = False
        fresh_dst = segment_rows(ptr, dirty)[0]
        stay = np.ones(total, dtype=bool)
        stay[fresh_dst] = False
        for name in CandidateBatch.ROW_FIELDS:
            column = getattr(batch, name)
            out = np.empty(total, dtype=column.dtype)
            out[stay] = column[keep]
            out[fresh_dst] = getattr(fresh, name)
            setattr(batch, name, out)
        batch.ptr = ptr
        for name in ("source", "degree", "total_rate"):
            getattr(batch, name)[dirty] = getattr(fresh, name)
