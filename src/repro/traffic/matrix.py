"""Sparse symmetric pairwise traffic matrix.

λ(u, v) is the average rate (bytes per second, incoming plus outgoing)
exchanged between VMs u and v over the measurement window (paper §III).
The matrix is undirected/symmetric — the cost model only ever uses the
combined rate — and sparse, since DC measurement studies consistently show
most VM pairs never talk.

λ lives once, in one columnar :class:`TrafficSnapshot` per matrix: a
sorted VM index, a CSR adjacency, the unordered pair list and a sorted
pair-key index.  The fast cost engine binds to that store instead of
copying it (:meth:`TrafficMatrix.bind`), so one write — through the
engine's delta API or directly on the matrix — is the whole update.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Mapping, Sequence, Tuple

import numpy as np


def check_rates(rates, name: str = "rate") -> np.ndarray:
    """The one λ check every write passes: each rate finite and >= 0."""
    rates = np.asarray(rates, dtype=float)
    bad = ~(np.isfinite(rates) & (rates >= 0))  # NaN fails both tests
    if bad.any():
        raise ValueError(
            f"{name} must be finite and >= 0, got {float(rates[bad][0])!r}"
        )
    return rates


def delta_arrays(changed_pairs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize and validate a λ write: ``(vm_u, vm_v, rate)`` triples
    or a ``(us, vs, rates)`` tuple of ndarrays, as int64/float arrays.

    Only actual ndarrays make the array form — a plain tuple of exactly
    three triples is a triple list, not a transposed bundle.
    """
    columns = changed_pairs
    try:
        if not (
            isinstance(columns, tuple) and len(columns) == 3
            and isinstance(columns[0], np.ndarray)
        ):
            triples = list(columns)
            columns = zip(*triples, strict=True) if triples else ((),) * 3
        us, vs, rates = (
            np.asarray(c, dtype) for c, dtype in
            zip(columns, (np.int64, np.int64, float), strict=True)
        )
    except (TypeError, ValueError):
        raise ValueError("changed_pairs must be (vm_u, vm_v, rate) triples") from None
    if not (us.shape == vs.shape == rates.shape) or us.ndim != 1:
        raise ValueError("us/vs/rates must be equal-length 1-d arrays")
    rates = check_rates(rates)
    if np.any(us == vs):
        raise ValueError(
            f"self-traffic is not modelled (VM {int(us[np.argmax(us == vs)])})"
        )
    return us, vs, rates


def _positions(table: np.ndarray, ids) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, known)`` of ``ids`` in an ascending id ``table``
    (positions are clipped garbage where ``known`` is False)."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(table) == 0:
        return np.zeros(ids.shape, dtype=np.int64), np.zeros(ids.shape, bool)
    if table[-1] - table[0] == len(table) - 1:  # gapless: offsets
        pos = (ids - table[0]).clip(0, len(table) - 1)
    else:
        pos = np.searchsorted(table, ids).clip(max=len(table) - 1)
    return pos, table[pos] == ids


def _group(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unique values ascending, index of each one's first occurrence,
    inverse)`` — ``np.unique``'s triple from one argsort."""
    order = np.argsort(values)
    ordered = values[order]
    head = np.ones(len(values), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = np.cumsum(head) - 1
    starts = np.flatnonzero(head)
    first = np.minimum.reduceat(order, starts) if len(starts) else starts
    return ordered[head], first, inverse


def _row_pointers(row: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers (``n + 1`` int64 offsets) of an ascending row array."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return ptr


def _k_smallest(k: int, keys: np.ndarray, *ties: np.ndarray) -> np.ndarray:
    """Indices of the ``k`` smallest entries under the ordering
    ``(keys, *ties, index)``, in that order.

    A partition finds the k-th key; only the entries at or below it
    (equal keys included) are sorted, so the cost is O(n) plus a sort
    of the tied head instead of a full O(n log n) ranking.
    """
    if k < len(keys):
        cut = np.partition(keys, k - 1)[k - 1]
        low = np.nonzero(keys <= cut)[0]
    else:
        low = np.arange(len(keys))
    # lexsort is stable and takes its primary key last.
    order = np.lexsort(tuple(t[low] for t in reversed(ties)) + (keys[low],))
    return low[order[:k]]


class TrafficSnapshot:
    """The columnar store of λ over a dense VM index.

    ``vm_ids`` fixes the index space (ascending VM ids, so a dense index
    is a binary search away; a bound store shares its allocation's id
    column).  The CSR triplet (``ptr``, ``peer``, ``rate``, plus the
    owner of every entry in ``row``) lists each VM's peers in ascending
    VM-id order — the order the naive candidate ranking uses for ties.
    ``pair_u/pair_v/pair_rate`` hold every unordered pair once (u < v in
    dense indices) in no particular order: a bulk build keeps its input
    order, a splice appends new pairs at the end, and readers rank or
    look up by value.  ``_pair_key_sorted``/``_pair_sorted_order`` answer
    "where is pair (u, v)?" by binary search over packed ``u·n + v``
    keys, and ``_pair_csr[i]`` holds the CSR positions of pair ``i``'s
    two directed entries, ``(u, v)`` then ``(v, u)``.

    Every λ write bumps ``version`` once; population splices (VMs joining
    or leaving the index with no traffic) leave it alone.  Only
    :meth:`canonical` sorts: every other operation keeps the orders.
    """

    __slots__ = (
        "vm_ids",
        "ptr",
        "peer",
        "rate",
        "row",
        "pair_u",
        "pair_v",
        "pair_rate",
        "_pair_sorted_order",
        "_pair_key_sorted",
        "_pair_csr",
        "version",
    )

    @classmethod
    def canonical(cls, vm_ids, pair_u, pair_v, pair_rate) -> "TrafficSnapshot":
        """The store of a dense pair list (unique pairs, ``pair_u <
        pair_v``), pairs kept in the given order.

        The one place that sorts, and the reference every splice must
        reproduce array for array (the ``store-rebuild`` invariant).
        """
        store = cls.__new__(cls)
        store.vm_ids = np.asarray(vm_ids, dtype=np.int64)
        store.pair_u = np.asarray(pair_u, dtype=np.int64)
        store.pair_v = np.asarray(pair_v, dtype=np.int64)
        store.pair_rate = np.asarray(pair_rate, dtype=np.float64)
        # Directed edge list (each pair twice) -> CSR sorted by (owner,
        # peer).  Preallocated at exactly 2·|pairs| and filled in halves,
        # so peak memory stays proportional to the final arrays.
        m = len(store.pair_rate)
        row = np.empty(2 * m, dtype=np.int64)
        col = np.empty(2 * m, dtype=np.int64)
        val = np.empty(2 * m, dtype=np.float64)
        row[:m], row[m:] = store.pair_u, store.pair_v
        col[:m], col[m:] = store.pair_v, store.pair_u
        val[:m], val[m:] = store.pair_rate, store.pair_rate
        order = np.argsort(row * len(store.vm_ids) + col)  # unique keys
        store.row, store.peer, store.rate = row[order], col[order], val[order]
        store.ptr = _row_pointers(store.row, len(store.vm_ids))
        store.version = 0
        store._index_pairs(order)
        return store

    @classmethod
    def build(
        cls, traffic: "TrafficMatrix", vm_ids: Sequence[int], strict: bool = False
    ) -> "TrafficSnapshot":
        """A private view of ``traffic`` over the given VM population.

        Pairs touching VMs outside ``vm_ids`` are skipped unless
        ``strict`` is set, in which case they raise.  The view is the
        matrix's store re-indexed onto ``vm_ids`` (a gather, no sort);
        treat it as frozen.
        """
        ids = np.sort(np.fromiter(vm_ids, dtype=np.int64))
        return traffic._store.reindexed(ids, strict)

    def reindexed(self, ids: np.ndarray, strict: bool = False) -> "TrafficSnapshot":
        """This store over another ascending id vector.

        The dense-index map between two sorted id vectors is monotone,
        so every array is one gather and every order survives: no sort.
        Pairs touching a VM outside ``ids`` are dropped, or raise
        ``ValueError`` when ``strict``; peerless VMs drop silently.
        """
        old = self.vm_ids
        pos, known = _positions(ids, old)
        keep = known[self.pair_u] & known[self.pair_v]
        if strict and not keep.all():
            bad = int(np.argmin(keep))
            u, v = self.pair_u[bad], self.pair_v[bad]
            missing = old[u] if not known[u] else old[v]
            raise ValueError(
                f"traffic references VM {missing}, absent from the population"
            )
        entry = known[self.row] & known[self.peer]
        view = TrafficSnapshot.__new__(TrafficSnapshot)
        view.vm_ids = ids
        view.row = pos[self.row[entry]]
        view.peer = pos[self.peer[entry]]
        view.rate = self.rate[entry]
        view.ptr = _row_pointers(view.row, len(ids))
        view.pair_u = pos[self.pair_u[keep]]
        view.pair_v = pos[self.pair_v[keep]]
        view.pair_rate = self.pair_rate[keep]
        order = self._pair_sorted_order
        view._pair_sorted_order = (np.cumsum(keep) - 1)[order[keep[order]]]
        view._pair_csr = (np.cumsum(entry) - 1)[self._pair_csr[keep]]
        view.version = self.version
        view._repack_keys()
        return view

    def copy(self) -> "TrafficSnapshot":
        """An independent store with the same content and version."""
        return self.reindexed(self.vm_ids.copy())

    # -- reads --------------------------------------------------------------

    @property
    def n_vms(self) -> int:
        """Size of the dense VM index."""
        return len(self.vm_ids)

    @property
    def n_pairs(self) -> int:
        """Number of communicating (unordered) pairs."""
        return len(self.pair_rate)

    def dense(self, vm_ids) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, known)`` of VM ids in the dense index."""
        return _positions(self.vm_ids, vm_ids)

    def lookup(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(pair positions, found)`` of dense pairs ``lo < hi``."""
        key = lo * self.n_vms + hi
        table = self._pair_key_sorted
        if not len(table):
            return np.zeros(len(key), dtype=np.int64), np.zeros(len(key), bool)
        pos = np.searchsorted(table, key).clip(max=len(table) - 1)
        found = table[pos] == key
        return self._pair_sorted_order[pos], found

    def edges(self, dense: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every directed CSR entry of the given dense VMs, grouped by
        position: ``(cum, owner, entry)`` — ``cum[i]:cum[i + 1]`` are the
        ``i``-th VM's, ``owner`` the position and ``entry`` the CSR index
        of each."""
        deg = self.ptr[dense + 1] - self.ptr[dense]
        cum = np.zeros(len(dense) + 1, dtype=np.int64)
        np.cumsum(deg, out=cum[1:])
        owner = np.repeat(np.arange(len(dense), dtype=np.int64), deg)
        return cum, owner, np.repeat(self.ptr[dense] - cum[:-1], deg) + np.arange(
            cum[-1]
        )

    def peers_slice(self, dense_vm: int) -> Tuple[np.ndarray, np.ndarray]:
        """(peer dense indices, rates) of one VM, ascending by peer id."""
        lo, hi = self.ptr[dense_vm], self.ptr[dense_vm + 1]
        return self.peer[lo:hi], self.rate[lo:hi]

    def vm_loads(self) -> np.ndarray:
        """Aggregate rate of every VM (aligned with ``vm_ids``), one pass.

        ``bincount`` accumulates each VM's rates left to right in CSR
        order — ascending peer id — so the sums are bit-identical for
        any two stores of the same matrix, however each was reached
        (spliced live, unpickled, or freshly built).  Event selection
        ranks VMs on these values and must pick the same VMs on a
        recovered service as on the uninterrupted one.
        """
        return np.bincount(self.row, weights=self.rate, minlength=self.n_vms)

    def ranked_vms(self, k: int, hottest: bool) -> np.ndarray:
        """Ids of the ``k`` hottest VMs by ``(-load, id)``, or the ``k``
        coldest by ``(load, id)``; fewer when fewer VMs exist."""
        loads = self.vm_loads()
        return self.vm_ids[_k_smallest(k, -loads if hottest else loads)]

    def heaviest_pairs(self, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``k`` heaviest pairs as ``(us, vs, rates)`` in VM ids,
        ranked by ``(-rate, u, v)``; fewer when fewer pairs exist."""
        top = _k_smallest(k, -self.pair_rate, self.pair_u, self.pair_v)
        return (
            self.vm_ids[self.pair_u[top]],
            self.vm_ids[self.pair_v[top]],
            self.pair_rate[top],
        )

    # -- λ writes -----------------------------------------------------------

    def write(self, us, vs, rates, grow: bool = False):
        """Overwrite λ for validated VM-id pairs (absolute rates, 0
        removes; a pair listed twice takes its last value).

        Rates already stored are overwritten in place, vanished pairs
        are spliced out of and new pairs into the sorted CSR and pair
        index at their binary-search positions — O(changed), no sort
        the size of the store.  VM ids outside the index raise
        ``KeyError`` before any write, unless ``grow`` splices them in
        first.  Returns ``(n_applied, lo, hi, shift, touched)``: the
        deduplicated pair count, the dense endpoints and ``new − old``
        rate of every pair that changed (what the engine shifts its
        caches by), and the dense endpoints of every listed pair (with
        repeats).
        """
        if us.size == 0:
            return 0, us, vs, rates, us
        ends = np.concatenate([us, vs])
        dense, known = self.dense(ends)
        if not known.all():
            if not grow:
                raise KeyError(
                    f"VM {int(ends[np.argmin(known)])} is not in the engine's "
                    f"snapshot; call add_vms() (or rebuild()) first"
                )
            self.insert_ids(np.unique(ends))
            dense, _ = self.dense(ends)
        iu, iv = dense[: len(us)], dense[len(us):]
        lo = np.minimum(iu, iv)
        hi = np.maximum(iu, iv)
        n = self.n_vms
        key = lo * n + hi
        # Dedup keeping the last occurrence per pair (keys end ascending).
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = key_sorted[1:] != key_sorted[:-1]
        sel = order[last]
        lo, hi, rates, key = lo[sel], hi[sel], rates[sel], key_sorted[last]
        n_applied = len(key)
        touched = np.concatenate([lo, hi])
        at, found = self.lookup(lo, hi)
        live = found | (rates > 0)  # zeroing an absent pair is a no-op
        if not live.all():
            lo, hi, rates, key, at, found = (
                a[live] for a in (lo, hi, rates, key, at, found)
            )
        old = np.zeros(len(rates))
        old[found] = self.pair_rate[at[found]]
        updated = found & (rates > 0)
        removed = found & (rates == 0)
        added = ~found
        if updated.any():
            rate = rates[updated]
            self.pair_rate[at[updated]] = rate
            self.rate[self._pair_csr[at[updated]]] = rate[:, None]
        if removed.any():
            self._drop_pairs(at[removed])
        if added.any():
            self._insert_pairs(lo[added], hi[added], key[added], rates[added])
        self.version += 1
        return n_applied, lo, hi, rates - old, touched

    # -- population splices -------------------------------------------------

    def insert_ids(self, ids: np.ndarray, vm_ids=None) -> None:
        """Splice peerless VMs into the index (ascending ``ids``; those
        already present are skipped).  ``vm_ids`` is the merged id
        vector to adopt — a bound store takes its allocation's column —
        or None to merge here.  Every old dense index shifts up by the
        arrivals before it: a monotone remap, so nothing re-sorts."""
        old_ids = self.vm_ids
        _, present = self.dense(ids)
        ids = ids[~present]
        if ids.size == 0:
            return
        pos = np.searchsorted(old_ids, ids)
        old_n = len(old_ids)
        old_to_new = np.arange(old_n, dtype=np.int64) + np.searchsorted(
            pos, np.arange(old_n), side="right"
        )
        self.vm_ids = np.insert(old_ids, pos, ids) if vm_ids is None else vm_ids
        self._remap_dense(old_to_new)
        # Arrivals join with degree 0: an empty slice where each lands.
        self.ptr = np.insert(self.ptr, pos, self.ptr[pos])

    def pairs_touching(self, dense: np.ndarray) -> np.ndarray:
        """Positions of the pairs with an endpoint among ``dense``."""
        if not (self.ptr[dense + 1] > self.ptr[dense]).any():
            return np.empty(0, dtype=np.int64)
        hit = np.zeros(self.n_vms, dtype=bool)
        hit[dense] = True
        return np.nonzero(hit[self.pair_u] | hit[self.pair_v])[0]

    def remove_ids(self, dense: np.ndarray, vm_ids=None) -> None:
        """Splice VMs (dense indices) out of the index; pairs still
        touching them go too (a λ write: the version bumps).  The
        survivors slide down monotonically, so nothing re-sorts."""
        stale = self.pairs_touching(dense)
        if stale.size:
            self._drop_pairs(stale)
            self.version += 1
        keep = np.ones(self.n_vms, dtype=bool)
        keep[dense] = False
        self.vm_ids = self.vm_ids[keep] if vm_ids is None else vm_ids
        self._remap_dense(np.cumsum(keep) - 1)  # valid at kept indices
        self.ptr = np.delete(self.ptr, dense)

    # -- splice internals ---------------------------------------------------

    def _index_pairs(self, csr_order: np.ndarray) -> None:
        """Build the pair indexes from the canonical CSR sort
        (:meth:`canonical` only): input entry ``i`` is pair ``i`` as
        ``(pair_u, pair_v)`` and ``m + i`` the same pair reversed, so the
        forward entries already come in ascending key order."""
        m = self.n_pairs
        self._pair_sorted_order = csr_order[csr_order < m]
        csr_of = np.empty(2 * m, dtype=np.int64)
        csr_of[csr_order] = np.arange(2 * m)
        self._pair_csr = csr_of.reshape(2, m).T.copy()
        self._repack_keys()

    def _repack_keys(self) -> None:
        """Recompute the packed keys under the current index size.

        Keys are packed as u·n + v.  A monotone remap of the dense index
        (arrivals, departures) changes ``n`` but no order, so this is all
        those splices owe the indexes.
        """
        n = self.n_vms
        order = self._pair_sorted_order
        self._pair_key_sorted = self.pair_u[order] * n + self.pair_v[order]

    def _remap_dense(self, old_to_new: np.ndarray) -> None:
        """Renumber every stored dense index through a monotone map
        (call with ``vm_ids`` already updated): one gather per array,
        then the keys are repacked."""
        for name in ("row", "peer", "pair_u", "pair_v"):
            setattr(self, name, old_to_new[getattr(self, name)])
        self._repack_keys()

    def _drop_pairs(self, pair_idx: np.ndarray) -> None:
        """Splice pairs (positions in the pair arrays) out of the CSR,
        the pair arrays and the sorted pair index."""
        n = self.n_vms
        pos = np.searchsorted(
            self._pair_key_sorted, self.pair_u[pair_idx] * n + self.pair_v[pair_idx]
        )
        entry_kept = np.ones(len(self.row), dtype=bool)
        entry_kept[self._pair_csr[pair_idx]] = False
        kept = np.ones(self.n_pairs, dtype=bool)
        kept[pair_idx] = False
        # Survivors slide down by the dropped entries (pairs) before them.
        csr = np.compress(kept, self._pair_csr, axis=0)
        self._pair_csr = csr - np.cumsum(~entry_kept, dtype=np.int64)[csr]
        order = np.delete(self._pair_sorted_order, pos)
        self._pair_sorted_order = order - np.cumsum(~kept, dtype=np.int64)[order]
        self._pair_key_sorted = np.delete(self._pair_key_sorted, pos)
        for name, mask in (("row", entry_kept), ("peer", entry_kept),
                           ("rate", entry_kept), ("pair_u", kept),
                           ("pair_v", kept), ("pair_rate", kept)):
            setattr(self, name, getattr(self, name)[mask])
        self.ptr = _row_pointers(self.row, n)

    def _insert_pairs(
        self, lo: np.ndarray, hi: np.ndarray, key: np.ndarray, rates: np.ndarray
    ) -> None:
        """Splice new pairs (dense ``lo < hi``, packed ``key`` ascending)
        into the CSR at their sorted positions, append them to the pair
        arrays and thread them into the sorted pair index."""
        at = np.searchsorted(self._pair_key_sorted, key)
        self._pair_key_sorted = np.insert(self._pair_key_sorted, at, key)
        self._pair_sorted_order = np.insert(
            self._pair_sorted_order, at, self.n_pairs + np.arange(len(key))
        )
        self.pair_u = np.concatenate([self.pair_u, lo])
        self.pair_v = np.concatenate([self.pair_v, hi])
        self.pair_rate = np.concatenate([self.pair_rate, rates])
        # Each new entry goes after its row's smaller peers.
        row = np.concatenate([lo, hi])
        peer = np.concatenate([hi, lo])
        order = np.argsort(row * self.n_vms + peer)
        row, peer = row[order], peer[order]
        _cum, owner, entry = self.edges(row)
        at = self.ptr[row] + np.bincount(
            owner, weights=self.peer[entry] < peer[owner], minlength=len(row)
        ).astype(np.int64)
        # np.insert puts the k-th new entry at at[k] + k and moves an old
        # one at p up by the insertions at or before it.
        placed = np.empty(len(order), dtype=np.int64)
        placed[order] = at + np.arange(len(order))
        up = np.zeros(len(self.row) + 1, dtype=np.int64)
        np.add.at(up, at, 1)
        np.cumsum(up, out=up)
        self._pair_csr = np.concatenate(
            [self._pair_csr + up[self._pair_csr], placed.reshape(2, -1).T]
        )
        self.row = np.insert(self.row, at, row)
        self.peer = np.insert(self.peer, at, peer)
        self.rate = np.insert(self.rate, at, np.concatenate([rates, rates])[order])
        self.ptr[1:] += np.cumsum(np.bincount(row, minlength=self.n_vms))


class TrafficMatrix:
    """Pairwise VM-to-VM average traffic rates.

    Rates are stored once per unordered pair, in one
    :class:`TrafficSnapshot`; ``peers_of(u)`` returns the paper's
    ``V_u`` from its CSR slice.
    """

    def __init__(self) -> None:
        empty = np.empty(0, dtype=np.int64)
        self._store = TrafficSnapshot.canonical(empty, empty, empty, np.empty(0))
        #: The allocation whose engines share the store (see :meth:`bind`).
        self._bound = None

    @property
    def version(self) -> int:
        """Counter bumped once by every λ write.

        Engines sharing the store credit the bumps of their own writes
        and compare the rest (:attr:`FastCostEngine.in_sync
        <repro.core.fastcost.FastCostEngine.in_sync>`), so a direct
        write to a bound matrix shows as out of sync.
        """
        return self._store.version

    @property
    def store(self) -> TrafficSnapshot:
        """The columnar store (shared with a bound engine; do not write)."""
        return self._store

    def bind(self, allocation) -> TrafficSnapshot:
        """Re-index the store onto ``allocation``'s id column and return it.

        The map is a monotone gather with no sort, and afterwards the
        store *is* the engine's snapshot: its dense index is the
        allocation's column position.  Any engine over the same
        allocation shares it; an allocation other than the bound one
        raises — give that engine a :meth:`copy`.  Pairs touching VMs
        the allocation does not place raise ``ValueError``.
        """
        if self._bound is not None and self._bound is not allocation:
            raise ValueError(
                "this traffic matrix is bound to another allocation's "
                "engine; give the new engine traffic.copy()"
            )
        ids = allocation.columns()[0]
        if self._store.vm_ids is not ids:
            self._store = self._store.reindexed(ids, strict=True)
        self._bound = allocation
        return self._store

    # -- mutation ----------------------------------------------------------

    def set_rate(self, vm_u: int, vm_v: int, rate: float) -> None:
        """Set λ(u, v); a rate of exactly 0 removes the pair."""
        self.apply_delta([(vm_u, vm_v, rate)])

    def add_rate(self, vm_u: int, vm_v: int, rate: float) -> None:
        """Accumulate onto λ(u, v)."""
        check_rates(rate)
        self.set_rate(vm_u, vm_v, self.rate(vm_u, vm_v) + rate)

    def apply_delta(self, changed_pairs) -> int:
        """Overwrite λ for every ``(u, v, new_rate)`` triple in one batch.

        The epoch-transition form of :meth:`set_rate`: new rates are
        absolute (a rate of 0 removes the pair), validation runs before
        any write so a bad triple leaves the matrix untouched, and the
        version counter bumps once for the whole batch.  Accepts a
        ``(us, vs, rates)`` array tuple too.  Returns the number of
        pairs written.  On a bound matrix this bypasses the engine,
        whose caches then stay stale until its next rebuild.
        """
        us, vs, rates = delta_arrays(changed_pairs)
        self._store.write(us, vs, rates, grow=True)
        return len(us)

    def scale(self, factor: float) -> "TrafficMatrix":
        """Return a new matrix with every rate multiplied by ``factor``.

        This is the paper's TM ×10 / ×50 load-stress scaling (§VI).
        """
        us, vs, rates = self.pair_arrays()
        return TrafficMatrix.from_pairs(
            (us, vs, rates * check_rates(factor, "factor"))
        )

    # -- queries --------------------------------------------------------------

    def rates_of(self, us, vs) -> np.ndarray:
        """λ of every ``(us[i], vs[i])`` pair; zero where absent."""
        store = self._store
        iu, known_u = store.dense(us)
        iv, known_v = store.dense(vs)
        at, found = store.lookup(np.minimum(iu, iv), np.maximum(iu, iv))
        found &= known_u & known_v & (iu != iv)
        out = np.zeros(len(found))
        out[found] = store.pair_rate[at[found]]
        return out

    def rate(self, vm_u: int, vm_v: int) -> float:
        """λ(u, v); zero when the pair does not communicate."""
        return float(self.rates_of([vm_u], [vm_v])[0])

    def _slice(self, vm_u: int) -> Tuple[np.ndarray, np.ndarray]:
        store = self._store
        pos, known = store.dense([vm_u])
        if not known[0]:
            return np.empty(0, dtype=np.int64), np.empty(0)
        peers, rates = store.peers_slice(int(pos[0]))
        return store.vm_ids[peers], rates

    def peers_of(self, vm_u: int) -> FrozenSet[int]:
        """The paper's ``V_u``: every VM exchanging data with u."""
        return frozenset(self._slice(vm_u)[0].tolist())

    def peer_rates(self, vm_u: int) -> Mapping[int, float]:
        """Mapping peer → λ(u, peer); the local state S-CORE decides from."""
        peers, rates = self._slice(vm_u)
        return dict(zip(peers.tolist(), rates.tolist()))

    def degree(self, vm_u: int) -> int:
        """Number of communication peers of u."""
        return len(self._slice(vm_u)[0])

    def pairs(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate (u, v, rate) once per unordered pair, with u < v."""
        return zip(*(a.tolist() for a in self.pair_arrays()))

    def pair_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All unordered pairs as fresh flat arrays ``(u, v, rate)`` with
        u < v, in the store's pair order."""
        store = self._store
        return (
            store.vm_ids[store.pair_u],
            store.vm_ids[store.pair_v],
            store.pair_rate.copy(),
        )

    @property
    def n_pairs(self) -> int:
        """Number of communicating pairs."""
        return self._store.n_pairs

    @property
    def vms_with_traffic(self) -> FrozenSet[int]:
        """All VMs that appear in at least one communicating pair."""
        store = self._store
        return frozenset(store.vm_ids[store.ptr[1:] > store.ptr[:-1]].tolist())

    def total_rate(self) -> float:
        """Sum of λ over all pairs (bytes/second)."""
        return sum(self._store.pair_rate.tolist())

    def vm_load(self, vm_u: int) -> float:
        """Aggregate rate between u and all its peers."""
        return sum(self._slice(vm_u)[1].tolist())

    # -- aggregation -------------------------------------------------------------

    def tor_matrix(self, allocation, n_racks: int = 0) -> np.ndarray:
        """Aggregate the VM matrix to a rack-to-rack (ToR) matrix.

        This is the view shown in the paper's Fig. 3a-c heatmaps.  Traffic
        between co-rack VMs lands on the diagonal.  ``allocation`` must map
        every VM in this matrix.
        """
        racks = n_racks or allocation.topology.n_racks
        tor = np.zeros((racks, racks), dtype=float)
        topo = allocation.topology
        for u, v, rate in self.pairs():
            rack_u = topo.rack_of(allocation.server_of(u))
            rack_v = topo.rack_of(allocation.server_of(v))
            tor[rack_u, rack_v] += rate
            if rack_u != rack_v:
                tor[rack_v, rack_u] += rate
        return tor

    def copy(self) -> "TrafficMatrix":
        """Deep copy (unbound)."""
        clone = TrafficMatrix()
        clone._store = self._store.copy()
        return clone

    @classmethod
    def from_pairs(cls, pairs) -> "TrafficMatrix":
        """Build a matrix from (u, v, rate) triples (rates accumulate),
        or from a ``(us, vs, rates)`` array tuple, in one bulk call.

        Duplicate pairs sum left to right, and the pairs are listed as a
        matrix grown one :meth:`add_rate` at a time iterates them:
        grouped by lower endpoint, groups in order of that VM's first
        appearance in the input, creation order within a group.  Seeded
        generators therefore keep the pair order (and so every
        order-dependent float sum and random draw) they always had.
        """
        us, vs, rates = delta_arrays(pairs)
        live = rates > 0  # adding zero creates nothing
        ids, seen, dense = _group(np.column_stack((us[live], vs[live])).ravel())
        lo = np.minimum(dense[0::2], dense[1::2])
        hi = np.maximum(dense[0::2], dense[1::2])
        _, first, pair_of = _group(lo * max(1, len(ids)) + hi)
        summed = np.bincount(pair_of, weights=rates[live])
        order = np.argsort(seen[lo[first]] * len(dense) + first)
        return cls.from_pair_arrays(
            ids[lo[first][order]], ids[hi[first][order]], summed[order]
        )

    @classmethod
    def from_pair_arrays(cls, us, vs, rates) -> "TrafficMatrix":
        """Bulk-build from canonical pair arrays: unique pairs, u < v,
        finite rate > 0, kept in the given order.

        The vectorized sibling of :meth:`from_pairs` for inputs that are
        already in :meth:`pair_arrays` form: one canonical sort builds
        the store.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        rates = np.asarray(rates, dtype=float)
        if not (us.shape == vs.shape == rates.shape) or us.ndim != 1:
            raise ValueError("us/vs/rates must be equal-length 1-d arrays")
        if not (us < vs).all():
            raise ValueError("pairs must be canonical: u < v for every pair")
        if not (rates > 0.0).all():
            raise ValueError("rates must be > 0 (zero pairs are absent)")
        check_rates(rates)
        ids, _, dense = _group(np.concatenate([us, vs]))
        store = TrafficSnapshot.canonical(
            ids, dense[: len(us)], dense[len(us):], rates.copy()
        )
        key = store._pair_key_sorted
        dup = key[1:][key[1:] == key[:-1]]
        if len(dup):
            raise ValueError(
                f"duplicate pairs for VM {int(ids[dup[0] // len(ids)])}; "
                "from_pair_arrays needs unique pairs (accumulate duplicates "
                "via from_pairs)"
            )
        store.version = 1
        matrix = cls()
        matrix._store = store
        return matrix

    def __len__(self) -> int:
        return self.n_pairs

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(pairs={self.n_pairs}, "
            f"vms={len(self.vms_with_traffic)}, total={self.total_rate():.3g} B/s)"
        )
