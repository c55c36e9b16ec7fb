"""Sparse symmetric pairwise traffic matrix.

λ(u, v) is the average rate (bytes per second, incoming plus outgoing)
exchanged between VMs u and v over the measurement window (paper §III).
The matrix is undirected/symmetric — the cost model only ever uses the
combined rate — and sparse, since DC measurement studies consistently show
most VM pairs never talk.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.util.validation import check_non_negative


class TrafficMatrix:
    """Pairwise VM-to-VM average traffic rates.

    Rates are stored once per unordered pair; ``peers_of(u)`` returns the
    paper's ``V_u`` in O(1) via an adjacency index.
    """

    def __init__(self) -> None:
        #: u -> {v: λ(u, v)}; ``None`` while a bulk-built matrix is still
        #: described by its pair arrays alone (see :attr:`_adj`).
        self._adjacency: Optional[Dict[int, Dict[int, float]]] = {}
        self._version = 0
        #: Canonical (us, vs, rates, version) cache for :meth:`pair_arrays`,
        #: seeded by the bulk constructor and dropped on the next mutation.
        self._pair_cache: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, int]
        ] = None

    @property
    def _adj(self) -> Dict[int, Dict[int, float]]:
        """The adjacency index, built on first use after a bulk build.

        :meth:`from_pair_arrays` keeps only its canonical pair arrays:
        the per-domain matrices of a sharded run are read through
        :meth:`pair_arrays` and never need a dict.  Every query and
        mutation below goes through here, so the index exists before
        anything reads or edits it; until then the pair cache is the
        whole matrix (nothing can bump the version without building the
        index first).
        """
        adj = self._adjacency
        if adj is None:
            us, vs, rates, _ = self._pair_cache
            adj = self._adjacency = _adjacency_of(us, vs, rates)
        return adj

    @property
    def version(self) -> int:
        """Counter bumped on every mutation.

        Derived caches (the fast engine's traffic snapshot) compare it to
        detect out-of-band matrix edits and resync instead of drifting;
        bulk operations bump it once.
        """
        return self._version

    # -- mutation ----------------------------------------------------------

    def set_rate(self, vm_u: int, vm_v: int, rate: float) -> None:
        """Set λ(u, v); a rate of exactly 0 removes the pair."""
        if vm_u == vm_v:
            raise ValueError(f"self-traffic is not modelled (VM {vm_u})")
        check_non_negative("rate", rate)
        adj = self._adj
        self._version += 1
        if rate == 0.0:
            adj.get(vm_u, {}).pop(vm_v, None)
            adj.get(vm_v, {}).pop(vm_u, None)
            if vm_u in adj and not adj[vm_u]:
                del adj[vm_u]
            if vm_v in adj and not adj[vm_v]:
                del adj[vm_v]
            return
        adj.setdefault(vm_u, {})[vm_v] = rate
        adj.setdefault(vm_v, {})[vm_u] = rate

    def add_rate(self, vm_u: int, vm_v: int, rate: float) -> None:
        """Accumulate onto λ(u, v)."""
        check_non_negative("rate", rate)
        self.set_rate(vm_u, vm_v, self.rate(vm_u, vm_v) + rate)

    def apply_delta(self, changed_pairs: Iterable[Tuple[int, int, float]]) -> int:
        """Overwrite λ for every ``(u, v, new_rate)`` triple in one batch.

        The epoch-transition form of :meth:`set_rate`: new rates are
        absolute (a rate of 0 removes the pair), validation runs before
        any write so a bad triple leaves the matrix untouched, and the
        version counter bumps once for the whole batch.  Returns the
        number of pairs written.  The loop is kept tight (direct adjacency
        writes) because drift processes push tens of thousands of pairs
        per epoch through it at paper scale.
        """
        triples = [(int(u), int(v), float(r)) for u, v, r in changed_pairs]
        for u, v, rate in triples:
            if u == v:
                raise ValueError(f"self-traffic is not modelled (VM {u})")
            if rate < 0 or rate != rate:
                raise ValueError(f"rate must be >= 0, got {rate}")
        adj = self._adj
        for u, v, rate in triples:
            if rate == 0.0:
                row = adj.get(u)
                if row is not None:
                    row.pop(v, None)
                    if not row:
                        del adj[u]
                row = adj.get(v)
                if row is not None:
                    row.pop(u, None)
                    if not row:
                        del adj[v]
            else:
                row = adj.get(u)
                if row is None:
                    row = adj[u] = {}
                row[v] = rate
                row = adj.get(v)
                if row is None:
                    row = adj[v] = {}
                row[u] = rate
        if triples:
            self._version += 1
        return len(triples)

    def scale(self, factor: float) -> "TrafficMatrix":
        """Return a new matrix with every rate multiplied by ``factor``.

        This is the paper's TM ×10 / ×50 load-stress scaling (§VI).
        """
        check_non_negative("factor", factor)
        scaled = TrafficMatrix()
        for u, v, rate in self.pairs():
            scaled.set_rate(u, v, rate * factor)
        return scaled

    # -- queries --------------------------------------------------------------

    def rate(self, vm_u: int, vm_v: int) -> float:
        """λ(u, v); zero when the pair does not communicate."""
        return self._adj.get(vm_u, {}).get(vm_v, 0.0)

    def peers_of(self, vm_u: int) -> FrozenSet[int]:
        """The paper's ``V_u``: every VM exchanging data with u."""
        return frozenset(self._adj.get(vm_u, ()))

    def peer_rates(self, vm_u: int) -> Mapping[int, float]:
        """Mapping peer → λ(u, peer); the local state S-CORE decides from."""
        return dict(self._adj.get(vm_u, {}))

    def degree(self, vm_u: int) -> int:
        """Number of communication peers of u."""
        return len(self._adj.get(vm_u, ()))

    def pairs(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate (u, v, rate) once per unordered pair, with u < v."""
        for u, neighbors in self._adj.items():
            for v, rate in neighbors.items():
                if u < v:
                    yield (u, v, rate)

    def pair_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All unordered pairs as flat arrays ``(u, v, rate)`` with u < v.

        The array view of :meth:`pairs`, assembled through C-speed
        iterators — what the fast-engine snapshot builds from at paper
        scale (~50k pairs) without a per-pair python loop.  Matrices
        built through :meth:`from_pair_arrays` return their (read-only)
        input arrays directly until the first mutation.
        """
        if self._pair_cache is not None:
            us, vs, rates, version = self._pair_cache
            if version == self._version:
                return us, vs, rates
            self._pair_cache = None

        from itertools import chain

        lens = np.fromiter(
            (len(nbrs) for nbrs in self._adj.values()),
            dtype=np.int64,
            count=len(self._adj),
        )
        total = int(lens.sum())
        us = np.repeat(
            np.fromiter(self._adj.keys(), dtype=np.int64, count=len(self._adj)),
            lens,
        )
        vs = np.fromiter(
            chain.from_iterable(nbrs.keys() for nbrs in self._adj.values()),
            dtype=np.int64,
            count=total,
        )
        rates = np.fromiter(
            chain.from_iterable(nbrs.values() for nbrs in self._adj.values()),
            dtype=float,
            count=total,
        )
        keep = us < vs
        return us[keep], vs[keep], rates[keep]

    @property
    def n_pairs(self) -> int:
        """Number of communicating pairs."""
        if self._adjacency is None:
            return len(self._pair_cache[0])
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    @property
    def vms_with_traffic(self) -> FrozenSet[int]:
        """All VMs that appear in at least one communicating pair."""
        return frozenset(self._adj)

    def total_rate(self) -> float:
        """Sum of λ over all pairs (bytes/second)."""
        return sum(rate for _, _, rate in self.pairs())

    def vm_load(self, vm_u: int) -> float:
        """Aggregate rate between u and all its peers."""
        return sum(self._adj.get(vm_u, {}).values())

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
        """Deep copy."""
        clone = TrafficMatrix()
        clone._adjacency = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return clone

    @classmethod
    def from_pairs(cls, pairs: Iterator[Tuple[int, int, float]]) -> "TrafficMatrix":
        """Build a matrix from (u, v, rate) triples (rates accumulate)."""
        matrix = cls()
        for u, v, rate in pairs:
            matrix.add_rate(u, v, rate)
        return matrix

    @classmethod
    def from_pair_arrays(cls, us, vs, rates) -> "TrafficMatrix":
        """Bulk-build from canonical pair arrays: unique pairs, u < v,
        rate > 0.

        The vectorized sibling of :meth:`from_pairs` for inputs that are
        already in :meth:`pair_arrays` form.  The matrix keeps (copies of)
        the arrays and builds its adjacency index only when something
        first needs it (:attr:`_adj`): the sharded coordinator builds
        hundreds of per-domain matrices from slices of the global pair
        arrays, and their engines read them through :meth:`pair_arrays`.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        rates = np.asarray(rates, dtype=float)
        if not (us.shape == vs.shape == rates.shape) or us.ndim != 1:
            raise ValueError("us/vs/rates must be equal-length 1-d arrays")
        matrix = cls()
        if us.size == 0:
            return matrix
        if not (us < vs).all():
            raise ValueError("pairs must be canonical: u < v for every pair")
        if not (rates > 0.0).all():
            raise ValueError("rates must be > 0 (zero pairs are absent)")
        order = np.lexsort((vs, us))
        su, sv = us[order], vs[order]
        dup = (su[1:] == su[:-1]) & (sv[1:] == sv[:-1])
        if dup.any():
            raise ValueError(
                f"duplicate pairs for VM {int(su[1:][dup][0])}; "
                "from_pair_arrays needs unique pairs (accumulate "
                "duplicates via from_pairs)"
            )
        matrix._adjacency = None
        matrix._version = 1
        cached = (us.copy(), vs.copy(), rates.copy())
        for array in cached:
            array.setflags(write=False)
        matrix._pair_cache = (*cached, matrix._version)
        return matrix

    def __len__(self) -> int:
        return self.n_pairs

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(pairs={self.n_pairs}, "
            f"vms={len(self._adj)}, total={self.total_rate():.3g} B/s)"
        )


def _adjacency_of(us, vs, rates) -> Dict[int, Dict[int, float]]:
    """The adjacency index of canonical, unique pair arrays: one grouped
    numpy pass plus a C-speed ``dict(zip(...))`` per source VM."""
    src = np.concatenate([us, vs])
    dst = np.concatenate([vs, us])
    both = np.concatenate([rates, rates])
    order = np.argsort(src, kind="stable")
    src, dst, both = src[order], dst[order], both[order]
    uniq, starts = np.unique(src, return_index=True)
    bounds = np.append(starts, src.size).tolist()
    dst_list = dst.tolist()
    rate_list = both.tolist()
    return {
        u: dict(zip(dst_list[bounds[i] : bounds[i + 1]],
                    rate_list[bounds[i] : bounds[i + 1]]))
        for i, u in enumerate(uniq.tolist())
    }
