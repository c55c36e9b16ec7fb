"""Array-backed fast cost engine for paper-scale runs.

The naive :class:`repro.core.cost.CostModel` walks python dicts per VM pair
and is the readable reference implementation of Eq. (1)/(2) and Lemma 3.
At the paper's published scale (2560 hosts, ~35k VMs, ~50k communicating
pairs) the per-pair python loops dominate the run, so this module provides
the same quantities computed over flat numpy arrays:

* :class:`~repro.traffic.matrix.TrafficSnapshot` is the traffic
  matrix's own columnar store — one (peer index, rate) CSR slice per VM
  plus undirected pair arrays over a dense VM index — which the engine
  binds to rather than copies.
* :func:`pair_levels` computes communication levels for whole pair arrays
  from the topology's cached per-host rack/pod id vectors
  (:meth:`repro.topology.base.Topology.host_rack_ids`).
* :class:`FastCostEngine` binds that store to one allocation, whose
  columns it reads for placement and capacity usage, and maintains
  incremental caches — network-wide cost (Eq. 2) and per-host §V-C
  egress — updated in O(peers of the moving VM) per migration, exactly
  as Lemma 3 promises.  Its batched candidate scorer
  (:meth:`~FastCostEngine.candidate_batch`, ``candidate_feasible``,
  ``best_candidates``) scores the candidates of every Theorem 1 decision
  a token round makes.

The engine answers the cost-model queries the scheduler reads
(``total_cost``, ``topology``) with the signatures ``CostModel`` gives
them, and HLF's round end reads every VM's highest communication level
from it at once (:meth:`FastCostEngine.highest_levels`); the
differential test suite asserts the two agree to within 1e-9 on
randomized scenarios.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.core.cost import LinkWeights
from repro.topology.base import Topology
from repro.traffic.matrix import TrafficMatrix, TrafficSnapshot, delta_arrays


def pair_levels(
    hosts_u: np.ndarray,
    hosts_v: np.ndarray,
    rack_of: np.ndarray,
    pod_of: np.ndarray,
) -> np.ndarray:
    """Element-wise communication levels between two host arrays.

    Exploits the containment hierarchy (same host ⊆ same rack ⊆ same
    pod): ``level = 3 − pod_eq − rack_eq − host_eq`` — three compares and
    two adds, no masked writes.
    """
    level = (pod_of[hosts_u] == pod_of[hosts_v]).astype(np.int64)
    level += rack_of[hosts_u] == rack_of[hosts_v]
    level += hosts_u == hosts_v
    np.subtract(3, level, out=level)
    return level


def path_weight_table(weights: LinkWeights, max_level: int) -> np.ndarray:
    """``2 * Σ_{i<=l} c_i`` per level as a lookup array (level 0 included)."""
    return np.array(
        [weights.path_weight(level) for level in range(max_level + 1)]
    )


def _weighted_bincount(
    index: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """``np.bincount`` with weights, float64 whatever the input: numpy
    returns int64 for an empty input even with weights, and the engine
    shifts these arrays in place by float terms."""
    return np.bincount(index, weights=weights, minlength=minlength).astype(
        float, copy=False
    )


def assignment_cost(
    assignment: np.ndarray,
    snapshot: TrafficSnapshot,
    rack_of: np.ndarray,
    pod_of: np.ndarray,
    path_weight: np.ndarray,
) -> float:
    """Eq. (2) cost of a dense host-assignment vector, fully vectorized.

    Shared by the GA baseline (thousands of candidate evaluations) and the
    engine's full recomputation path.
    """
    hu = assignment[snapshot.pair_u]
    hv = assignment[snapshot.pair_v]
    levels = pair_levels(hu, hv, rack_of, pod_of)
    return float(np.dot(snapshot.pair_rate, path_weight[levels]))


#: Hosts one candidate row can cover: its ``cover`` is one uint64 bitmask.
BLOCK_WIDTH = 64
_ONE = np.uint64(1)
_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def low_masks(counts: np.ndarray) -> np.ndarray:
    """uint64 words whose ``counts`` lowest bits are set (clipped to 0..64)."""
    k = np.clip(counts, 0, BLOCK_WIDTH).astype(np.uint64)
    out = (_ONE << np.minimum(k, np.uint64(BLOCK_WIDTH - 1))) - _ONE
    out[k == BLOCK_WIDTH] = _ALL
    return out


def lowest_offsets(bits: np.ndarray) -> np.ndarray:
    """Offset of each word's lowest set bit (64 for an empty word)."""
    return np.bitwise_count((bits & (~bits + _ONE)) - _ONE).astype(np.int64)


def peer_rank_order(
    owner: np.ndarray, level: np.ndarray, rate: np.ndarray
) -> np.ndarray:
    """§V-B5 peer ranking of directed edges: owner ascending, level
    descending, rate descending, then the given (CSR, peer id) order.

    The permutation of ``np.lexsort((-rate, owner * 4 + (3 - level)))``,
    from one stable argsort: each rate is replaced by its dense rank
    (equal rates, equal ranks) and folded into one int64 key with the
    owner and the level, so ties keep the input order as lexsort does.
    """
    neg = -rate
    by_rate = np.argsort(neg)
    ranked = neg[by_rate]
    step = np.zeros(len(rate), dtype=np.int64)
    step[1:] = ranked[1:] != ranked[:-1]
    dense = np.empty(len(rate), dtype=np.int64)
    dense[by_rate] = np.cumsum(step)
    n_ranks = int(dense.max()) + 1 if len(rate) else 1
    key = (owner * 4 + (3 - level)) * n_ranks + dense
    return np.argsort(key, kind="stable")


def _run_ids(change: np.ndarray) -> np.ndarray:
    """Run id of each element, given whether each element after the
    first starts a new run."""
    ids = np.zeros(len(change) + 1, dtype=np.int64)
    np.cumsum(change, out=ids[1:])
    return ids


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


class _BlockGeometry(NamedTuple):
    """Per-host lookups of the block-row layout (derived from the
    topology; rebuilt after unpickling, never stored)."""

    #: Offset of each host inside its BLOCK_WIDTH-host chunk of its rack.
    shift: np.ndarray
    #: Chunk id of each host, and the first host of every chunk.
    chunk_of: np.ndarray
    chunk_starts: np.ndarray
    #: Chunks per rack (1 unless a rack holds more than BLOCK_WIDTH hosts).
    chunks_per_rack: int
    #: Rack id → position in (pod, rack) order, and pod of each rack.
    rack_rank: np.ndarray
    pod_of_rack: np.ndarray
    #: Host id → position in (pod, rack, host) order: sorting hosts by it
    #: makes every rack one run and every pod one run of racks.
    host_rank: np.ndarray


class _OwnerEdges(NamedTuple):
    """The directed edges of a batch's owners, grouped by owner position
    (each owner's in CSR order, ascending peer id)."""

    #: Per owner: its source host and its number of peers.
    source: np.ndarray
    degree: np.ndarray
    #: Per edge: owner position, the peer's host, λ, and the level
    #: between the owner's source and the peer's host.
    owner: np.ndarray
    peer_host: np.ndarray
    rate: np.ndarray
    level: np.ndarray

    def subset(self, keep: np.ndarray) -> "_OwnerEdges":
        """The edges of the owners ``keep`` (a mask over owners) marks,
        owners renumbered in order."""
        at = keep[self.owner]
        renumber = np.cumsum(keep) - 1
        return _OwnerEdges(
            self.source[keep],
            self.degree[keep],
            renumber[self.owner[at]],
            self.peer_host[at],
            self.rate[at],
            self.level[at],
        )


class CandidateBatch:
    """Flat-array snapshot of one batched §V-B5 candidate evaluation.

    Rows are grouped by owner position — ``ptr[i]:ptr[i+1]`` is the
    segment of the ``i``-th requested VM.  A row stands for one or more
    candidate hosts of one rack that share one Lemma 3 delta: ``cover``
    is a bitmask over the hosts ``host + j`` (``j < BLOCK_WIDTH``), and
    covered host ``host + j`` is probed at rank ``rank + j``.  Ranks
    order an owner's candidates in the naive probing order (peers by
    level desc / rate desc / id asc, each contributing its own server
    then the rest of its rack, first occurrence wins); they are distinct
    within an owner, and lower probes first.  ``delta`` holds the move's
    Lemma 3 gain and ``onto_rate`` the owner's traffic onto the host
    (what the §V-C probe subtracts twice), the same for every covered
    host, both computed against the engine state the batch was built
    from.  Two kinds of row come out of :meth:`FastCostEngine.candidate_batch`:

    * a *host row* (``cover == 1``) per (owner, peer host): a server that
      holds some of the owner's peers;
    * a *block row* per (owner, peer rack): every other candidate host of
      the rack — its hosts in probing order, cut at the candidate cap,
      minus the source and every host with its own row.  Under Lemma 3
      a move's delta depends on the target only through its level to
      each peer, so these hosts all score the block's delta, and
      ``onto_rate`` is 0.

    A segment lists its host rows first (ascending host), then its block
    rows (probing order); nothing reads the row order within a segment,
    only the ranks.  Only owners that can gain hold rows: an owner none
    of whose candidates has a delta > 0 has an empty segment (Theorem 1
    can never move it, whatever the masks say), so every owner of a
    fresh batch has a row with delta > 0 or none.  ``bounded`` counts
    the owners whose segment the gain bound emptied before any ranking
    (0 on a batch derived by :meth:`select` or :meth:`with_rows`).

    A batch is *not* live: it goes stale for an owner as soon as one of
    the owner's peers migrates (deltas and the candidate set itself depend
    on peer placement).  Capacity/bandwidth feasibility is deliberately
    NOT part of the batch — it changes with every applied wave — and is
    resolved from the allocation's live usage via
    :meth:`FastCostEngine.candidate_feasible`.
    """

    __slots__ = (
        "vms",
        "source",
        "degree",
        "total_rate",
        "ptr",
        "_owner",
        "host",
        "cover",
        "rank",
        "delta",
        "onto_rate",
        "bounded",
    )

    #: The per-row columns, in the order the constructor takes them.
    ROW_FIELDS = ("host", "cover", "rank", "delta", "onto_rate")

    def __init__(
        self,
        vms: np.ndarray,
        source: np.ndarray,
        degree: np.ndarray,
        total_rate: np.ndarray,
        ptr: np.ndarray,
        owner: Optional[np.ndarray],
        host: np.ndarray,
        cover: np.ndarray,
        rank: np.ndarray,
        delta: np.ndarray,
        onto_rate: np.ndarray,
        bounded: int = 0,
    ) -> None:
        self.vms = vms
        self.source = source
        self.degree = degree
        self.total_rate = total_rate
        self.ptr = ptr
        self._owner = owner
        self.host = host
        self.cover = cover
        self.rank = rank
        self.delta = delta
        self.onto_rate = onto_rate
        self.bounded = bounded

    @property
    def owner(self) -> np.ndarray:
        """Owner position of every row (materialized on demand)."""
        if self._owner is None:
            self._owner = np.repeat(
                np.arange(self.n_owners, dtype=np.int64),
                self.ptr[1:] - self.ptr[:-1],
            )
        return self._owner

    @property
    def n_owners(self) -> int:
        """Number of VMs the batch was built for."""
        return len(self.vms)

    @property
    def n_rows(self) -> int:
        """Number of rows (host rows plus block rows)."""
        return len(self.host)

    def select(
        self, positions: np.ndarray, with_onto: bool = True
    ) -> "CandidateBatch":
        """Sub-batch restricted to the given owner positions (reindexed).

        ``positions`` must be strictly ascending, so the kept rows are one
        boolean compress of the row arrays.  Row data is copied, not
        recomputed — the round engine uses this to carry deferred owners'
        candidates across waves.  Pass ``with_onto=False`` to skip the
        §V-C landing-rate column (callers running without a bandwidth
        threshold never read it).
        """
        positions = np.asarray(positions, dtype=np.int64)
        counts = self.ptr[positions + 1] - self.ptr[positions]
        new_ptr = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_ptr[1:])
        kept = np.zeros(self.n_owners, dtype=bool)
        kept[positions] = True
        rows = np.repeat(kept, np.diff(self.ptr))
        return CandidateBatch(
            vms=self.vms[positions],
            source=self.source[positions],
            degree=self.degree[positions],
            total_rate=self.total_rate[positions],
            ptr=new_ptr,
            owner=None,
            host=self.host[rows],
            cover=self.cover[rows],
            rank=self.rank[rows],
            delta=self.delta[rows],
            onto_rate=self.onto_rate[rows]
            if with_onto
            else np.empty(0),
        )

    def with_rows(self, owners: np.ndarray, **columns) -> "CandidateBatch":
        """This batch plus new rows that join the end of their owners'
        segments — ``owners`` (owner positions, ascending) and one array
        per row column — less its emptied rows (``cover == 0``)."""
        counts = np.diff(self.ptr) + np.bincount(
            owners, minlength=self.n_owners
        )
        at = self.ptr[owners + 1]
        rows = {
            name: np.insert(getattr(self, name), at, columns[name])
            if len(getattr(self, name)) == self.n_rows
            else getattr(self, name)  # a skipped onto column
            for name in self.ROW_FIELDS
        }
        ptr = np.zeros(self.n_owners + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        empty = np.flatnonzero(rows["cover"] == 0)
        if empty.size:
            counts -= np.bincount(
                np.searchsorted(ptr, empty, side="right") - 1,
                minlength=self.n_owners,
            )
            np.cumsum(counts, out=ptr[1:])
            rows = {
                name: np.delete(column, empty)
                if len(column) == len(rows["cover"])
                else column
                for name, column in rows.items()
            }
        return CandidateBatch(
            vms=self.vms,
            source=self.source,
            degree=self.degree,
            total_rate=self.total_rate,
            ptr=ptr,
            owner=None,
            **rows,
        )


class FastCostEngine:
    """Incremental, vectorized cost engine bound to one allocation.

    The engine binds the traffic matrix's columnar store
    (:meth:`TrafficMatrix.bind <repro.traffic.matrix.TrafficMatrix.bind>`)
    over a dense VM index that *is* the allocation's ascending id column,
    so dense index ``i`` is column position ``i``: placement and per-host
    usage are read from the allocation's columns and λ from the matrix's
    store on every use, never copied.  What the engine owns is the Eq. 2
    total and §V-C egress caches.  Its mutators make the bound objects
    write themselves — :meth:`apply_moves` for moves (the round engine's
    waves; a drain move or a
    :meth:`repro.core.migration.MigrationEngine.decide_and_migrate`
    decision is a wave of one), :meth:`add_vms`/:meth:`remove_vms` for
    tenant churn,
    :meth:`apply_traffic_delta` for λ — and shift the caches.  A writer
    that bypasses them leaves the caches stale until :meth:`rebuild`; the
    engine tracks the bound objects' version counters (:attr:`in_sync`),
    so the scheduler pays a full rebuild only then, and multi-epoch
    dynamic runs whose transitions go through the delta APIs never
    cold-rebuild.
    """

    def __init__(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        weights: Optional[LinkWeights] = None,
    ) -> None:
        topology: Topology = allocation.topology
        self._weights = weights or LinkWeights.paper()
        if self._weights.max_level < topology.max_level:
            raise ValueError(
                f"weights cover {self._weights.max_level} levels but topology "
                f"has {topology.max_level}"
            )
        self._topology = topology
        self._allocation = allocation
        self._traffic = traffic
        self._path_weight = path_weight_table(self._weights, topology.max_level)
        self._rack_of = topology.host_rack_ids()
        self._pod_of = topology.host_pod_ids()
        # Both paper topologies attach a contiguous host range to each rack
        # (the `Topology.hosts_in_rack` contract), which is what lets the
        # batched candidate generation enumerate rack mates arithmetically.
        self._hosts_per_rack = topology.n_hosts // topology.n_racks
        self.rebuild()

    #: Persistent per-owner round-score cache (lazy; see round_cache()).
    _round_cache = None
    #: Block-row lookups (lazy; see _geometry()).
    _block_geometry = None

    def __getstate__(self):
        # A pickle holds the binding, the Eq. 2 and egress caches and the
        # sync ledger; λ travels once, in the matrix.  Not the round
        # cache: every valid row equals a fresh candidate_batch, so a
        # restored engine re-scores on its first round without changing
        # the trajectory.  Nor the block geometry, which the topology
        # determines.  Capacity is read from the cluster at each use.
        state = self.__dict__.copy()
        state.pop("_round_cache", None)
        state.pop("_block_geometry", None)
        return state

    def _geometry(self) -> _BlockGeometry:
        """The block-row lookups of the bound topology (built once)."""
        if self._block_geometry is None:
            per = self._hosts_per_rack
            n_racks = self._topology.n_racks
            offset = np.arange(len(self._rack_of)) - self._rack_of * per
            shift = offset % BLOCK_WIDTH
            chunks_per_rack = -(-per // BLOCK_WIDTH)
            pod_of_rack = self._pod_of[np.arange(n_racks) * per]
            rack_rank = np.empty(n_racks, dtype=np.int64)
            rack_rank[np.argsort(pod_of_rack, kind="stable")] = np.arange(
                n_racks
            )
            self._block_geometry = _BlockGeometry(
                shift=shift.astype(np.uint64),
                chunk_of=self._rack_of * chunks_per_rack
                + offset // BLOCK_WIDTH,
                chunk_starts=np.flatnonzero(shift == 0),
                chunks_per_rack=chunks_per_rack,
                rack_rank=rack_rank,
                pod_of_rack=pod_of_rack,
                host_rank=rack_rank[self._rack_of] * per + offset,
            )
        return self._block_geometry

    # -- binding -----------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The topology levels are computed against."""
        return self._topology

    @property
    def weights(self) -> LinkWeights:
        """The link weights in effect."""
        return self._weights

    @property
    def allocation(self) -> Allocation:
        """The bound allocation."""
        return self._allocation

    @property
    def traffic(self) -> TrafficMatrix:
        """The bound traffic matrix."""
        return self._traffic

    @property
    def snapshot(self) -> TrafficSnapshot:
        """The bound matrix's columnar store (live; do not write)."""
        return self._traffic.store

    _snap = snapshot

    def _check_bound(
        self, allocation: Optional[Allocation], traffic: Optional[TrafficMatrix]
    ) -> None:
        if allocation is not None and allocation is not self._allocation:
            raise ValueError(
                "FastCostEngine is bound to a different allocation; "
                "build a new engine or use the naive CostModel"
            )
        if traffic is not None and traffic is not self._traffic:
            raise ValueError(
                "FastCostEngine is bound to a different traffic matrix; "
                "write new rates through apply_traffic_delta()"
            )

    def rebuild(self) -> None:
        """Rebind the store and re-derive every cache from it.

        This is the pinned reference path for epoch transitions: the
        delta APIs (:meth:`apply_traffic_delta`, :meth:`add_vms`,
        :meth:`remove_vms`) must leave the caches where a rebuild puts
        them, within float-summation reordering, which the delta and
        splice differential suites assert.  The store itself is re-indexed
        onto the allocation's id column only if some writer moved it off
        (a gather, no sort).
        """
        self._traffic.bind(self._allocation)
        self._adopt_population()
        self._recompute_cost_caches()
        self._mark_synced()
        self._flush_round_cache()

    # -- persistent round-score cache ----------------------------------------

    def round_cache(self, max_candidates: Optional[int]):
        """The engine's persistent per-owner round-score cache.

        Created on first use for the given candidate cap and kept alive
        across rounds, runs and epochs; every mutation that flows through
        the engine's update path invalidates exactly the owners whose
        dependency footprint it touched (see
        :class:`repro.core.roundcache.RoundScoreCache`).  Requesting a
        different ``max_candidates`` replaces the cache (candidate sets
        depend on the cap).
        """
        from repro.core.roundcache import RoundScoreCache

        if (
            self._round_cache is None
            or self._round_cache.max_candidates != max_candidates
        ):
            self._round_cache = RoundScoreCache(self, max_candidates)
        return self._round_cache

    def _invalidate_owners(self, dense_owners: np.ndarray) -> None:
        if self._round_cache is not None:
            self._round_cache.invalidate_owners(dense_owners)

    def _flush_round_cache(self) -> None:
        if self._round_cache is not None:
            self._round_cache.flush()

    def _movers_footprint(
        self, movers: np.ndarray, peers: np.ndarray
    ) -> np.ndarray:
        """Dense owners whose scored rows a batch of moves makes stale:
        the movers themselves plus ``peers``, every communication peer of
        a mover (repeats allowed: the cache clears a mask)."""
        return np.concatenate((movers, peers))

    @property
    def _host_of(self) -> np.ndarray:
        """Dense VM → host: the allocation's live host column."""
        return self._allocation.columns()[1]

    def _adopt_population(self) -> None:
        """Re-derive the uniform-VM flag (after a rebuild or a population
        splice)."""
        _ids, _host, ram, cpu = self._allocation.columns()
        # With a uniform VM population (every paper scenario), per-pair
        # capacity probes collapse to one per-host mask per wave.
        self._uniform_vm = bool(
            len(ram) and (ram == ram[0]).all() and (cpu == cpu[0]).all()
        )

    def _aligned(self) -> bool:
        """Whether the store's dense index is the allocation's column
        (always, while :attr:`in_sync`)."""
        return self._snap.vm_ids is self._allocation.columns()[0]

    def _write(self, mutate, *args):
        """Run one mutator of the bound allocation or store and credit
        exactly the version bumps it made, so a foreign write still shows
        in :attr:`in_sync`."""
        allocation, store = self._allocation, self._snap
        placed, traffic = allocation.version, store.version
        result = mutate(*args)
        self._alloc_version += allocation.version - placed
        self._traffic_version += store.version - traffic
        return result

    def _recompute_cost_caches(self) -> None:
        """The Eq. (2) total and §V-C egress, from the current snapshot +
        placement arrays in one vectorized pass."""
        snap = self._snap
        host_of = self._host_of
        n_hosts = len(self._rack_of)
        levels = pair_levels(
            host_of[snap.row], host_of[snap.peer], self._rack_of, self._pod_of
        )
        self._total = assignment_cost(
            host_of, snap, self._rack_of, self._pod_of, self._path_weight
        )
        # Per-host NIC egress (§V-C): every directed edge whose endpoints sit
        # on different hosts contributes its rate to the owner's host.
        crossing = levels > 0
        self._egress = _weighted_bincount(
            host_of[snap.row][crossing], snap.rate[crossing], n_hosts
        )

    # -- incremental epoch transitions (state deltas) ------------------------

    def _mark_synced(self) -> None:
        """Adopt the bound objects' current versions (full-resync paths only).

        Only :meth:`rebuild` may call this: it re-reads ground truth, so
        whatever mutations happened are now reflected.  Incremental ops
        instead credit exactly the bumps of the writes they make
        (:meth:`_write`) — a foreign out-of-band edit then leaves the
        counters mismatched and the next run pays the rebuild instead of
        silently trusting stale caches.
        """
        self._alloc_version = self._allocation.version
        self._traffic_version = self._traffic.version

    @property
    def in_sync(self) -> bool:
        """Whether the caches still describe the bound objects' live state.

        Compares the version counters recorded at the last rebuild or
        incremental update against the bound allocation and traffic
        matrix.  ``False`` means some writer bypassed the engine's update
        path (direct ``allocation.migrate_many``, a direct write to the bound
        matrix);
        the scheduler then falls back to a full :meth:`rebuild`.  Until
        it does, the Eq. 2 and egress caches are stale.
        """
        return (
            self._alloc_version == self._allocation.version
            and self._traffic_version == self._traffic.version
        )

    def apply_traffic_delta(self, changed_pairs) -> int:
        """Write one batch of λ changes into the bound store and shift
        every cost cache — the epoch-transition alternative to
        :meth:`rebuild`.

        ``changed_pairs`` is an iterable of ``(vm_u, vm_v, new_rate)``
        triples with *absolute* new rates (0 removes the pair), or a
        ``(us, vs, rates)`` tuple of flat arrays; a pair listed twice
        takes its last value.  The matrix's store splices the change in
        O(changed) (:meth:`TrafficSnapshot.write
        <repro.traffic.matrix.TrafficSnapshot.write>`), and the Eq. 2 and
        egress caches move by ``(new − old) · w[level]`` with old = 0 for
        an addition and new = 0 for a removal.  VM ids outside the
        allocation raise ``KeyError`` before any write (add the VMs first
        via :meth:`add_vms`).  Returns the number of pair changes applied.
        """
        us, vs, rates = delta_arrays(changed_pairs)
        aligned = self._aligned()
        n_applied, lo, hi, shift, touched = self._write(
            self._snap.write, us, vs, rates
        )
        if aligned and len(shift):
            host_of = self._host_of
            self._shift_costs(host_of[lo], host_of[hi], shift)
        # Only the endpoints' scored rows reference the changed rates (an
        # owner's Lemma 3 terms involve its own incident edges alone).
        self._invalidate_owners(touched)
        return n_applied

    def _shift_costs(
        self, host_lo: np.ndarray, host_hi: np.ndarray, delta: np.ndarray
    ) -> None:
        """Move the Eq. 2 and egress caches for pairs placed on
        ``(host_lo, host_hi)`` whose rates change by ``delta`` — a
        re-estimate, an addition (from 0) or a removal (to 0) alike.

        The placement is untouched, so every changed pair's level — and
        therefore its path weight — is fixed; the caches shift by
        ``(new − old) · w[level]`` terms only.
        """
        levels = pair_levels(host_lo, host_hi, self._rack_of, self._pod_of)
        contrib = delta * self._path_weight[levels]
        self._total += float(contrib.sum())
        crossing = levels > 0
        if np.any(crossing):
            shift = delta[crossing]
            self._egress += np.bincount(
                np.concatenate([host_lo[crossing], host_hi[crossing]]),
                weights=np.concatenate([shift, shift]),
                minlength=len(self._egress),
            )

    def add_vms(self, vms: Sequence, hosts: Sequence[int]) -> None:
        """Place one batch of arriving VMs: the allocation, then the index.

        :meth:`Allocation.add_vms` validates the whole batch (capacity,
        duplicate and already-placed ids) before any write, so a rejected
        batch leaves the allocation and the engine untouched.  The store's
        dense index is then spliced in place — new VMs join with no
        traffic, so the Eq. 2 and egress caches are unchanged (route
        subsequent rate changes through :meth:`apply_traffic_delta`).
        """
        vms = list(vms)
        aligned = self._aligned()
        self._write(self._allocation.add_vms, vms, hosts)
        if not vms:
            return
        ids = self._allocation.columns()[0]
        self._snap.insert_ids(
            np.sort(np.array([vm.vm_id for vm in vms], dtype=np.int64)),
            ids if aligned else None,
        )
        self._adopt_population()
        # Arrivals remap the dense VM index; owner-keyed caches flush.
        self._flush_round_cache()

    def remove_vms(self, vm_ids: Sequence[int]) -> None:
        """Remove one batch of departing VMs: the allocation, then the index.

        Unknown ids raise ``KeyError`` and duplicates ``ValueError``
        before any write.  Pairs still touching the VMs leave the store
        with their cache shifts, as a removal delta would
        (``SCOREScheduler.retire_vms`` zeroes the flows first, so usually
        none are left); the survivors' indices then slide down
        monotonically, which keeps every sorted order — nothing is
        re-sorted or recomputed.
        """
        ids = np.asarray(list(vm_ids), dtype=np.int64)
        if ids.size == 0:
            return
        snap = self._snap
        dense = self.dense_indices(ids)  # KeyError on unknowns
        aligned = self._aligned()
        stale = snap.pairs_touching(dense) if aligned else np.empty(0, np.int64)
        # Where the stale pairs sat, read before the departures leave.
        host_of = self._host_of
        stale_hosts = (host_of[snap.pair_u[stale]], host_of[snap.pair_v[stale]])
        stale_rates = snap.pair_rate[stale]
        self._write(self._allocation.remove_vms, ids)
        if stale.size:
            self._shift_costs(*stale_hosts, -stale_rates)
        self._write(
            snap.remove_ids, dense,
            self._allocation.columns()[0] if aligned else None,
        )
        self._adopt_population()
        # Departures remap the dense VM index; owner-keyed caches flush.
        self._flush_round_cache()

    # -- CostModel-compatible queries --------------------------------------

    def total_cost(
        self,
        allocation: Optional[Allocation] = None,
        traffic: Optional[TrafficMatrix] = None,
    ) -> float:
        """C_A, Eq. (2) — maintained incrementally across migrations."""
        self._check_bound(allocation, traffic)
        return self._total

    def recompute_total_cost(self) -> float:
        """Eq. (2) from scratch over the arrays (drift diagnostics)."""
        return assignment_cost(
            self._host_of,
            self._snap,
            self._rack_of,
            self._pod_of,
            self._path_weight,
        )

    def host_egress(self, host: int) -> float:
        """Aggregate NIC-crossing rate of ``host`` (bytes/second).

        Maintained incrementally across migrations; agrees with the naive
        per-VM egress walk of :mod:`repro.reference` to
        within float-summation reordering.
        """
        return float(self._egress[host])

    # -- wave-batched round API ---------------------------------------------

    def dense_indices(self, vm_ids: Sequence[int]) -> np.ndarray:
        """Dense snapshot indices of the given VM ids (KeyError on misses):
        one binary search over the sorted id vector."""
        pos, known = self._snap.dense(vm_ids)
        if not known.all():
            missing = int(np.asarray(vm_ids).reshape(-1)[np.argmin(known)])
            raise KeyError(
                f"VM {missing} is not in the engine's snapshot; call rebuild()"
            )
        return pos

    def highest_levels(self) -> np.ndarray:
        """Per-dense-VM highest communication level, one vectorized pass.

        Equals :meth:`repro.core.cost.CostModel.highest_level` for every
        VM (0 for peerless VMs); what HLF's round end writes into the
        token with :meth:`repro.core.token.Token.set_levels`.
        """
        snap = self._snap
        out = np.zeros(snap.n_vms, dtype=np.int64)
        if snap.row.size == 0:
            return out
        levels = pair_levels(
            self._host_of[snap.row],
            self._host_of[snap.peer],
            self._rack_of,
            self._pod_of,
        )
        starts = snap.ptr[:-1]
        nonempty = snap.ptr[1:] > starts
        if np.any(nonempty):
            out[nonempty] = np.maximum.reduceat(levels, starts[nonempty])
        return out

    def candidate_batch(
        self,
        dense_vms: np.ndarray,
        max_candidates: Optional[int] = None,
    ) -> CandidateBatch:
        """Batched §V-B5 candidate generation + Lemma 3 scoring.

        For every VM in ``dense_vms`` (dense snapshot indices), enumerates
        the candidate targets in the exact naive probing order of
        :func:`repro.reference.evaluate_naive` and scores every move
        without expanding candidates × peers: one host row per (owner,
        peer host) and one block row per (owner, peer rack), the layout
        :class:`CandidateBatch` describes.  Every sort and reduction
        runs over the owners' ~|E| edges.

        Only owners that can gain get rows: an owner none of whose
        (capped) candidates has a delta > 0 keeps its segment empty, so
        every owner of the batch has a row with delta > 0 or none.  Two
        filters decide it.  :meth:`_gain_bound` bounds every owner's best
        delta from above with one sort, and only the owners it cannot
        rule out are ranked and scored (:meth:`_score_owners`); there,
        each owner's best delta is known per (owner, peer rack) block and
        per (owner, peer host) fix-up before any row exists.  The result
        equals :meth:`_score_owners` over every owner row for row; a
        rowless owner's ``total_rate`` is the same sum taken in CSR order.
        """
        vms = np.asarray(dense_vms, dtype=np.int64)
        edges = self._owner_edges(vms)
        may_gain, total_rate = self._gain_bound(edges)
        if may_gain.all():
            return self._score_owners(vms, max_candidates, edges)
        ranked = np.flatnonzero(may_gain)
        scored = self._score_owners(
            vms[ranked], max_candidates, edges.subset(may_gain)
        )
        counts = np.zeros(len(vms), dtype=np.int64)
        counts[ranked] = np.diff(scored.ptr)
        ptr = np.zeros(len(vms) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        total_rate[ranked] = scored.total_rate
        return CandidateBatch(
            vms=vms,
            source=edges.source,
            degree=edges.degree,
            total_rate=total_rate,
            ptr=ptr,
            owner=ranked[scored.owner],
            host=scored.host,
            cover=scored.cover,
            rank=scored.rank,
            delta=scored.delta,
            onto_rate=scored.onto_rate,
            bounded=len(vms) - len(ranked),
        )

    def _owner_edges(self, vms: np.ndarray) -> _OwnerEdges:
        """The directed edges of the given dense owners."""
        snap = self._snap
        cum, owner, edge = snap.edges(vms)
        source = self._host_of[vms]
        peer_host = self._host_of[snap.peer[edge]]
        return _OwnerEdges(
            source,
            np.diff(cum),
            owner,
            peer_host,
            snap.rate[edge],
            pair_levels(source[owner], peer_host, self._rack_of, self._pod_of),
        )

    def _gain_bound(self, edges: _OwnerEdges) -> Tuple[np.ndarray, np.ndarray]:
        """``(may gain, total rate)`` of each owner: whether an upper
        bound on its best Lemma 3 delta clears the rounding slack, and
        its peers' summed rate (CSR order).

        The bound is taken over every host of the owner's peer racks but
        its source — a superset of its candidates at any cap.  Under
        Lemma 3 a host ``x`` scores ``local − post(x)`` with
        ``post(x) = w3·R + (w2−w3)·R_pod + (w1−w2)·R_rack + (w0−w1)·R_host``
        (:meth:`_score_owners`), and every weight difference is ≤ 0, so
        a peer-hosting server of a rack scores at least what its other
        hosts do (``R_host = 0``).  Each (owner, peer host) is therefore
        scored once, the source with ``R_host = 0`` to stand for its
        rack's other hosts.  One stable sort of the owner's edges by
        (owner, host in (pod, rack, host) order) makes hosts, racks and
        pods nested runs, and their peer-rate sums three ``bincount``s.

        The bound and the scorer sum the same nonnegative terms in
        different orders, so each may be off by rounding.  To first
        order one evaluation of ``local − post`` over ``d`` peers errs by
        at most ``(5d + 20)·u·W·R`` (``u`` the unit roundoff, ``W`` the
        largest path weight, ``R`` the owner's total rate): ``d·u·W·R``
        for each of the five sums and ``u·5W·R`` for each of the four
        operations joining them.  The slack is twice that for the two
        evaluations, doubled again for the higher-order terms:
        ``10·(d + 4)·ε·W·R`` with ``ε = 2u`` (float64 epsilon).  An owner
        the scorer would give a row with delta > 0 therefore always
        passes.
        """
        n = len(edges.degree)
        total_rate = _weighted_bincount(edges.owner, edges.rate, n)
        may_gain = np.zeros(n, dtype=bool)
        if not len(edges.owner):
            return may_gain, total_rate
        pw = self._path_weight
        local = _weighted_bincount(
            edges.owner, edges.rate * pw[edges.level], n
        )
        by_host = np.argsort(
            edges.owner * np.int64(len(self._rack_of))
            + self._geometry().host_rank[edges.peer_host],
            kind="stable",
        )
        e_owner = edges.owner[by_host]
        e_host = edges.peer_host[by_host]
        e_rate = edges.rate[by_host]
        new_owner = e_owner[1:] != e_owner[:-1]
        new_host = new_owner | (e_host[1:] != e_host[:-1])
        rack = self._rack_of[e_host]
        pod = self._pod_of[e_host]
        host_run = _run_ids(new_host)
        rack_run = _run_ids(new_owner | (rack[1:] != rack[:-1]))
        pod_run = _run_ids(new_owner | (pod[1:] != pod[:-1]))
        r_host = np.bincount(host_run, weights=e_rate)
        r_rack = np.bincount(rack_run, weights=e_rate)
        r_pod = np.bincount(pod_run, weights=e_rate)
        first = np.flatnonzero(np.concatenate(([True], new_host)))
        owner = e_owner[first]
        w3 = pw[3] if len(pw) > 3 else pw[-1]
        w2d, w1d, w0d = pw[2] - w3, pw[1] - pw[2], pw[0] - pw[1]
        # Per host run: local − post, with the far term per owner.
        gain = (local - w3 * total_rate)[owner] - (
            w2d * r_pod[pod_run[first]]
            + w1d * r_rack[rack_run[first]]
            + w0d * np.where(e_host[first] == edges.source[owner], 0.0, r_host)
        )
        slack = (
            10.0 * (edges.degree + 4) * np.finfo(float).eps
            * float(pw.max()) * total_rate
        )
        may_gain[owner[gain > -slack[owner]]] = True
        return may_gain, total_rate

    def _score_owners(
        self,
        vms: np.ndarray,
        max_candidates: Optional[int],
        edges: _OwnerEdges,
    ) -> CandidateBatch:
        """The exact scorer behind :meth:`candidate_batch`: ranks every
        given owner's peers (``edges``, from :meth:`_owner_edges`) and
        scores its rows, with no gain bound."""
        n = len(vms)
        n_hosts = len(self._rack_of)
        # Directed edges of the requested VMs, grouped by owner position.
        source, deg, owner_e, peer_host, rate, before = edges
        total_e = len(owner_e)
        if total_e == 0:
            return CandidateBatch(
                vms=vms,
                source=source,
                degree=deg,
                total_rate=np.zeros(n),
                ptr=np.zeros(n + 1, dtype=np.int64),
                owner=np.empty(0, dtype=np.int64),
                host=np.empty(0, dtype=np.int32),
                cover=np.empty(0, dtype=np.uint64),
                rank=np.empty(0, dtype=np.int32),
                delta=np.empty(0),
                onto_rate=np.empty(0),
            )
        # §V-B5 peer ranking: level desc, rate desc, VM id asc (CSR slices
        # are ascending by peer id).
        order = peer_rank_order(owner_e, before, rate)
        owner_e = owner_e[order]
        peer_host = peer_host[order]
        rate = rate[order]
        before = before[order]
        total_rate = np.bincount(owner_e, weights=rate, minlength=n)
        # Eq. 1 restricted to this VM's peers, at the current placement —
        # the Lemma 3 delta of a move is this minus the post-move sum.
        local_cost = np.bincount(
            owner_e, weights=rate * self._path_weight[before], minlength=n
        )

        # Candidate *blocks*: each ranked peer contributes its own server
        # then its whole (contiguous) rack, so §V-B5's per-host dedup
        # collapses to rack granularity — a later peer in an already-
        # probed rack adds nothing (its server already sits inside the
        # earlier block).  One block per (owner, earliest-ranked peer
        # rack), in probing order.  Keys order (owner, pod, rack), so
        # every (owner, pod) is one run of the same sort.
        geo = self._geometry()
        per = self._hosts_per_rack
        rack_e = self._rack_of[peer_host]
        key = owner_e * np.int64(len(geo.rack_rank)) + geo.rack_rank[rack_e]
        korder = np.argsort(key, kind="stable")
        ks = key[korder]
        kfirst = np.ones(total_e, dtype=bool)
        kfirst[1:] = ks[1:] != ks[:-1]
        lead_key = korder[kfirst]  # leader edge per block, key order
        bperm = np.argsort(lead_key)  # key order -> probing order
        leaders = lead_key[bperm]
        m = len(leaders)
        inv_b = np.empty(m, dtype=np.int64)
        inv_b[bperm] = np.arange(m, dtype=np.int64)
        block_key_of_edge = np.empty(total_e, dtype=np.int64)
        block_key_of_edge[korder] = np.cumsum(kfirst) - 1
        block_of_edge = inv_b[block_key_of_edge]
        k_owner = owner_e[korder]
        k_pod = geo.pod_of_rack[rack_e[korder]]
        pfirst = np.ones(total_e, dtype=bool)
        pfirst[1:] = (k_owner[1:] != k_owner[:-1]) | (k_pod[1:] != k_pod[:-1])
        pod_group_of_edge = np.empty(total_e, dtype=np.int64)
        pod_group_of_edge[korder] = np.cumsum(pfirst) - 1

        b_owner = owner_e[leaders]
        b_phost = peer_host[leaders]
        b_rack_base = rack_e[leaders] * per
        b_src = source[b_owner]
        src_in_rack = (b_src >= b_rack_base) & (b_src < b_rack_base + per)
        has_front = b_phost != b_src
        # A block probes its peer's server, then its rack ascending less
        # that server and the owner's source host.  Offsets are taken
        # inside the owner's segment: the prune below drops whole owners,
        # so they still hold after it.
        block_len = per - src_in_rack.astype(np.int64)
        block_start = np.cumsum(block_len) - block_len
        new_owner = np.ones(m, dtype=bool)
        new_owner[1:] = b_owner[1:] != b_owner[:-1]
        first_block = np.maximum.accumulate(
            np.where(new_owner, np.arange(m, dtype=np.int64), 0)
        )
        block_pos_in_seg = block_start - block_start[first_block]
        # Probing rank of the block's peer server; its other hosts follow
        # at 1 + their offset in the rack.
        block_rank = (np.arange(m, dtype=np.int64) - first_block) * (per + 1)

        # Lemma 3 deltas without expanding candidates × peers: the post-
        # move sum decomposes over the level hierarchy,
        #   Σ_p λ_p·w[l(x, p)] = w3·R_total + (w2−w3)·R_pod(pod_x)
        #                      + (w1−w2)·R_rack(rack_x) + (w0−w1)·R_host(x),
        # where R_* are the owner's peer-rate aggregates per pod/rack/host,
        # each summed over its edges in rank order.  Every host of a block
        # shares its pod and rack, so the first three terms are one
        # *block* base; the R_host term is zero except on peer-hosting
        # servers, scored per (owner, peer host) below with the full
        # left-to-right four-term chain.
        pw = self._path_weight
        w3 = pw[3] if len(pw) > 3 else pw[-1]
        w2d, w1d, w0d = pw[2] - w3, pw[1] - pw[2], pw[0] - pw[1]
        r_rack = np.bincount(block_of_edge, weights=rate, minlength=m)
        r_pod = np.bincount(pod_group_of_edge, weights=rate)
        base = (
            w3 * total_rate[b_owner]
            + w2d * r_pod[pod_group_of_edge[leaders]]
            + w1d * r_rack
        )
        # Every host of a block that hosts no peer scores this.
        block_delta = local_cost[b_owner] - base

        # (owner, peer host) fix-ups: locate each peer-hosting host inside
        # its block arithmetically and sum co-hosted peers' rates with a
        # sorted-key reduction.
        hkey = owner_e * np.int64(n_hosts) + peer_host
        horder = np.argsort(hkey, kind="stable")
        hk = hkey[horder]
        hfirst = np.ones(len(hk), dtype=bool)
        hfirst[1:] = hk[1:] != hk[:-1]
        onto_fix = np.add.reduceat(rate[horder], np.flatnonzero(hfirst))
        rep = horder[hfirst]  # earliest-rank edge per (owner, host)
        rb = block_of_edge[rep]
        ph = peer_host[rep]
        bph = b_phost[rb]
        bsrc = b_src[rb]
        front = ph == bph
        pos = (
            has_front[rb].astype(np.int64)
            + (ph - b_rack_base[rb])
            - (bph < ph)
            - (src_in_rack[rb] & (bsrc < ph) & (bsrc != bph))
        )
        pos[front] = 0
        fix_pos = block_pos_in_seg[rb] + pos
        fix_owner = owner_e[rep]
        fix_delta = local_cost[fix_owner] - (base[rb] + w0d * onto_fix)
        # Hosts on the owner's source host don't exist, nor hosts past the
        # cap; a block enters the bound only if one of its hosts survives.
        fix_live = ph != bsrc
        block_live = block_len > 0
        if max_candidates:
            fix_live &= fix_pos < max_candidates
            block_live &= block_pos_in_seg < max_candidates

        # The prune.  A fix-up only lowers its block's post-move sum
        # (w0 < w1), so a block whose surviving hosts are all fix-ups
        # scores no more than they do: an owner has a candidate with
        # delta > 0 iff a live block base or a live fix-up is > 0, and
        # only those owners get rows.
        gaining = np.zeros(n, dtype=bool)
        gaining[b_owner[block_live & (block_delta > 0)]] = True
        gaining[fix_owner[fix_live & (fix_delta > 0)]] = True

        # Host rows: the live fix-ups of gaining owners (hkey order, so
        # owner-major and ascending host).
        live = fix_live & gaining[fix_owner]
        h_owner = fix_owner[live]
        h_host = ph[live]
        h_block = rb[live]
        h_rank = block_rank[h_block] + np.where(
            front[live], 0, 1 + h_host - b_rack_base[h_block]
        )

        # Block rows: per gaining owner's block, one per BLOCK_WIDTH-host
        # chunk of its rack, covering the listed hosts that survive the
        # cap minus the source and every peer host (each has a host row
        # or is cut).
        kept = np.flatnonzero(gaining[b_owner])
        k = len(kept)
        k_base = b_rack_base[kept]
        k_src_off = b_src[kept] - k_base
        k_sir = src_in_rack[kept]
        if max_candidates:
            # The first `end` offsets hold the non-front hosts the cap
            # keeps: the slots left after the block's front, pushed past
            # the unlisted offsets (the front's and the source's) below.
            end = max_candidates - block_pos_in_seg[kept] - has_front[kept]
            front_off = b_phost[kept] - k_base
            src_off = np.where(k_sir & has_front[kept], k_src_off, per)
            skip_lo = np.minimum(front_off, src_off)
            skip_hi = np.maximum(front_off, src_off)
            end = end + (skip_lo < end)
            end = end + (skip_hi < end)
        else:
            end = np.full(k, per, dtype=np.int64)
        cpr = geo.chunks_per_rack
        chunk = np.tile(np.arange(cpr, dtype=np.int64), k)
        of_kept = np.repeat(np.arange(k, dtype=np.int64), cpr)
        chunk_lo = chunk * BLOCK_WIDTH
        cover = low_masks(np.minimum(end[of_kept], per) - chunk_lo)
        sir = np.flatnonzero(k_sir)
        cover[sir * cpr + k_src_off[sir] // BLOCK_WIDTH] &= ~(
            _ONE << (k_src_off[sir] % BLOCK_WIDTH).astype(np.uint64)
        )
        kept_of_block = np.full(m, -1, dtype=np.int64)
        kept_of_block[kept] = np.arange(k, dtype=np.int64)
        fk = kept_of_block[rb]
        peer_in_kept = fk >= 0
        f_off = (ph - b_rack_base[rb])[peer_in_kept]
        np.bitwise_and.at(
            cover,
            fk[peer_in_kept] * cpr + f_off // BLOCK_WIDTH,
            ~(_ONE << (f_off % BLOCK_WIDTH).astype(np.uint64)),
        )
        nz = np.flatnonzero(cover)
        c_block = kept[of_kept[nz]]
        c_owner = b_owner[c_block]

        # Layout: each owner's host rows, then its block rows.
        nh = np.bincount(h_owner, minlength=n)
        nc = np.bincount(c_owner, minlength=n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(nh + nc, out=ptr[1:])
        h_at = (
            ptr[h_owner] + np.arange(len(h_owner))
            - (np.cumsum(nh) - nh)[h_owner]
        )
        c_at = (
            ptr[c_owner] + nh[c_owner] + np.arange(len(c_owner))
            - (np.cumsum(nc) - nc)[c_owner]
        )
        n_rows = int(ptr[-1])
        row_owner = np.empty(n_rows, dtype=np.int64)
        row_owner[h_at] = h_owner
        row_owner[c_at] = c_owner
        host = np.empty(n_rows, dtype=np.int32)
        host[h_at] = h_host
        host[c_at] = b_rack_base[c_block] + chunk_lo[nz]
        row_cover = np.empty(n_rows, dtype=np.uint64)
        row_cover[h_at] = _ONE
        row_cover[c_at] = cover[nz]
        rank = np.empty(n_rows, dtype=np.int32)
        rank[h_at] = h_rank
        rank[c_at] = block_rank[c_block] + 1 + chunk_lo[nz]
        delta = np.empty(n_rows)
        delta[h_at] = fix_delta[live]
        delta[c_at] = block_delta[c_block]
        onto = np.zeros(n_rows)
        onto[h_at] = onto_fix[live]
        return CandidateBatch(
            vms=vms,
            source=source,
            degree=deg,
            total_rate=total_rate,
            ptr=ptr,
            owner=row_owner,
            host=host,
            cover=row_cover,
            rank=rank,
            delta=delta,
            onto_rate=onto,
        )

    def candidate_feasible(
        self,
        batch: CandidateBatch,
        bandwidth_threshold: Optional[float] = None,
    ) -> np.ndarray:
        """Each row's feasible target under capacity (§V-B5) and bandwidth
        (§V-C): its first covered host, in probing order, that passes the
        live (owner, host) test, or −1 when none does.

        Evaluated against the allocation's *current* usage, so the same
        batch can be re-resolved wave after wave.  Capacity is written as
        ``cap - used >= need``, the exact float expression of
        ``Allocation.can_host`` and of ``Allocation.migrate_many``'s
        validation; §V-C is the target's egress plus the owner's flows
        that would start crossing its NIC, minus those to VMs already
        there (which drop off it), against ``bandwidth_threshold`` of the
        line rate — the per-candidate §V-C probe of
        :func:`repro.reference.evaluate_naive`.  The host-only part of the
        test (free slot, and RAM/CPU when every VM is identical) is one
        bitmask per rack chunk; the owner's part is probed host by host
        from each row's lowest open bit.
        """
        bits = batch.cover & self.host_window(self.open_hosts())[batch.host]
        return self.first_passing(
            batch, np.arange(batch.n_rows), bits, bandwidth_threshold
        )[0]

    def open_hosts(self) -> np.ndarray:
        """Hosts that pass every owner's capacity test's host-only part:
        a free slot, plus RAM and CPU when every VM is identical."""
        uniform = self.uniform_host_ok()
        if uniform is not None:
            return uniform
        slot_cap = self._allocation.cluster.capacity_arrays()[0]
        return slot_cap - self._allocation.usage()[0] >= 1

    def host_window(self, flags: np.ndarray) -> np.ndarray:
        """Per host ``h``, the bits of ``flags`` over ``h`` and the hosts
        after it in its chunk (bit ``j`` is host ``h + j``): what a row
        whose window starts at ``h`` masks its cover with."""
        geo = self._geometry()
        words = np.bitwise_or.reduceat(
            flags.astype(np.uint64) << geo.shift, geo.chunk_starts
        )
        return words[geo.chunk_of] >> geo.shift

    def first_passing(
        self,
        batch: CandidateBatch,
        rows: np.ndarray,
        bits: np.ndarray,
        bandwidth_threshold: Optional[float],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The first host of ``bits`` (one word per given row, relative to
        the row's host) that passes the owner's own capacity and §V-C
        test, or −1.  A bounded forward scan: a failing host's bit is
        cleared from ``bits`` (in place) and the next one probed.
        Returns ``(hosts, bits)``."""
        hosts = np.full(len(rows), -1, dtype=np.int64)
        live = np.flatnonzero(bits)
        while live.size:
            word = bits[live]
            low = word & (~word + _ONE)
            at = rows[live]
            host = batch.host[at].astype(np.int64) + np.bitwise_count(
                low - _ONE
            )
            ok = self._owner_fits(batch, at, host, bandwidth_threshold)
            hosts[live[ok]] = host[ok]
            failed = live[~ok]
            bits[failed] ^= low[~ok]
            live = failed[bits[failed] != 0]
        return hosts, bits

    def _owner_fits(
        self,
        batch: CandidateBatch,
        rows: np.ndarray,
        hosts: np.ndarray,
        bandwidth_threshold: Optional[float],
    ) -> np.ndarray:
        """The owner-dependent part of the feasibility test of moving each
        given row's owner onto ``hosts``: RAM and CPU unless every VM is
        identical (the host-only part has them then), and the §V-C
        budget."""
        ok = np.ones(len(rows), dtype=bool)
        if not self._uniform_vm or bandwidth_threshold is not None:
            owner = batch.owner[rows]
            _slot, ram_cap, cpu_cap, nic_cap = (
                self._allocation.cluster.capacity_arrays()
            )
        if not self._uniform_vm:
            _ids, _host, ram, cpu = self._allocation.columns()
            _slot_used, ram_used, cpu_used = self._allocation.usage()
            dense = batch.vms[owner]
            ok &= (ram_cap[hosts] - ram_used[hosts] >= ram[dense]) & (
                cpu_cap[hosts] - cpu_used[hosts] >= cpu[dense]
            )
        if bandwidth_threshold is not None:
            onto = batch.onto_rate[rows]
            load_after = self._egress[hosts] + (
                batch.total_rate[owner] - onto
            ) - onto
            ok &= load_after <= bandwidth_threshold * nic_cap[hosts]
        return ok

    def uniform_host_ok(self) -> Optional[np.ndarray]:
        """Per-host capacity feasibility when every VM is identical.

        With a uniform VM population, slot/RAM/CPU feasibility of *any*
        move collapses to one boolean per host, which
        :meth:`candidate_feasible` folds into its per-chunk bitmasks.
        Returns ``None`` when the population is not uniform (or empty) —
        RAM and CPU are then probed per (owner, host).
        """
        if not self._uniform_vm:
            return None
        _ids, _host, ram, cpu = self._allocation.columns()
        slot_used, ram_used, cpu_used = self._allocation.usage()
        slot_cap, ram_cap, cpu_cap, _nic = (
            self._allocation.cluster.capacity_arrays()
        )
        return (
            (slot_cap - slot_used >= 1)
            & (ram_cap - ram_used >= ram[0])
            & (cpu_cap - cpu_used >= cpu[0])
        )

    def best_candidates(
        self,
        batch: CandidateBatch,
        targets: np.ndarray,
        return_ties: bool = False,
    ):
        """Per-owner best feasible candidate, first-in-probing-order ties.

        ``targets`` is :meth:`candidate_feasible`'s per-row resolution.
        Returns ``(choice, best_delta, any_feasible)``: ``choice[i]`` is a
        row index into the batch (its host is ``targets[choice[i]]``; −1
        when owner ``i`` has no feasible candidate), ``best_delta[i]`` the
        winning Lemma 3 delta (``-inf`` when none).  Mirrors the naive
        loop's tie-breaking: of the rows achieving the maximum, the one
        whose target probes first (lowest rank) wins.

        With ``return_ties`` a fourth element is appended: the row indices
        of every feasible row whose delta exactly equals its owner's best
        (in row order) — the exact-tie alternatives the wave planner may
        retarget to.
        """
        n = batch.n_owners
        choice = np.full(n, -1, dtype=np.int64)
        best = np.full(n, -np.inf)
        any_feasible = np.zeros(n, dtype=bool)
        ties = np.empty(0, dtype=np.int64)
        if batch.n_rows == 0:
            return (
                (choice, best, any_feasible, ties)
                if return_ties
                else (choice, best, any_feasible)
            )
        feasible = targets >= 0
        masked = np.where(feasible, batch.delta, -np.inf)
        starts = batch.ptr[:-1]
        nonempty = batch.ptr[1:] > starts
        seg_max = np.maximum.reduceat(masked, starts[nonempty])
        seg_len = (batch.ptr[1:] - starts)[nonempty]
        # Exactly-best feasible rows; an owner has one iff it has any
        # feasible candidate at all, and its lowest-rank one IS the naive
        # first-max choice.
        hit = feasible & (masked == np.repeat(seg_max, seg_len))
        ties = np.flatnonzero(hit)
        tied_owner = batch.owner[ties]
        first = np.ones(len(ties), dtype=bool)
        first[1:] = tied_owner[1:] != tied_owner[:-1]
        tied_rank = batch.rank[ties] + (targets[ties] - batch.host[ties])
        group = np.flatnonzero(first)
        lowest = np.minimum.reduceat(tied_rank, group)
        wins = tied_rank == np.repeat(
            lowest, np.diff(np.append(group, len(ties)))
        )
        choice[tied_owner[wins]] = ties[wins]
        any_feasible[tied_owner[first]] = True
        best[nonempty] = seg_max
        if return_ties:
            return choice, best, any_feasible, ties
        return choice, best, any_feasible

    def gaining(
        self, batch: CandidateBatch, positions: np.ndarray
    ) -> np.ndarray:
        """Whether each given owner of ``batch`` has a candidate that gains.

        The gain-first reason rule reads this: an owner with peers but no
        gaining candidate is ``no_gain`` whatever the masks say.  A row
        gains when its exact per-peer delta (:meth:`exact_deltas`, at any
        covered host — they all share it) is > 0; only rows the batch
        scores > 0 are re-checked, so a move whose true gain is zero
        (peers split evenly between the source and the target) does not
        count on the aggregated score's rounding noise.
        """
        positions = np.asarray(positions, dtype=np.int64)
        rows, seg_ptr = segment_rows(batch.ptr, positions)
        at = np.repeat(np.arange(len(positions)), np.diff(seg_ptr))
        hot = batch.delta[rows] > 0
        rows, at = rows[hot], at[hot]
        exact = self.exact_deltas(
            batch.vms[positions[at]],
            batch.host[rows] + lowest_offsets(batch.cover[rows]),
        )
        out = np.zeros(len(positions), dtype=bool)
        out[at[exact > 0]] = True
        return out

    def exact_deltas(
        self, dense_vms: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Per-peer Lemma 3 deltas of the given moves (read-only).

        The candidate batch scores with the aggregated level-hierarchy
        formula, which can differ from the naive per-peer sum in the last
        ulp; Theorem 1's strict inequality is decided on THIS value (the
        same sum :meth:`apply_moves` applies), so a move whose true delta
        is exactly zero can never slip through on rounding noise.
        """
        return self._move_terms(
            np.asarray(dense_vms, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
        )[-1]

    def _move_terms(self, movers: np.ndarray, targets: np.ndarray):
        """Per-edge terms of moving ``movers`` onto ``targets``:
        ``(owner, peer, rates, level before, level after, per-move
        deltas)``."""
        snap = self._snap
        _cum, owner, edge = snap.edges(movers)
        host_of = self._host_of
        peers = snap.peer[edge]
        peer_host = host_of[peers]
        rates = snap.rate[edge]
        before = pair_levels(
            host_of[movers][owner], peer_host, self._rack_of, self._pod_of
        )
        after = pair_levels(targets[owner], peer_host, self._rack_of, self._pod_of)
        contrib = rates * (self._path_weight[before] - self._path_weight[after])
        return owner, peers, rates, before, after, _weighted_bincount(
            owner, contrib, len(movers)
        )

    def apply_moves(
        self, dense_vms: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Apply one interference-free wave of moves: allocation and caches.

        Requires the wave contract of the round engine's planner
        (``repro.core.rounds.BatchedRoundEngine._plan_wave``) —
        pairwise-disjoint source/target hosts and no mover being another
        mover's communication peer — under which every move's Lemma 3
        terms are independent and the wave equals applying the moves one
        by one in any order; a single move (a drain move, a per-hold
        decision) is a wave of one.  A move onto the mover's current host
        is dropped, as ``Allocation.migrate_many`` drops it: no write, no
        invalidation, delta 0.  The sources and Lemma 3 terms are taken
        first; then ``Allocation.migrate_many`` moves the VMs, validating
        the whole wave before any write, so a :class:`CapacityError`
        leaves the allocation and the engine untouched.  Returns the
        per-move applied deltas; the round cache has dropped the movers'
        and their peers' scored rows (:meth:`_movers_footprint`).
        """
        movers = np.asarray(dense_vms, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        sources = self._host_of[movers]
        stays = sources == targets
        if stays.any():
            deltas = np.zeros(len(movers))
            moves = ~stays
            deltas[moves] = self.apply_moves(movers[moves], targets[moves])
            return deltas
        n_moves = len(movers)
        owner, peers, rates, before, after, deltas = self._move_terms(
            movers, targets
        )
        total_e = len(owner)
        if total_e:
            colocated_src = _weighted_bincount(owner, rates * (before == 0), n_moves)
            colocated_tgt = _weighted_bincount(owner, rates * (after == 0), n_moves)
            move_rate = _weighted_bincount(owner, rates, n_moves)
        self._write(
            self._allocation.migrate_many,
            np.column_stack((self._snap.vm_ids[movers], targets)),
        )
        if total_e:
            self._total -= float(deltas.sum())
            # Egress (§V-C): disjoint sources/targets make the per-host
            # adjustments independent, so indexed writes are safe.
            self._egress[sources] += colocated_src - (move_rate - colocated_src)
            self._egress[targets] += (move_rate - colocated_tgt) - colocated_tgt
        if n_moves:
            self._invalidate_owners(self._movers_footprint(movers, peers))
        return deltas

    def __repr__(self) -> str:
        return (
            f"FastCostEngine(vms={self._snap.n_vms}, "
            f"pairs={self._snap.n_pairs}, hosts={len(self._rack_of)})"
        )

