"""Array-backed fast cost engine for paper-scale runs.

The naive :class:`repro.core.cost.CostModel` walks python dicts per VM pair
and is the readable reference implementation of Eq. (1)/(2) and Lemma 3.
At the paper's published scale (2560 hosts, ~35k VMs, ~50k communicating
pairs) the per-pair python loops dominate the run, so this module provides
the same quantities computed over flat numpy arrays:

* :class:`TrafficSnapshot` freezes a :class:`~repro.traffic.matrix.TrafficMatrix`
  into CSR-style arrays — one (peer index, rate) slice per VM plus
  undirected pair arrays — over a dense VM index.
* :func:`pair_levels` computes communication levels for whole pair arrays
  from the topology's cached per-host rack/pod id vectors
  (:meth:`repro.topology.base.Topology.host_rack_ids`).
* :class:`FastCostEngine` binds a snapshot to one allocation and maintains
  incremental caches — per-VM cost (Eq. 1), network-wide cost (Eq. 2) and
  per-host capacity usage — updated in O(peers of the moving VM) per
  migration, exactly as Lemma 3 promises.

The engine exposes the same query signatures as ``CostModel`` for the
methods shared with it (``total_cost``, ``vm_cost``, ``highest_level``,
``migration_delta``), so scheduler policies and tests can use either
implementation interchangeably; the differential test suite asserts the
two agree to within 1e-9 on randomized scenarios.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel, LinkWeights
from repro.topology.base import Topology
from repro.traffic.matrix import TrafficMatrix


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


def _weighted_bincount(
    index: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """``np.bincount`` with weights, float64 whatever the input: numpy
    returns int64 for an empty input even with weights, and the engine
    shifts these arrays in place by float terms."""
    return np.bincount(index, weights=weights, minlength=minlength).astype(
        float, copy=False
    )


def _row_pointers(row: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers (``n + 1`` int64 offsets) of an ascending row array."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return ptr


class TrafficSnapshot:
    """An array view of a traffic matrix over a dense VM index.

    Snapshots mutate only through the owning engine's delta APIs
    (`FastCostEngine.apply_traffic_delta`/`add_vms`/`remove_vms`); every
    other consumer treats them as frozen.

    ``vm_ids`` fixes the index space (ascending VM id order, so a dense
    index is a binary search away); the CSR triplet (``ptr``, ``peer``,
    ``rate``) stores each VM's peers — peers appear in ascending VM-id
    order within a slice, matching the sort order the naive candidate
    ranking uses for ties.  ``pair_u/pair_v/pair_rate`` hold every
    unordered pair once (u < v in dense indices), in no particular order:
    a fresh build lists them as the matrix does, a delta-patched snapshot
    appends arrivals at the end, and readers rank or look up by value.
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
    )

    def __init__(
        self,
        vm_ids: np.ndarray,
        ptr: np.ndarray,
        peer: np.ndarray,
        rate: np.ndarray,
        row: np.ndarray,
        pair_u: np.ndarray,
        pair_v: np.ndarray,
        pair_rate: np.ndarray,
    ) -> None:
        self.vm_ids = vm_ids
        self.ptr = ptr
        self.peer = peer
        self.rate = rate
        self.row = row
        self.pair_u = pair_u
        self.pair_v = pair_v
        self.pair_rate = pair_rate

    @classmethod
    def build(
        cls,
        traffic: TrafficMatrix,
        vm_ids: Sequence[int],
        strict: bool = False,
    ) -> "TrafficSnapshot":
        """Snapshot ``traffic`` over the given VM population.

        Pairs touching VMs outside ``vm_ids`` are skipped unless ``strict``
        is set, in which case they raise (the scheduler guarantees the
        traffic matrix only references placed VMs, so the engine builds in
        strict mode to catch drift).
        """
        ids = np.array(sorted(vm_ids), dtype=np.int64)
        us, vs, rates = traffic.pair_arrays()
        if len(ids) == 0:
            if strict and len(us):
                raise ValueError(
                    f"traffic references VM {us[0]} outside the "
                    f"snapshot population"
                )
            pair_u = pair_v = np.empty(0, dtype=np.int64)
            pair_rate = np.empty(0)
        else:
            # Dense indices by binary search over the (sorted, unique) id
            # vector; ids preserve order, so u < v carries over to iu < iv.
            iu = np.searchsorted(ids, us).clip(max=len(ids) - 1)
            iv = np.searchsorted(ids, vs).clip(max=len(ids) - 1)
            known = (ids[iu] == us) & (ids[iv] == vs)
            if strict and not known.all():
                bad = np.nonzero(~known)[0][0]
                missing = us[bad] if ids[iu[bad]] != us[bad] else vs[bad]
                raise ValueError(
                    f"traffic references VM {missing} outside the "
                    f"snapshot population"
                )
            pair_u = iu[known]
            pair_v = iv[known]
            pair_rate = rates[known]

        n = len(ids)
        # Directed edge list (each pair twice) -> CSR sorted by (owner, peer).
        # Preallocated at exactly 2·|pairs| capacity and filled in halves —
        # no concatenate temporaries, so peak memory stays proportional to
        # the final arrays even at 1M-VM scale.
        m = len(pair_rate)
        row = np.empty(2 * m, dtype=np.int64)
        col = np.empty(2 * m, dtype=np.int64)
        val = np.empty(2 * m, dtype=np.float64)
        row[:m], row[m:] = pair_u, pair_v
        col[:m], col[m:] = pair_v, pair_u
        val[:m], val[m:] = pair_rate, pair_rate
        order = np.lexsort((col, row))
        row, col, val = row[order], col[order], val[order]
        return cls(
            vm_ids=ids,
            ptr=_row_pointers(row, n),
            peer=col,
            rate=val,
            row=row,
            pair_u=pair_u,
            pair_v=pair_v,
            pair_rate=pair_rate,
        )

    @property
    def n_vms(self) -> int:
        """Size of the dense VM index."""
        return len(self.vm_ids)

    @property
    def n_pairs(self) -> int:
        """Number of communicating (unordered) pairs captured."""
        return len(self.pair_rate)

    def peers_slice(self, dense_vm: int) -> Tuple[np.ndarray, np.ndarray]:
        """(peer dense indices, rates) of one VM, ascending by peer id."""
        lo, hi = self.ptr[dense_vm], self.ptr[dense_vm + 1]
        return self.peer[lo:hi], self.rate[lo:hi]

    def vm_loads(self) -> np.ndarray:
        """Aggregate rate of every VM (aligned with ``vm_ids``), one pass.

        ``bincount`` accumulates each VM's rates left to right in CSR
        order — ascending peer id — so the sums are bit-identical for
        any two snapshots of the same matrix, however each was reached
        (delta-patched live, unpickled, or freshly built).  Event
        selection ranks VMs on these values and must pick the same VMs
        on a recovered service as on the uninterrupted one.
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


# -- population-matrix helpers (the batched GA engine) -----------------------
#
# The GA baseline evaluates, breeds and repairs a whole population of
# host-assignment vectors per generation.  These helpers operate on the
# population as one ``(pop, n_vms)`` integer matrix so a full generation is
# numpy end-to-end: no per-individual python loop anywhere on the hot path.

#: Row-chunk budget (elements of a (rows, n_pairs) temp) for population
#: scoring/repair; bounds peak memory at paper scale (~128 MB per temp).
_POPULATION_CHUNK_ELEMS = 16_000_000


def _row_chunks(n_rows: int, row_width: int) -> Tuple[range, int]:
    """(start offsets, chunk size) splitting rows so chunk × width is bounded."""
    rows = max(1, _POPULATION_CHUNK_ELEMS // max(1, row_width))
    return range(0, n_rows, rows), rows


def population_cost(
    assignments: np.ndarray,
    snapshot: TrafficSnapshot,
    rack_of: np.ndarray,
    pod_of: np.ndarray,
    path_weight: np.ndarray,
) -> np.ndarray:
    """Eq. (2) cost of every row of a ``(pop, n_vms)`` assignment matrix.

    Row ``i`` equals ``assignment_cost(assignments[i], ...)`` to within
    float-summation reordering (the differential suite pins 1e-9 relative).
    Evaluation is chunked over rows so the (rows, n_pairs) level temporaries
    stay bounded regardless of population size.
    """
    assignments = np.asarray(assignments)
    if assignments.ndim != 2:
        raise ValueError(
            f"assignments must be a (pop, n_vms) matrix, got shape "
            f"{assignments.shape}"
        )
    pop = assignments.shape[0]
    costs = np.empty(pop, dtype=float)
    if snapshot.n_pairs == 0:
        costs[:] = 0.0
        return costs
    # Narrow mirrors of the host/rack/pod vectors cut the gather bandwidth
    # of the hot loop.  Levels exploit the containment hierarchy (same host
    # ⊆ same rack ⊆ same pod): level = 3 − pod_eq − rack_eq − host_eq, so
    # the weight matrix is one gather from a reversed path-weight table
    # over cheap int8 sums instead of three boolean masked writes.
    narrow = (
        np.int16
        if len(rack_of) < 2**15 - 1 and int(pod_of.max(initial=0)) < 2**15 - 1
        else np.int32
    )
    rack_n = rack_of.astype(narrow)
    pod_n = pod_of.astype(narrow)
    weight_rev = path_weight[3::-1].copy()  # index by (3 - level)
    starts, rows = _row_chunks(pop, snapshot.n_pairs)
    for start in starts:
        block = assignments[start : start + rows]
        if narrow is np.int16 and block.dtype != np.int16:
            block = block.astype(np.int16)
        hu = block[:, snapshot.pair_u]
        hv = block[:, snapshot.pair_v]
        eq_sum = (pod_n[hu] == pod_n[hv]).view(np.int8)
        eq_sum = eq_sum + (rack_n[hu] == rack_n[hv]).view(np.int8)
        eq_sum += (hu == hv).view(np.int8)
        costs[start : start + rows] = weight_rev[eq_sum] @ snapshot.pair_rate
    return costs


def population_counts(assignments: np.ndarray, n_hosts: int) -> np.ndarray:
    """Per-row host occupancy: ``counts[i, h]`` VMs of row ``i`` on ``h``."""
    assignments = np.asarray(assignments)
    pop, n_vms = assignments.shape
    counts = np.empty((pop, n_hosts), dtype=np.int64)
    starts, rows = _row_chunks(pop, n_vms)
    for start in starts:
        block = assignments[start : start + rows].astype(np.int64, copy=False)
        n = block.shape[0]
        flat = block + (np.arange(n, dtype=np.int64) * n_hosts)[:, None]
        counts[start : start + n] = np.bincount(
            flat.ravel(), minlength=n * n_hosts
        ).reshape(n, n_hosts)
    return counts


def population_feasible(assignments: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per-row slot-capacity feasibility of a population matrix."""
    counts = population_counts(assignments, len(slots))
    return np.all(counts <= slots[None, :], axis=1)


def tournament_select(
    costs: np.ndarray, contenders: np.ndarray, worst: bool = False
) -> np.ndarray:
    """Winner index of each tournament row (lowest cost; ties → first).

    ``contenders`` is a ``(n, k)`` matrix of population indices; ``worst``
    flips the objective (the reverse tournaments replacement uses to pick
    losers).  Pure — callers draw the contender matrix from their RNG.
    """
    contenders = np.asarray(contenders)
    entry_costs = costs[contenders]
    pick = entry_costs.argmax(axis=1) if worst else entry_costs.argmin(axis=1)
    return contenders[np.arange(len(contenders)), pick]


def apply_swap_mutations(
    assignments: np.ndarray,
    rows: np.ndarray,
    swap_pairs: np.ndarray,
    n_swaps: np.ndarray,
) -> None:
    """Apply per-row VM swap mutations (§VI-A) to the matrix in place.

    ``swap_pairs`` is ``(len(rows), max_swaps, 2)`` VM indices and
    ``n_swaps`` how many leading swap slots each row uses.  Swapping the
    host assignments of two VMs permutes a row, so per-host occupancy —
    and therefore capacity feasibility — is invariant: mutated rows never
    need a repair pass.  The loop is over swap *slots* (a small constant),
    never over individuals.
    """
    rows = np.asarray(rows)
    for slot in range(swap_pairs.shape[1]):
        active = n_swaps > slot
        if not np.any(active):
            break
        r = rows[active]
        i = swap_pairs[active, slot, 0]
        j = swap_pairs[active, slot, 1]
        vi = assignments[r, i].copy()
        assignments[r, i] = assignments[r, j]
        assignments[r, j] = vi


def _run_ranks(keys: np.ndarray) -> np.ndarray:
    """0-based index of every entry within its run of equal ``keys``.

    ``keys`` must be run-grouped (equal values adjacent, e.g. sorted).
    Implemented as a forward max-accumulate of run-start positions —
    sequential passes only, no random gathers, which is what makes victim
    ranking cheap at millions of entries.
    """
    n = len(keys)
    idx = np.arange(n, dtype=np.int32)
    run_start = np.zeros(n, dtype=np.int32)
    if n > 1:
        np.multiply(keys[1:] != keys[:-1], idx[1:], out=run_start[1:])
        np.maximum.accumulate(run_start, out=run_start)
    return idx - run_start


def _group_starts(group_of: np.ndarray) -> np.ndarray:
    """First-host offsets of the contiguous groups in ``group_of``.

    Group ids must be consecutive integers starting at 0, each covering a
    contiguous host range (true of the rack and pod vectors of both paper
    topologies) — the repair stages index per-group aggregates by the raw
    id, so gapped id spaces would silently read the wrong group.
    """
    diffs = np.diff(group_of)
    if (
        len(group_of) == 0
        or group_of[0] != 0
        or np.any((diffs != 0) & (diffs != 1))
    ):
        raise ValueError(
            "population_repair requires contiguous host groups "
            "(consecutive rack/pod ids from 0 over the host index)"
        )
    return np.concatenate([[0], np.where(diffs > 0)[0] + 1])


def population_repair(
    assignments: np.ndarray,
    slots: np.ndarray,
    rack_of: np.ndarray,
    pod_of: np.ndarray,
) -> int:
    """Move VMs off over-capacity hosts, preferring rack- then pod-local
    free slots — the batched form of the GA's capacity-repair pass.

    Victims (the highest-indexed surplus VMs of every overfull host) are
    extracted once per row block, then placed in three vectorized stages of
    shrinking locality — same rack as the overfull host, same pod,
    anywhere — mirroring the per-individual repair's preference order.
    Within a stage, evictees fill their group's free slots in ascending
    host order.  Operates on the whole ``(pop, n_vms)`` matrix in place and
    returns the number of VMs moved.  Total slots must cover ``n_vms``
    (guaranteed whenever a feasible assignment exists), or the final stage
    raises.
    """
    assignments_full = np.asarray(assignments)
    n_hosts = len(slots)
    slots = np.asarray(slots, dtype=np.int64)
    group_maps = (
        np.asarray(rack_of, dtype=np.int64),
        np.asarray(pod_of, dtype=np.int64),
        np.zeros(n_hosts, dtype=np.int64),
    )
    group_starts = [_group_starts(g) for g in group_maps]
    moved_total = 0
    starts, chunk = _row_chunks(len(assignments_full), assignments_full.shape[1])
    for start in starts:
        moved_total += _repair_block(
            assignments_full[start : start + chunk],
            slots,
            group_maps,
            group_starts,
        )
    return moved_total


def _repair_block(
    block: np.ndarray,
    slots: np.ndarray,
    group_maps: Sequence[np.ndarray],
    group_starts: Sequence[np.ndarray],
) -> int:
    """Repair one row block: extract victims once, place in locality stages."""
    n_rows, _ = block.shape
    n_hosts = len(slots)
    counts = population_counts(block, n_hosts)
    over_host = counts > slots[None, :]
    if not np.any(over_host):
        return 0
    free = slots[None, :] - np.minimum(counts, slots[None, :])

    # Victims: on each overfull host, the highest-indexed VMs beyond the
    # slot limit.  Every occupant of an overfull host is encoded into one
    # sortable integer (row, host, vm); a single radix sort then groups
    # entries by (row, host) in ascending VM order, so in-group rank ranks
    # by VM index.
    on_over = over_host[np.arange(n_rows)[:, None], block]
    flat = np.flatnonzero(on_over)
    n_vms = block.shape[1]
    entry_rows = flat // n_vms
    entry_hosts = block.reshape(-1)[flat].astype(np.int64)
    key = (entry_rows * n_hosts + entry_hosts) * n_vms + (
        flat - entry_rows * n_vms
    )
    key.sort(kind="stable")
    group_key = key // n_vms
    rank = _run_ranks(group_key)
    # Thresholds per entry without decoding every entry's host: the host is
    # recoverable from the group key alone.
    victim = rank >= slots[group_key % n_hosts]
    victim_group = group_key[victim]
    vv = key[victim] - victim_group * n_vms
    vr, vh = np.divmod(victim_group, n_hosts)

    pending = np.ones(len(vr), dtype=bool)
    moved = 0
    for stage, (group_of, gstarts) in enumerate(zip(group_maps, group_starts)):
        is_final = stage == len(group_maps) - 1
        pr, ph, pv = vr[pending], vh[pending], vv[pending]
        if pr.size == 0:
            break

        # Rank pending victims within their (row, preference-group).  The
        # victim arrays are sorted by (row, host, vm) and group ids are
        # nondecreasing in the host index, so any pending subset is already
        # sorted by (row, group).
        pg = group_of[ph]
        vrank = _run_ranks(pr * n_hosts + pg)

        # Per-(row, group) free capacity; group ids are consecutive from 0.
        group_free = np.add.reduceat(free, gstarts, axis=1)
        satisfied = vrank < group_free[pr, pg]
        if is_final and not np.all(satisfied):
            raise ValueError(
                "repair impossible: total slots do not cover the population"
            )
        if not np.any(satisfied):
            continue

        # Targets: evictee with in-group rank k lands on the first host of
        # its group whose cumulative free capacity exceeds k.  One global
        # searchsorted over the per-row cumulative-free array made globally
        # monotone by per-row offsets.
        cum_free = np.cumsum(free, axis=1)
        stride = int(cum_free[:, -1].max()) + 1
        offsets = np.arange(n_rows, dtype=np.int64) * stride
        monotone = (cum_free + offsets[:, None]).ravel()
        sr = pr[satisfied]
        gstart_host = gstarts[pg[satisfied]]
        base = np.where(gstart_host > 0, cum_free[sr, gstart_host - 1], 0)
        targets_flat = np.searchsorted(
            monotone, offsets[sr] + base + vrank[satisfied] + 1, side="left"
        )
        target_hosts = targets_flat - sr * n_hosts
        block[sr, pv[satisfied]] = target_hosts.astype(block.dtype, copy=False)
        filled = np.bincount(
            sr * n_hosts + target_hosts, minlength=n_rows * n_hosts
        ).reshape(n_rows, n_hosts)
        free -= filled
        moved += int(satisfied.sum())
        pending_idx = np.nonzero(pending)[0]
        pending[pending_idx[satisfied]] = False
    return moved


#: Element budget for the (candidate x peer) expansion of one batched
#: delta pass; bounds peak memory of `FastCostEngine.candidate_batch`.
_CANDIDATE_CHUNK_ELEMS = 8_000_000


class TouchedSet(NamedTuple):
    """Compact dependency footprint of one engine state mutation.

    Returned by the engine's mutating batch ops and consumed by the
    persistent round cache (:mod:`repro.core.roundcache`):

    ``hosts``
        Hosts whose free slots / RAM / CPU / egress changed — candidate
        *feasibility* on these hosts must be re-probed, but scored Lemma 3
        rows stay valid (capacity never enters a delta).
    ``owners``
        Dense VM indices whose scored candidate rows went stale: the VMs
        that moved (source + probing order change), every communication
        peer of a mover (their Lemma 3 terms reference the mover's
        placement), and both endpoints of every λ change.
    ``structural``
        The dense VM index itself was remapped (arrivals/departures);
        owner-keyed caches must flush.
    """

    hosts: np.ndarray
    owners: np.ndarray
    structural: bool = False

    @classmethod
    def empty(cls, structural: bool = False) -> "TouchedSet":
        empty = np.empty(0, dtype=np.int64)
        return cls(hosts=empty, owners=empty.copy(), structural=structural)


def owner_host_rate_table(
    owners: np.ndarray, hosts: np.ndarray, rates: np.ndarray, n_hosts: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse per-(owner, host) rate sums as a sorted-key lookup table.

    The host-level aggregate of the Lemma 3 level-hierarchy decomposition:
    (owner, peer host) incidences are few (Σ degree), so a sort + binary
    search beats a dense (owners × hosts) scatter map by orders of
    magnitude in memory.  Query with :func:`owner_host_rate_lookup`.
    """
    key = owners * n_hosts + hosts
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    first = np.ones(len(key_sorted), dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    return key_sorted[first], np.add.reduceat(
        rates[order], np.flatnonzero(first)
    )


def owner_host_rate_lookup(
    keys: np.ndarray,
    sums: np.ndarray,
    owners: np.ndarray,
    hosts: np.ndarray,
    n_hosts: int,
) -> np.ndarray:
    """Rates of (owner, host) queries against an ``owner_host_rate_table``.

    Missing combinations answer 0.0 (the owner has no peer on that host).
    """
    query = owners * n_hosts + hosts
    slot = np.searchsorted(keys, query)
    slot[slot >= len(keys)] = 0
    return np.where(keys[slot] == query, sums[slot], 0.0)


class CandidateBatch:
    """Flat-array snapshot of one batched §V-B5 candidate evaluation.

    Rows ("pairs") are (owner, candidate host) combinations, grouped by
    owner position — ``ptr[i]:ptr[i+1]`` is the candidate slice of the
    ``i``-th requested VM — and ordered within a group by the naive probing
    rank (peers by level desc / rate desc / id asc, each contributing its
    own server then the rest of its rack, first occurrence wins).  ``delta``
    holds each move's Lemma 3 gain and ``onto_rate`` the owner's traffic
    onto the candidate host (what the §V-C probe subtracts twice), both
    computed against the engine state the batch was built from.

    A batch is *not* live: it goes stale for an owner as soon as one of
    the owner's peers migrates (deltas and the candidate set itself depend
    on peer placement).  Capacity/bandwidth feasibility is deliberately
    NOT part of the batch — it changes with every applied wave — and is
    recomputed from the engine's incremental mirrors via
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
        "delta",
        "onto_rate",
    )

    def __init__(
        self,
        vms: np.ndarray,
        source: np.ndarray,
        degree: np.ndarray,
        total_rate: np.ndarray,
        ptr: np.ndarray,
        owner: Optional[np.ndarray],
        host: np.ndarray,
        delta: np.ndarray,
        onto_rate: np.ndarray,
    ) -> None:
        self.vms = vms
        self.source = source
        self.degree = degree
        self.total_rate = total_rate
        self.ptr = ptr
        self._owner = owner
        self.host = host
        self.delta = delta
        self.onto_rate = onto_rate

    @property
    def owner(self) -> np.ndarray:
        """Owner position of every pair row (materialized on demand)."""
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
    def n_pairs(self) -> int:
        """Number of (owner, candidate host) rows."""
        return len(self.host)

    def select(
        self, positions: np.ndarray, with_onto: bool = True
    ) -> "CandidateBatch":
        """Sub-batch restricted to the given owner positions (reindexed).

        Row data is gathered, not recomputed — the round engine uses this
        to carry non-stale owners' candidates across waves.  Pass
        ``with_onto=False`` to skip the §V-C landing-rate column (callers
        running without a bandwidth threshold never read it).
        """
        positions = np.asarray(positions, dtype=np.int64)
        counts = self.ptr[positions + 1] - self.ptr[positions]
        new_ptr = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_ptr[1:])
        rows = np.repeat(
            self.ptr[positions] - new_ptr[:-1], counts
        ) + np.arange(int(counts.sum()))
        return CandidateBatch(
            vms=self.vms[positions],
            source=self.source[positions],
            degree=self.degree[positions],
            total_rate=self.total_rate[positions],
            ptr=new_ptr,
            owner=None,
            host=self.host[rows],
            delta=self.delta[rows],
            onto_rate=self.onto_rate[rows]
            if with_onto
            else np.empty(0),
        )

class FastCostEngine:
    """Incremental, vectorized cost engine bound to one allocation.

    The engine snapshots the traffic matrix and mirrors the allocation's
    VM → host mapping and per-host capacity usage into flat arrays.  All
    mutations must flow through the engine's update path —
    :meth:`apply_migration`/:meth:`apply_moves` for placement changes (the
    scheduler and :class:`repro.core.migration.MigrationEngine` do this),
    :meth:`apply_traffic_delta` for λ re-estimates and
    :meth:`add_vms`/:meth:`remove_vms` for tenant churn — or be followed
    by :meth:`rebuild`.  The engine tracks the bound objects' version
    counters (:attr:`in_sync`), so the scheduler only pays a full rebuild
    when some writer actually bypassed that path; multi-epoch dynamic
    runs whose transitions go through the delta APIs never cold-rebuild.
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
        self._slot_cap, self._ram_cap, self._cpu_cap, self._nic_cap = (
            allocation.cluster.capacity_arrays()
        )
        # Persistent per-owner round-score cache (lazy; see round_cache()).
        self._round_cache = None
        self.rebuild()

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
        """The bound traffic matrix (snapshotted at the last rebuild)."""
        return self._traffic

    @property
    def snapshot(self) -> TrafficSnapshot:
        """The current traffic snapshot (rebuilt on demand, not live)."""
        return self._snap

    def is_bound_to(self, allocation: Allocation, traffic: TrafficMatrix) -> bool:
        """Whether this engine's caches describe the given pair of objects."""
        return allocation is self._allocation and traffic is self._traffic

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
                "call update_traffic() first"
            )

    def update_traffic(self, traffic: TrafficMatrix) -> None:
        """Bind a new traffic matrix and rebuild the caches."""
        self._traffic = traffic
        self.rebuild()

    def rebuild(self) -> None:
        """Resnapshot traffic and resync every cache from the allocation.

        This is the pinned reference path for epoch transitions: the
        delta APIs (:meth:`apply_traffic_delta`, :meth:`add_vms`,
        :meth:`remove_vms`) must leave the engine in exactly the state a
        full rebuild would produce — the CSR arrays array-equal, the pair
        arrays equal as a set, the caches within float-summation
        reordering — which the delta and splice differential suites
        assert.  It is also the only place that sorts a whole snapshot.
        """
        self._snap = TrafficSnapshot.build(
            self._traffic,
            list(self._allocation.vm_ids()),
            strict=True,
        )
        self._sync_allocation_mirrors()
        self._index_pairs()
        self._recompute_cost_caches()
        self._mark_synced()
        if self._round_cache is not None:
            self._round_cache.flush()

    # -- persistent round-score cache ----------------------------------------

    #: Sentinel distinguishing "no cap requested" from "keep the current
    #: cache whatever its cap" in :meth:`round_cache`.
    _CACHE_CAP_UNSET = object()

    def round_cache(self, max_candidates=_CACHE_CAP_UNSET):
        """The engine's persistent per-owner round-score cache.

        Created on first use for the given candidate cap and kept alive
        across rounds, runs and epochs; every mutation that flows through
        the engine's update path invalidates exactly the owners whose
        dependency footprint it touched (see
        :class:`repro.core.roundcache.RoundScoreCache`).  Requesting a
        different ``max_candidates`` replaces the cache (candidate sets
        depend on the cap); omit the argument to read the current cache
        without risking that replacement (introspection, stats).
        """
        from repro.core.roundcache import RoundScoreCache

        if max_candidates is FastCostEngine._CACHE_CAP_UNSET:
            if self._round_cache is None:
                self._round_cache = RoundScoreCache(self, None)
            return self._round_cache
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

    def invalidate_round_decisions(self) -> None:
        """Drop the round cache's cross-round decision carry, if any.

        Call after out-of-band configuration changes that alter decision
        semantics without touching scored deltas (e.g. a §V-C bandwidth
        threshold flip): the cached scored rows stay valid, but any
        carried per-owner decision was made under the old rules and must
        be re-derived.
        """
        if self._round_cache is not None:
            self._round_cache.invalidate_decisions()

    def _movers_footprint(self, movers: np.ndarray) -> np.ndarray:
        """Dense owners whose scored rows a batch of moves makes stale:
        the movers themselves plus every communication peer of a mover."""
        snap = self._snap
        counts = (snap.ptr[movers + 1] - snap.ptr[movers]).astype(np.int64)
        ptr = np.zeros(len(movers) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        flat = np.repeat(snap.ptr[movers] - ptr[:-1], counts) + np.arange(
            int(ptr[-1])
        )
        candidates = np.concatenate((movers, snap.peer[flat]))
        # Sorted-unique either way; the dense bitmap only pays off when
        # the footprint is a sizable fraction of the snapshot.
        if len(candidates) * 8 < snap.n_vms:
            return np.unique(candidates)
        hit = np.zeros(snap.n_vms, dtype=bool)
        hit[candidates] = True
        return np.nonzero(hit)[0]

    def _sync_allocation_mirrors(self) -> None:
        """Re-extract the VM → host map and capacity usage mirrors."""
        snap = self._snap
        n = snap.n_vms
        self._host_of, ram, cpu = self._allocation.mapping_arrays(
            snap.vm_ids.tolist()
        )
        n_hosts = len(self._slot_cap)
        self._slot_used = np.bincount(self._host_of, minlength=n_hosts)
        self._vm_ram = ram
        self._vm_cpu = cpu
        # With a uniform VM population (every paper scenario), per-pair
        # capacity probes collapse to one per-host mask per wave.
        self._uniform_vm = bool(
            n > 0
            and (ram == ram[0]).all()
            and (cpu == cpu[0]).all()
        )
        self._ram_used = np.bincount(self._host_of, weights=ram, minlength=n_hosts)
        self._ram_used = self._ram_used.astype(np.int64)
        self._cpu_used = _weighted_bincount(self._host_of, cpu, n_hosts)

    def _index_pairs(self) -> None:
        """(Re)build the sorted-key lookup indexes over the pair arrays.

        ``_pair_key_sorted``/``_pair_sorted_order`` answer "where is pair
        (u, v)?" by binary search, and ``_csr_key`` does the same for the
        two directed CSR entries of a pair — what lets a traffic delta
        patch rates, and splice pairs in and out, in place instead of
        re-snapshotting.  Only :meth:`rebuild` sorts; every delta keeps
        the order and calls :meth:`_repack_keys` at most.
        """
        snap = self._snap
        key = snap.pair_u * snap.n_vms + snap.pair_v
        self._pair_sorted_order = np.argsort(key, kind="stable")
        self._repack_keys()

    def _remap_dense(self, old_to_new: np.ndarray) -> None:
        """Renumber every stored dense index through a monotone map
        (arrivals shift indices up, departures slide them down; call
        with ``vm_ids`` already updated).  Monotone means no order
        changes: one gather per array, then the keys are repacked."""
        snap = self._snap
        for name in ("row", "peer", "pair_u", "pair_v"):
            setattr(snap, name, old_to_new[getattr(snap, name)])
        self._repack_keys()

    def _repack_keys(self) -> None:
        """Recompute the packed keys under the current population size.

        Keys are packed as u·n + v.  A monotone remap of the dense index
        (arrivals, departures) changes ``n`` but no order, so this is all
        those ops owe the indexes.
        """
        snap = self._snap
        n = snap.n_vms
        order = self._pair_sorted_order
        self._pair_key_sorted = snap.pair_u[order] * n + snap.pair_v[order]
        # CSR entries are sorted by (row, peer), so this key is ascending.
        self._csr_key = snap.row * n + snap.peer

    def _recompute_cost_caches(self) -> None:
        """Per-VM Eq. (1) costs, the Eq. (2) total and §V-C egress, from
        the current snapshot + placement arrays in one vectorized pass."""
        snap = self._snap
        n = snap.n_vms
        n_hosts = len(self._slot_cap)
        levels = pair_levels(
            self._host_of[snap.row],
            self._host_of[snap.peer],
            self._rack_of,
            self._pod_of,
        )
        edge_cost = snap.rate * self._path_weight[levels]
        self._vm_cost = _weighted_bincount(snap.row, edge_cost, n)
        self._total = assignment_cost(
            self._host_of, snap, self._rack_of, self._pod_of, self._path_weight
        )
        # Per-host NIC egress (§V-C): every directed edge whose endpoints sit
        # on different hosts contributes its rate to the owner's host.
        crossing = levels > 0
        self._egress = _weighted_bincount(
            self._host_of[snap.row][crossing], snap.rate[crossing], n_hosts
        )

    # -- incremental epoch transitions (state deltas) ------------------------

    def _mark_synced(self) -> None:
        """Adopt the bound objects' current versions (full-resync paths only).

        Only :meth:`rebuild` may call this: it re-reads ground truth, so
        whatever mutations happened are now reflected.  Incremental ops
        instead advance the recorded versions by exactly the one bump
        their paired mutation causes (:meth:`_advance_sync`) — a foreign
        out-of-band edit then leaves the counters mismatched and the next
        run pays the rebuild instead of silently trusting stale caches.
        """
        self._alloc_version = self._allocation.version
        self._traffic_version = self._traffic.version

    def _advance_sync(self, allocation: bool = False, traffic: bool = False) -> None:
        """Credit one paired version bump to the engine's sync ledger."""
        if allocation:
            self._alloc_version += 1
        if traffic:
            self._traffic_version += 1

    @property
    def in_sync(self) -> bool:
        """Whether the caches still describe the bound objects' live state.

        Compares the version counters recorded at the last rebuild or
        incremental update against the bound allocation and traffic
        matrix.  ``False`` means some writer bypassed the engine's update
        path (direct ``allocation.migrate``, out-of-band ``set_rate``);
        the scheduler then falls back to a full :meth:`rebuild`.
        """
        return (
            self._alloc_version == self._allocation.version
            and self._traffic_version == self._traffic.version
        )

    def apply_traffic_delta(self, changed_pairs) -> int:
        """Patch the snapshot and every cost cache for one batch of λ
        changes — the epoch-transition alternative to :meth:`rebuild`.

        ``changed_pairs`` is an iterable of ``(vm_u, vm_v, new_rate)``
        triples with *absolute* new rates (0 removes the pair), or a
        ``(us, vs, rates)`` tuple of flat arrays; a pair listed twice
        takes its last value.  The bound :class:`TrafficMatrix` must
        receive the same delta (callers go through
        ``SCOREScheduler.apply_traffic_delta``, which patches both); the
        engine records the matrix's post-delta version so :attr:`in_sync`
        holds afterwards.

        Everything is patched in place in O(changed): rates of pairs
        already snapshotted are overwritten, vanished pairs are spliced
        out of and new pairs spliced into the sorted CSR and pair index
        at their binary-search positions, and the Eq. 1/2 and egress
        caches move by ``(new − old) · w[level]`` with old = 0 for an
        addition and new = 0 for a removal.  The CSR stays in the
        canonical (row, peer) order a fresh snapshot has; the pair
        arrays' order is free.  VM ids outside the snapshot population
        raise ``KeyError`` (add the VMs first via :meth:`add_vms`).
        Returns the number of pair changes applied.
        """
        us, vs, rates = self._parse_delta(changed_pairs)
        if us.size == 0:
            return 0
        snap = self._snap
        ids = snap.vm_ids
        if len(ids) == 0:
            raise KeyError("the engine's snapshot holds no VMs")
        iu = np.searchsorted(ids, us).clip(max=len(ids) - 1)
        iv = np.searchsorted(ids, vs).clip(max=len(ids) - 1)
        known = (ids[iu] == us) & (ids[iv] == vs)
        if not known.all():
            bad = np.nonzero(~known)[0][0]
            missing = us[bad] if ids[iu[bad]] != us[bad] else vs[bad]
            raise KeyError(
                f"VM {missing} is not in the engine's snapshot; "
                f"call add_vms() (or rebuild()) first"
            )
        lo = np.minimum(iu, iv)
        hi = np.maximum(iu, iv)
        n = snap.n_vms
        key = lo * n + hi
        # Dedup keeping the last occurrence per pair (keys end ascending).
        order = np.argsort(key, kind="stable")
        last = np.ones(len(order), dtype=bool)
        key_sorted = key[order]
        last[:-1] = key_sorted[1:] != key_sorted[:-1]
        sel = order[last]
        lo, hi, rates, key = lo[sel], hi[sel], rates[sel], key_sorted[last]
        n_applied = len(key)
        # Only the endpoints' scored rows reference the changed rates (an
        # owner's Lemma 3 terms involve its own incident edges alone);
        # other owners' CSR slices keep their content wherever a splice
        # moves them.
        touched = np.unique(np.concatenate([lo, hi]))

        table = self._pair_key_sorted
        if len(table):
            pos = np.searchsorted(table, key).clip(max=len(table) - 1)
            found = table[pos] == key
        else:
            pos = np.zeros(len(key), dtype=np.int64)
            found = np.zeros(len(key), dtype=bool)
        live = found | (rates > 0)  # zeroing an absent pair is a no-op
        if not live.all():
            lo, hi, rates, key = lo[live], hi[live], rates[live], key[live]
            pos, found = pos[live], found[live]
        if len(key):
            new = rates
            old = np.zeros(len(new))
            old[found] = snap.pair_rate[self._pair_sorted_order[pos[found]]]
            self._shift_costs(lo, hi, new - old)
            updated = found & (rates > 0)
            removed = found & (rates == 0)
            added = ~found
            if updated.any():
                u, v, rate = lo[updated], hi[updated], new[updated]
                snap.pair_rate[self._pair_sorted_order[pos[updated]]] = rate
                # Both directed CSR entries of each pair.
                snap.rate[np.searchsorted(self._csr_key, u * n + v)] = rate
                snap.rate[np.searchsorted(self._csr_key, v * n + u)] = rate
            if removed.any():
                self._drop_pairs(self._pair_sorted_order[pos[removed]])
            if added.any():
                self._insert_pairs(lo[added], hi[added], key[added], new[added])
            if removed.any() or added.any():
                snap.ptr = _row_pointers(snap.row, n)
        self._invalidate_owners(touched)
        self._advance_sync(traffic=True)
        return n_applied

    @staticmethod
    def _parse_delta(changed_pairs):
        """Normalize a traffic delta to (us, vs, rates) int64/float arrays."""
        if (
            isinstance(changed_pairs, tuple)
            and len(changed_pairs) == 3
            and isinstance(changed_pairs[0], np.ndarray)
        ):
            us = np.asarray(changed_pairs[0], dtype=np.int64)
            vs = np.asarray(changed_pairs[1], dtype=np.int64)
            rates = np.asarray(changed_pairs[2], dtype=float)
            if not (len(us) == len(vs) == len(rates)):
                raise ValueError("delta arrays must have equal length")
        else:
            triples = np.asarray(list(changed_pairs), dtype=float)
            if triples.size == 0:
                triples = triples.reshape(0, 3)
            if triples.ndim != 2 or triples.shape[1] != 3:
                raise ValueError(
                    "changed_pairs must be (vm_u, vm_v, rate) triples"
                )
            us = triples[:, 0].astype(np.int64)
            vs = triples[:, 1].astype(np.int64)
            rates = triples[:, 2]
        if np.any(us == vs):
            raise ValueError("self-traffic is not modelled")
        if np.any(rates < 0) or np.any(np.isnan(rates)):
            raise ValueError("rates must be >= 0")
        return us, vs, rates

    def _shift_costs(
        self, lo: np.ndarray, hi: np.ndarray, delta: np.ndarray
    ) -> None:
        """Move the Eq. 1/2 and egress caches for pairs ``(lo, hi)`` whose
        rates change by ``delta`` — a re-estimate, an addition (from 0)
        or a removal (to 0) alike.

        The placement is untouched, so every changed pair's level — and
        therefore its path weight — is fixed; the caches shift by
        ``(new − old) · w[level]`` terms only.
        """
        host_lo = self._host_of[lo]
        host_hi = self._host_of[hi]
        levels = pair_levels(host_lo, host_hi, self._rack_of, self._pod_of)
        contrib = delta * self._path_weight[levels]
        self._vm_cost += np.bincount(
            np.concatenate([lo, hi]),
            weights=np.concatenate([contrib, contrib]),
            minlength=len(self._vm_cost),
        )
        self._total += float(contrib.sum())
        crossing = levels > 0
        if np.any(crossing):
            shift = delta[crossing]
            self._egress += np.bincount(
                np.concatenate([host_lo[crossing], host_hi[crossing]]),
                weights=np.concatenate([shift, shift]),
                minlength=len(self._egress),
            )

    def _drop_pairs(self, pair_idx: np.ndarray) -> None:
        """Splice pairs (positions in the pair arrays) out of the CSR,
        the pair arrays and the sorted pair index.  Caches and ``ptr``
        are the caller's (:meth:`_shift_costs`, :func:`_row_pointers`)."""
        snap = self._snap
        n = snap.n_vms
        u = snap.pair_u[pair_idx].astype(np.int64)
        v = snap.pair_v[pair_idx].astype(np.int64)
        entries = np.searchsorted(
            self._csr_key, np.concatenate([u * n + v, v * n + u])
        )
        self._csr_key = np.delete(self._csr_key, entries)
        snap.row = np.delete(snap.row, entries)
        snap.peer = np.delete(snap.peer, entries)
        snap.rate = np.delete(snap.rate, entries)
        pos = np.searchsorted(self._pair_key_sorted, u * n + v)
        self._pair_key_sorted = np.delete(self._pair_key_sorted, pos)
        order = np.delete(self._pair_sorted_order, pos)
        # Surviving pairs slide down by the number of dropped pairs
        # stored before them.
        dropped = np.zeros(snap.n_pairs, dtype=np.int64)
        dropped[pair_idx] = 1
        self._pair_sorted_order = order - np.cumsum(dropped)[order]
        snap.pair_u = np.delete(snap.pair_u, pair_idx)
        snap.pair_v = np.delete(snap.pair_v, pair_idx)
        snap.pair_rate = np.delete(snap.pair_rate, pair_idx)

    def _insert_pairs(
        self, lo: np.ndarray, hi: np.ndarray, key: np.ndarray, rates: np.ndarray
    ) -> None:
        """Splice new pairs (dense ``lo < hi``, packed ``key`` ascending)
        into the CSR at their sorted positions, append them to the pair
        arrays and thread them into the sorted pair index.  Caches and
        ``ptr`` are the caller's, as for :meth:`_drop_pairs`."""
        snap = self._snap
        n = snap.n_vms
        at = np.searchsorted(self._pair_key_sorted, key)
        self._pair_key_sorted = np.insert(self._pair_key_sorted, at, key)
        self._pair_sorted_order = np.insert(
            self._pair_sorted_order, at, snap.n_pairs + np.arange(len(key))
        )
        snap.pair_u = np.insert(snap.pair_u, len(snap.pair_u), lo)
        snap.pair_v = np.insert(snap.pair_v, len(snap.pair_v), hi)
        snap.pair_rate = np.insert(snap.pair_rate, len(snap.pair_rate), rates)
        row = np.concatenate([lo, hi])
        peer = np.concatenate([hi, lo])
        entry_key = row * n + peer
        order = np.argsort(entry_key)
        entry_key = entry_key[order]
        at = np.searchsorted(self._csr_key, entry_key)
        self._csr_key = np.insert(self._csr_key, at, entry_key)
        snap.row = np.insert(snap.row, at, row[order])
        snap.peer = np.insert(snap.peer, at, peer[order])
        snap.rate = np.insert(snap.rate, at, np.concatenate([rates, rates])[order])

    def add_vms(self, vms: Sequence) -> TouchedSet:
        """Mirror one batch of VM arrivals already applied to the allocation.

        Call :meth:`Allocation.add_vms` first (the allocation enforces
        capacity); hosts are read back from it.  The dense VM index, CSR
        arrays and capacity mirrors are patched in place — new VMs join
        with no traffic, so Eq. 1/2 and egress caches are unchanged
        (route subsequent rate changes through :meth:`apply_traffic_delta`).
        """
        vms = list(vms)
        if not vms:
            return TouchedSet.empty()
        snap = self._snap
        add_ids = np.array([vm.vm_id for vm in vms], dtype=np.int64)
        order = np.argsort(add_ids, kind="stable")
        add_ids = add_ids[order]
        if np.any(add_ids[1:] == add_ids[:-1]):
            raise ValueError("duplicate VM IDs in the arrival batch")
        hosts = np.array(
            [self._allocation.server_of(int(v)) for v in add_ids],
            dtype=np.int64,
        )
        add_ram = np.array([vms[i].ram_mb for i in order], dtype=np.int64)
        add_cpu = np.array([vms[i].cpu for i in order], dtype=float)
        pos = np.searchsorted(snap.vm_ids, add_ids)
        if len(snap.vm_ids):
            clipped = pos.clip(max=len(snap.vm_ids) - 1)
            if np.any(snap.vm_ids[clipped] == add_ids):
                dup = add_ids[snap.vm_ids[clipped] == add_ids][0]
                raise ValueError(f"VM {dup} is already in the snapshot")
        old_n = snap.n_vms
        # Every old dense index shifts right by the number of arrivals
        # inserted at or before it; the shift is monotone, so the CSR stays
        # sorted by (row, peer) after remapping — no re-sort needed.
        old_to_new = np.arange(old_n, dtype=np.int64) + np.searchsorted(
            pos, np.arange(old_n), side="right"
        )
        snap.vm_ids = np.insert(snap.vm_ids, pos, add_ids)
        self._remap_dense(old_to_new)
        # Arrivals join with degree 0: an empty slice where each lands.
        snap.ptr = np.insert(snap.ptr, pos, snap.ptr[pos])
        self._host_of = np.insert(self._host_of, pos, hosts)
        self._vm_ram = np.insert(self._vm_ram, pos, add_ram)
        self._vm_cpu = np.insert(self._vm_cpu, pos, add_cpu)
        self._vm_cost = np.insert(self._vm_cost, pos, 0.0)
        n_hosts = len(self._slot_cap)
        self._slot_used += np.bincount(hosts, minlength=n_hosts)
        self._ram_used += np.bincount(
            hosts, weights=add_ram, minlength=n_hosts
        ).astype(np.int64)
        self._cpu_used += np.bincount(hosts, weights=add_cpu, minlength=n_hosts)
        self._uniform_vm = bool(
            (self._vm_ram == self._vm_ram[0]).all()
            and (self._vm_cpu == self._vm_cpu[0]).all()
        )
        self._advance_sync(allocation=True)
        # Arrivals remap the dense VM index; owner-keyed caches flush.
        self._flush_round_cache()
        return TouchedSet.empty(structural=True)

    def remove_vms(self, vm_ids: Sequence[int]) -> TouchedSet:
        """Mirror one batch of VM departures already applied to the allocation.

        Drops the VMs from the dense index and patches the capacity
        mirrors.  Pairs still touching them are spliced out first with
        their cache shifts, as a removal delta would (the matrix-side
        zeroing is the caller's job — ``SCOREScheduler.retire_vms`` does
        both, flows first, so usually none are left); the survivors'
        indices then slide down monotonically, which keeps every sorted
        order — nothing is re-sorted or recomputed.
        """
        ids = np.unique(np.asarray(list(vm_ids), dtype=np.int64))
        if ids.size == 0:
            return TouchedSet.empty()
        snap = self._snap
        dense = self.dense_indices(ids.tolist())  # KeyError on unknowns
        keep_mask = np.ones(snap.n_vms, dtype=bool)
        keep_mask[dense] = False
        hosts = self._host_of[dense]
        n_hosts = len(self._slot_cap)
        self._slot_used -= np.bincount(hosts, minlength=n_hosts)
        self._ram_used -= np.bincount(
            hosts, weights=self._vm_ram[dense], minlength=n_hosts
        ).astype(np.int64)
        self._cpu_used -= np.bincount(
            hosts, weights=self._vm_cpu[dense], minlength=n_hosts
        )
        if (snap.ptr[dense + 1] > snap.ptr[dense]).any():
            stale = np.nonzero(
                ~(keep_mask[snap.pair_u] & keep_mask[snap.pair_v])
            )[0]
            self._shift_costs(
                snap.pair_u[stale].astype(np.int64),
                snap.pair_v[stale].astype(np.int64),
                -snap.pair_rate[stale].astype(float),
            )
            self._drop_pairs(stale)
            snap.ptr = _row_pointers(snap.row, snap.n_vms)
        # The departed rows are empty now; everyone else slides down.
        snap.vm_ids = snap.vm_ids[keep_mask]
        self._remap_dense(np.cumsum(keep_mask) - 1)  # valid at kept indices
        snap.ptr = np.delete(snap.ptr, dense)
        self._host_of = self._host_of[keep_mask]
        self._vm_ram = self._vm_ram[keep_mask]
        self._vm_cpu = self._vm_cpu[keep_mask]
        self._vm_cost = self._vm_cost[keep_mask]
        self._uniform_vm = bool(
            snap.n_vms > 0
            and (self._vm_ram == self._vm_ram[0]).all()
            and (self._vm_cpu == self._vm_cpu[0]).all()
        )
        self._advance_sync(allocation=True)
        # Departures remap the dense VM index; owner-keyed caches flush.
        self._flush_round_cache()
        return TouchedSet.empty(structural=True)

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

    def vm_cost(
        self,
        allocation: Optional[Allocation],
        traffic: Optional[TrafficMatrix],
        vm_u: int,
    ) -> float:
        """C_A(u), Eq. (1) — read from the incremental per-VM cache."""
        self._check_bound(allocation, traffic)
        return float(self._vm_cost[self._dense(vm_u)])

    def highest_level(
        self,
        allocation: Optional[Allocation],
        traffic: Optional[TrafficMatrix],
        vm_u: int,
    ) -> int:
        """l_A(u): max communication level to any peer; 0 without peers."""
        self._check_bound(allocation, traffic)
        peers, _ = self._snap.peers_slice(self._dense(vm_u))
        if peers.size == 0:
            return 0
        host_u = self._host_of[self._dense(vm_u)]
        levels = pair_levels(
            np.full(peers.shape, host_u, dtype=np.int64),
            self._host_of[peers],
            self._rack_of,
            self._pod_of,
        )
        return int(levels.max())

    def migration_delta(
        self,
        allocation: Optional[Allocation],
        traffic: Optional[TrafficMatrix],
        vm_u: int,
        target_host: int,
    ) -> float:
        """ΔC_A(u → x), Lemma 3; positive values are reductions."""
        self._check_bound(allocation, traffic)
        deltas = self.migration_deltas(
            vm_u, np.array([target_host], dtype=np.int64)
        )
        return float(deltas[0])

    # -- batch / incremental API -------------------------------------------

    def peer_hosts_and_rates(self, vm_u: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(peer VM ids, peer host indices, rates) for one VM."""
        peers, rates = self._snap.peers_slice(self._dense(vm_u))
        return self._snap.vm_ids[peers], self._host_of[peers], rates

    def degree(self, vm_u: int) -> int:
        """Number of communication peers of ``vm_u`` in the snapshot."""
        dense = self._dense(vm_u)
        return int(self._snap.ptr[dense + 1] - self._snap.ptr[dense])

    def migration_deltas(self, vm_u: int, hosts: np.ndarray) -> np.ndarray:
        """Lemma 3 deltas of moving ``vm_u`` to every host in ``hosts``.

        One vectorized pass over a (n_hosts, n_peers) level matrix; the
        entry for the VM's current host is exactly 0.0.
        """
        dense = self._dense(vm_u)
        hosts = np.asarray(hosts, dtype=np.int64)
        peers, rates = self._snap.peers_slice(dense)
        if peers.size == 0:
            return np.zeros(hosts.shape, dtype=float)
        source = int(self._host_of[dense])
        peer_hosts = self._host_of[peers]
        before = pair_levels(
            np.full(peers.shape, source, dtype=np.int64),
            peer_hosts,
            self._rack_of,
            self._pod_of,
        )
        # after[i, j]: level between candidate i and peer j.
        cand_rack = self._rack_of[hosts][:, None]
        cand_pod = self._pod_of[hosts][:, None]
        after = np.full((len(hosts), len(peers)), 3, dtype=np.int64)
        after[cand_pod == self._pod_of[peer_hosts][None, :]] = 2
        after[cand_rack == self._rack_of[peer_hosts][None, :]] = 1
        after[hosts[:, None] == peer_hosts[None, :]] = 0
        weighted = rates * (
            self._path_weight[before][None, :] - self._path_weight[after]
        )
        return weighted.sum(axis=1)

    def candidate_hosts(
        self, vm_u: int, max_candidates: Optional[int] = None
    ) -> np.ndarray:
        """Candidate targets in the naive probing order (§V-B5), as an array.

        Matches :meth:`repro.core.migration.MigrationEngine.candidate_hosts`
        exactly: peers ranked by (level desc, rate desc, VM id asc), each
        contributing its own server then the rest of its rack.
        """
        dense = self._dense(vm_u)
        peers, rates = self._snap.peers_slice(dense)
        if peers.size == 0:
            return np.empty(0, dtype=np.int64)
        source = int(self._host_of[dense])
        peer_hosts = self._host_of[peers]
        levels = pair_levels(
            np.full(peers.shape, source, dtype=np.int64),
            peer_hosts,
            self._rack_of,
            self._pod_of,
        )
        # peers are stored ascending by VM id, so a stable sort on
        # (-level, -rate) reproduces the naive (level, rate, id) ranking.
        order = np.lexsort((-rates, -levels))
        topo = self._topology
        seen = bytearray(len(self._slot_cap))
        seen[source] = 1
        candidates: List[int] = []
        for peer_host in peer_hosts[order]:
            peer_host = int(peer_host)
            if not seen[peer_host]:
                seen[peer_host] = 1
                candidates.append(peer_host)
            for host in topo.hosts_in_rack(int(self._rack_of[peer_host])):
                if not seen[host]:
                    seen[host] = 1
                    candidates.append(host)
            if max_candidates and len(candidates) >= max_candidates:
                return np.array(candidates[:max_candidates], dtype=np.int64)
        return np.array(candidates, dtype=np.int64)

    def can_host_many(self, hosts: np.ndarray, vm) -> np.ndarray:
        """Vectorized slot/RAM/CPU feasibility of ``vm`` on each host.

        Written as ``cap - used >= need`` — the exact float expression of
        ``Allocation.free_*``/``can_host`` — so the mirror cannot disagree
        with the allocation at a capacity boundary.
        """
        hosts = np.asarray(hosts, dtype=np.int64)
        return (
            (self._slot_cap[hosts] - self._slot_used[hosts] >= 1)
            & (self._ram_cap[hosts] - self._ram_used[hosts] >= vm.ram_mb)
            & (self._cpu_cap[hosts] - self._cpu_used[hosts] >= vm.cpu)
        )

    def host_of(self, vm_u: int) -> int:
        """Mirror of ``allocation.server_of`` from the engine's arrays."""
        return int(self._host_of[self._dense(vm_u)])

    def host_egress(self, host: int) -> float:
        """Aggregate NIC-crossing rate of ``host`` (bytes/second).

        Maintained incrementally across migrations; agrees with the naive
        :meth:`repro.core.migration.MigrationEngine.host_egress_rate` to
        within float-summation reordering.
        """
        return float(self._egress[host])

    def bandwidth_feasible_many(
        self, vm_u: int, hosts: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Vectorized §V-C check over candidate targets.

        For each candidate, the post-migration NIC load is the host's
        current egress plus u's flows that would start crossing it, minus
        u's flows to VMs already there (which drop off the NIC); feasible
        when that stays within ``threshold`` of the NIC line rate.
        """
        hosts = np.asarray(hosts, dtype=np.int64)
        budget = threshold * self._nic_cap[hosts]
        peers, rates = self._snap.peers_slice(self._dense(vm_u))
        if peers.size == 0:
            return self._egress[hosts] <= budget
        peer_hosts = self._host_of[peers]
        onto_target = np.bincount(
            peer_hosts, weights=rates, minlength=len(self._egress)
        )[hosts]
        load_after = self._egress[hosts] + (rates.sum() - onto_target) - onto_target
        return load_after <= budget

    # -- wave-batched round API ---------------------------------------------

    def dense_indices(self, vm_ids: Sequence[int]) -> np.ndarray:
        """Dense snapshot indices of the given VM ids (KeyError on misses):
        one binary search over the sorted id vector."""
        ids = np.asarray(vm_ids, dtype=np.int64)
        table = self._snap.vm_ids
        if len(table) == 0:
            raise KeyError("the engine's snapshot holds no VMs")
        pos = np.searchsorted(table, ids).clip(max=len(table) - 1)
        bad = table[pos] != ids
        if np.any(bad):
            missing = int(ids[np.nonzero(bad)[0][0]])
            raise KeyError(
                f"VM {missing} is not in the engine's snapshot; call rebuild()"
            )
        return pos

    def highest_levels(self) -> np.ndarray:
        """Per-dense-VM highest communication level, one vectorized pass.

        Equals :meth:`highest_level` for every VM (0 for peerless VMs);
        what the batched HLF end-of-round refresh feeds into
        :meth:`repro.core.token.Token.set_levels`.
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

    def wave_level_updates(
        self, dense_vms: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 1's token updates for one wave of settled holds.

        Returns ``(own_levels, peer_dense, raise_levels)``: each given
        VM's measured highest communication level (what the holder writes
        into its own token entry), plus — deduplicated to the max per
        peer — the level each of its peers would be raised to
        (``l_v ← l(u, v)`` only when larger).  One vectorized pass over
        the settled VMs' incident edges; the HLF policy feeds the result
        into :meth:`repro.core.token.Token.raise_levels`.
        """
        snap = self._snap
        vms = np.asarray(dense_vms, dtype=np.int64)
        deg = (snap.ptr[vms + 1] - snap.ptr[vms]).astype(np.int64)
        own = np.zeros(len(vms), dtype=np.int64)
        total = int(deg.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return own, empty, empty.copy()
        cum = np.zeros(len(vms) + 1, dtype=np.int64)
        np.cumsum(deg, out=cum[1:])
        owner = np.repeat(np.arange(len(vms), dtype=np.int64), deg)
        edge = np.repeat(snap.ptr[vms] - cum[:-1], deg) + np.arange(total)
        peers = snap.peer[edge]
        levels = pair_levels(
            self._host_of[vms][owner],
            self._host_of[peers],
            self._rack_of,
            self._pod_of,
        )
        nonempty = deg > 0
        own[nonempty] = np.maximum.reduceat(levels, cum[:-1][nonempty])
        raise_to = np.zeros(snap.n_vms, dtype=np.int64)
        np.maximum.at(raise_to, peers, levels)
        touched = np.unique(peers)
        return own, touched, raise_to[touched]

    def candidate_batch(
        self,
        dense_vms: np.ndarray,
        max_candidates: Optional[int] = None,
    ) -> CandidateBatch:
        """Batched §V-B5 candidate generation + Lemma 3 scoring.

        For every VM in ``dense_vms`` (dense snapshot indices), enumerates
        the candidate targets in the exact naive probing order of
        :meth:`candidate_hosts` and scores every (VM, candidate) move in
        one chunked vectorized pass.  The expansion is
        ``Σ_u candidates(u) × degree(u)`` rows, chunked to stay bounded.
        """
        snap = self._snap
        vms = np.asarray(dense_vms, dtype=np.int64)
        n = len(vms)
        n_hosts = len(self._slot_cap)
        deg = (snap.ptr[vms + 1] - snap.ptr[vms]).astype(np.int64)
        source = self._host_of[vms]
        empty = CandidateBatch(
            vms=vms,
            source=source,
            degree=deg,
            total_rate=np.zeros(n),
            ptr=np.zeros(n + 1, dtype=np.int64),
            owner=np.empty(0, dtype=np.int64),
            host=np.empty(0, dtype=np.int64),
            delta=np.empty(0),
            onto_rate=np.empty(0),
        )
        total_e = int(deg.sum())
        if total_e == 0:
            return empty

        # Directed edges of the requested VMs, grouped by owner position.
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=cum[1:])
        owner_e = np.repeat(np.arange(n, dtype=np.int64), deg)
        edge_idx = np.repeat(snap.ptr[vms] - cum[:-1], deg) + np.arange(total_e)
        peer_host = self._host_of[snap.peer[edge_idx]]
        rate = snap.rate[edge_idx]
        before = pair_levels(
            source[owner_e], peer_host, self._rack_of, self._pod_of
        )
        # §V-B5 peer ranking: level desc, rate desc, VM id asc (CSR slices
        # are ascending by peer id, and lexsort is stable).  (owner, level)
        # pack into one integer key, halving the lexsort passes.
        order = np.lexsort((-rate, owner_e * 4 + (3 - before)))
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
        # rack) is enumerated and rows are written directly in probing
        # order: dedup sorts run over the ~|E| edges, never over the
        # ~|E|·rack row grid.
        per = self._hosts_per_rack
        rack_e = self._rack_of[peer_host]
        n_racks = int(self._rack_of.max()) + 1
        n_pods = int(self._pod_of.max()) + 1
        key = owner_e * np.int64(n_racks) + rack_e
        korder = np.argsort(key, kind="stable")
        ks = key[korder]
        kfirst = np.ones(len(ks), dtype=bool)
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

        b_owner = owner_e[leaders]
        b_phost = peer_host[leaders]
        b_rack_base = rack_e[leaders] * per
        b_src = source[b_owner]
        src_in_rack = (b_src >= b_rack_base) & (b_src < b_rack_base + per)
        has_front = b_phost != b_src
        # Block layout: the peer's server first, then its rack ascending —
        # minus the peer's own column (listed up front) and the owner's
        # source host.
        grid = np.empty((m, per + 1), dtype=np.int64)
        grid[:, 0] = b_phost
        grid[:, 1:] = b_rack_base[:, None] + np.arange(per, dtype=np.int64)
        keep = np.ones((m, per + 1), dtype=bool)
        keep[:, 0] = has_front
        rows_m = np.arange(m)
        keep[rows_m, b_phost - b_rack_base + 1] = False
        sir = np.nonzero(src_in_rack & has_front)[0]
        keep[sir, b_src[sir] - b_rack_base[sir] + 1] = False
        block_len = keep.sum(axis=1).astype(np.int64)
        rows_flat = np.nonzero(keep.ravel())[0]
        host_c = grid.ravel()[rows_flat].astype(np.int32)
        block_of_row = rows_flat // (per + 1)
        owner_c = b_owner[block_of_row]

        # Untrimmed segment offsets (the onto-rate fix-ups below need each
        # block's row position inside its owner's segment).
        counts = np.bincount(owner_c, minlength=n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        block_start = np.cumsum(block_len) - block_len
        block_pos_in_seg = block_start - ptr[b_owner]
        if max_candidates:
            position = np.arange(len(owner_c)) - ptr[owner_c]
            trim = position < max_candidates
            owner_c = owner_c[trim]
            host_c = host_c[trim]
            block_of_row = block_of_row[trim]
            counts = np.bincount(owner_c, minlength=n)
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
        if len(owner_c) == 0:
            return empty

        # Lemma 3 deltas without expanding candidates × peers: the post-
        # move sum decomposes over the level hierarchy,
        #   Σ_p λ_p·w[l(x, p)] = w3·R_total + (w2−w3)·R_pod(pod_x)
        #                      + (w1−w2)·R_rack(rack_x) + (w0−w1)·R_host(x),
        # where R_* are the owner's peer-rate aggregates per pod/rack/host.
        # Every host of a block shares its pod and rack, so the first
        # three terms are computed once per *block* (chunked dense scatter
        # maps bound memory) and broadcast to rows; the R_host term is
        # zero except on peer-hosting servers, patched per (owner, peer
        # host) below with the identical left-to-right float chain.
        n_pairs = len(owner_c)
        pw = self._path_weight
        w3 = pw[3] if len(pw) > 3 else pw[-1]
        w2d, w1d, w0d = pw[2] - w3, pw[1] - pw[2], pw[0] - pw[1]
        peer_pod = self._pod_of[peer_host]
        base = np.empty(m)
        chunk = max(1, _CANDIDATE_CHUNK_ELEMS // max(1, n_racks))
        for o_lo in range(0, n, chunk):
            o_hi = min(n, o_lo + chunk)
            width = o_hi - o_lo
            e_lo, e_hi = cum[o_lo], cum[o_hi]
            local_owner = owner_e[e_lo:e_hi] - o_lo
            e_rate = rate[e_lo:e_hi]
            r_rack = np.bincount(
                local_owner * n_racks + rack_e[e_lo:e_hi],
                weights=e_rate,
                minlength=width * n_racks,
            )
            r_pod = np.bincount(
                local_owner * n_pods + peer_pod[e_lo:e_hi],
                weights=e_rate,
                minlength=width * n_pods,
            )
            b_lo, b_hi = np.searchsorted(b_owner, [o_lo, o_hi])
            bo = b_owner[b_lo:b_hi]
            lo_local = bo - o_lo
            b_rack = rack_e[leaders[b_lo:b_hi]]
            b_pod = self._pod_of[b_rack_base[b_lo:b_hi]]
            base[b_lo:b_hi] = (
                w3 * total_rate[bo]
                + w2d * r_pod[lo_local * n_pods + b_pod]
                + w1d * r_rack[lo_local * n_racks + b_rack]
            )
        delta = local_cost[owner_c] - base[block_of_row]
        onto = np.zeros(n_pairs)

        # (owner, peer host) fix-ups: locate each peer-hosting row inside
        # its block arithmetically, sum co-hosted peers' rates with the
        # same sorted-key reduction as before, and rewrite those rows with
        # the full four-term chain so values stay bit-compatible with the
        # row-expanded formula.
        hkey = owner_e * np.int64(n_hosts) + peer_host
        horder = np.argsort(hkey, kind="stable")
        hk = hkey[horder]
        hfirst = np.ones(len(hk), dtype=bool)
        hfirst[1:] = hk[1:] != hk[:-1]
        hsums = np.add.reduceat(rate[horder], np.flatnonzero(hfirst))
        rep = horder[hfirst]  # earliest-rank edge per (owner, host)
        rb = block_of_edge[rep]
        ph = peer_host[rep]
        base_rack = b_rack_base[rb]
        bph = b_phost[rb]
        bsrc = b_src[rb]
        hf = has_front[rb]
        is_front = ph == bph
        pos = (
            hf.astype(np.int64)
            + (ph - base_rack)
            - (bph < ph)
            - (src_in_rack[rb] & (bsrc < ph) & (bsrc != bph))
        )
        pos[is_front] = 0
        valid = ph != bsrc  # rows on the owner's source host don't exist
        row_pos = block_pos_in_seg[rb] + pos
        if max_candidates:
            valid &= row_pos < max_candidates
        target_rows = ptr[owner_e[rep]] + row_pos
        target_rows = target_rows[valid]
        onto_v = hsums[valid]
        onto[target_rows] = onto_v
        delta[target_rows] = local_cost[owner_e[rep][valid]] - (
            base[rb[valid]] + w0d * onto_v
        )
        return CandidateBatch(
            vms=vms,
            source=source,
            degree=deg,
            total_rate=total_rate,
            ptr=ptr,
            owner=owner_c,
            host=host_c,
            delta=delta,
            onto_rate=onto,
        )

    def candidate_feasible(
        self,
        batch: CandidateBatch,
        bandwidth_threshold: Optional[float] = None,
    ) -> np.ndarray:
        """Capacity (§V-B5) + bandwidth (§V-C) mask over a batch's pairs.

        Evaluated against the engine's *current* incremental mirrors, so
        the same batch can be re-masked wave after wave; uses the exact
        float expressions of ``Allocation.can_host`` and
        :meth:`bandwidth_feasible_many`.
        """
        hosts = batch.host
        if self._uniform_vm:
            host_ok = (
                (self._slot_cap - self._slot_used >= 1)
                & (self._ram_cap - self._ram_used >= self._vm_ram[0])
                & (self._cpu_cap - self._cpu_used >= self._vm_cpu[0])
            )
            ok = host_ok[hosts]
        else:
            dense = batch.vms[batch.owner]
            ok = (
                (self._slot_cap[hosts] - self._slot_used[hosts] >= 1)
                & (self._ram_cap[hosts] - self._ram_used[hosts] >= self._vm_ram[dense])
                & (self._cpu_cap[hosts] - self._cpu_used[hosts] >= self._vm_cpu[dense])
            )
        if bandwidth_threshold is not None:
            budget = bandwidth_threshold * self._nic_cap[hosts]
            load_after = self._egress[hosts] + (
                batch.total_rate[batch.owner] - batch.onto_rate
            ) - batch.onto_rate
            ok &= load_after <= budget
        return ok

    def uniform_host_ok(
        self, hosts: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """Per-host capacity feasibility when every VM is identical.

        With a uniform VM population, slot/RAM/CPU feasibility of *any*
        move collapses to one boolean per host; the cached round loop
        maintains this vector incrementally (only a wave's source/target
        hosts can flip) instead of re-masking every candidate row per
        wave.  Returns ``None`` when the population is not uniform (or
        empty) — callers must then fall back to per-row probing.  Pass
        ``hosts`` to evaluate a subset only.
        """
        if not self._uniform_vm:
            return None
        if hosts is None:
            slot_cap, ram_cap = self._slot_cap, self._ram_cap
            cpu_cap = self._cpu_cap
            slot_used, ram_used, cpu_used = (
                self._slot_used,
                self._ram_used,
                self._cpu_used,
            )
        else:
            hosts = np.asarray(hosts, dtype=np.int64)
            slot_cap, ram_cap = self._slot_cap[hosts], self._ram_cap[hosts]
            cpu_cap = self._cpu_cap[hosts]
            slot_used, ram_used, cpu_used = (
                self._slot_used[hosts],
                self._ram_used[hosts],
                self._cpu_used[hosts],
            )
        return (
            (slot_cap - slot_used >= 1)
            & (ram_cap - ram_used >= self._vm_ram[0])
            & (cpu_cap - cpu_used >= self._vm_cpu[0])
        )

    def set_host_capacity(
        self,
        host: int,
        max_vms: Optional[int] = None,
        nic_bps: Optional[float] = None,
        ram_mb: Optional[int] = None,
        cpu: Optional[float] = None,
    ) -> None:
        """Resize one host's capacity in place — no engine rebuild.

        Patches the cluster's servers and shared capacity arrays (the
        engine's ``_slot_cap``/``_nic_cap`` mirrors alias them, so every
        feasibility probe sees the new values immediately); parameters
        left ``None`` keep their current value.  Rejects a resize below
        the host's *current* usage — drain the host first
        (:meth:`SCOREScheduler.drain_hosts`).  Scored Lemma 3 rows never
        reference capacity, so the round cache stays valid; feasibility
        is re-probed from the patched mirrors at the next round.
        """
        host = int(host)
        current = self._allocation.cluster.server(host).capacity
        new_slots = current.max_vms if max_vms is None else int(max_vms)
        new_nic = current.nic_bps if nic_bps is None else float(nic_bps)
        new_ram = current.ram_mb if ram_mb is None else int(ram_mb)
        new_cpu = current.cpu if cpu is None else float(cpu)
        if new_slots < int(self._slot_used[host]):
            raise ValueError(
                f"host {host} runs {int(self._slot_used[host])} VMs; "
                f"cannot shrink to {new_slots} slots (drain it first)"
            )
        if new_ram < int(self._ram_used[host]) or new_cpu < float(
            self._cpu_used[host]
        ):
            raise ValueError(
                f"host {host} usage exceeds the requested RAM/CPU capacity "
                f"(drain it first)"
            )
        from repro.cluster.server import ServerCapacity

        self._allocation.cluster.set_host_capacity(
            host,
            ServerCapacity(
                max_vms=new_slots, ram_mb=new_ram, cpu=new_cpu, nic_bps=new_nic
            ),
        )

    def best_candidates(
        self,
        batch: CandidateBatch,
        feasible: np.ndarray,
        return_ties: bool = False,
    ):
        """Per-owner best feasible candidate, first-in-probing-order ties.

        Returns ``(choice, best_delta, any_feasible)``: ``choice[i]`` is a
        row index into the batch's pair arrays (or -1 when owner ``i`` has
        no feasible candidate), ``best_delta[i]`` the winning Lemma 3 delta
        (``-inf`` when none).  Mirrors the naive loop's tie-breaking: the
        first candidate in probing order achieving the maximum wins.

        With ``return_ties`` a fourth element is appended: the row indices
        of every feasible candidate whose delta exactly equals its owner's
        best (in row order) — the exact-tie alternatives the wave planner
        may retarget to.
        """
        n = batch.n_owners
        choice = np.full(n, -1, dtype=np.int64)
        best = np.full(n, -np.inf)
        any_feasible = np.zeros(n, dtype=bool)
        ties = np.empty(0, dtype=np.int64)
        if batch.n_pairs == 0 or not np.any(batch.ptr[1:] > batch.ptr[:-1]):
            return (
                (choice, best, any_feasible, ties)
                if return_ties
                else (choice, best, any_feasible)
            )
        masked = np.where(feasible, batch.delta, -np.inf)
        starts = batch.ptr[:-1]
        nonempty = batch.ptr[1:] > starts
        ne_starts = starts[nonempty]
        seg_max = np.maximum.reduceat(masked, ne_starts)
        seg_len = (batch.ptr[1:] - starts)[nonempty]
        # Exactly-best feasible rows; their first-per-owner row IS the
        # naive first-max choice, and an owner has a tie iff it has any
        # feasible candidate at all.
        hit = feasible & (masked == np.repeat(seg_max, seg_len))
        ties = np.nonzero(hit)[0]
        tie_owner = batch.owner[ties]
        first = np.ones(len(ties), dtype=bool)
        first[1:] = tie_owner[1:] != tie_owner[:-1]
        choice[tie_owner[first]] = ties[first]
        any_feasible[tie_owner[first]] = True
        best[nonempty] = seg_max
        if return_ties:
            return choice, best, any_feasible, ties
        return choice, best, any_feasible

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
        snap = self._snap
        movers = np.asarray(dense_vms, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        deg = (snap.ptr[movers + 1] - snap.ptr[movers]).astype(np.int64)
        total_e = int(deg.sum())
        if total_e == 0:
            return np.zeros(len(movers))
        cum = np.zeros(len(movers) + 1, dtype=np.int64)
        np.cumsum(deg, out=cum[1:])
        owner = np.repeat(np.arange(len(movers), dtype=np.int64), deg)
        edge_idx = np.repeat(snap.ptr[movers] - cum[:-1], deg) + np.arange(
            total_e
        )
        peer_host = self._host_of[snap.peer[edge_idx]]
        sources = self._host_of[movers]
        before = pair_levels(
            sources[owner], peer_host, self._rack_of, self._pod_of
        )
        after = pair_levels(
            targets[owner], peer_host, self._rack_of, self._pod_of
        )
        contrib = snap.rate[edge_idx] * (
            self._path_weight[before] - self._path_weight[after]
        )
        return np.bincount(owner, weights=contrib, minlength=len(movers))

    def apply_moves(
        self, dense_vms: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, TouchedSet]:
        """Batched cache update for one interference-free wave of moves.

        Requires the wave contract of :func:`repro.core.migration.plan_wave`
        — pairwise-disjoint source/target hosts and no mover being another
        mover's communication peer — under which every move's Lemma 3
        terms are independent and the wave equals applying the moves one
        by one in any order.  Returns ``(deltas, touched)``: the per-move
        applied deltas plus the wave's :class:`TouchedSet` (hosts whose
        slots/egress changed, owners whose scored rows went stale); the
        engine's round cache is invalidated with the same set before
        returning.  The bound allocation must be updated separately
        (callers use ``Allocation.migrate_many``).
        """
        snap = self._snap
        movers = np.asarray(dense_vms, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        n_moves = len(movers)
        sources = self._host_of[movers].copy()
        deg = (snap.ptr[movers + 1] - snap.ptr[movers]).astype(np.int64)
        deltas = np.zeros(n_moves)
        total_e = int(deg.sum())
        if total_e:
            cum = np.zeros(n_moves + 1, dtype=np.int64)
            np.cumsum(deg, out=cum[1:])
            owner = np.repeat(np.arange(n_moves, dtype=np.int64), deg)
            edge_idx = np.repeat(snap.ptr[movers] - cum[:-1], deg) + np.arange(
                total_e
            )
            peers = snap.peer[edge_idx]
            rates = snap.rate[edge_idx]
            peer_host = self._host_of[peers]
            before = pair_levels(
                sources[owner], peer_host, self._rack_of, self._pod_of
            )
            after = pair_levels(
                targets[owner], peer_host, self._rack_of, self._pod_of
            )
            contrib = rates * (
                self._path_weight[before] - self._path_weight[after]
            )
            deltas = np.bincount(owner, weights=contrib, minlength=n_moves)
            # A non-moving VM may be the peer of several movers, so peer
            # cost updates accumulate (bincount), never overwrite.  A
            # small wave touches few peers; scatter into the unique set
            # instead of materialising an n_vms-length bincount (the two
            # are bit-identical: per-peer sums accumulate in the same
            # element order, applied as one subtraction either way).
            if total_e * 8 < snap.n_vms:
                uniq_peers, inverse = np.unique(peers, return_inverse=True)
                self._vm_cost[uniq_peers] -= np.bincount(
                    inverse, weights=contrib, minlength=len(uniq_peers)
                )
            else:
                self._vm_cost -= np.bincount(
                    peers, weights=contrib, minlength=snap.n_vms
                )
            self._vm_cost[movers] -= deltas
            self._total -= float(deltas.sum())
            # Egress (§V-C): disjoint sources/targets make the per-host
            # adjustments independent, so indexed writes are safe.
            colocated_src = np.bincount(
                owner, weights=rates * (before == 0), minlength=n_moves
            )
            colocated_tgt = np.bincount(
                owner, weights=rates * (after == 0), minlength=n_moves
            )
            move_rate = np.bincount(owner, weights=rates, minlength=n_moves)
            self._egress[sources] += colocated_src - (move_rate - colocated_src)
            self._egress[targets] += (move_rate - colocated_tgt) - colocated_tgt
        self._host_of[movers] = targets
        self._slot_used[sources] -= 1
        self._slot_used[targets] += 1
        self._ram_used[sources] -= self._vm_ram[movers]
        self._ram_used[targets] += self._vm_ram[movers]
        self._cpu_used[sources] -= self._vm_cpu[movers]
        self._cpu_used[targets] += self._vm_cpu[movers]
        touched = TouchedSet(
            hosts=np.unique(np.concatenate((sources, targets))),
            owners=self._movers_footprint(movers),
        )
        if n_moves:
            self._invalidate_owners(touched.owners)
            # Paired with the caller's single Allocation.migrate_many bump.
            self._advance_sync(allocation=True)
        return deltas, touched

    def apply_migration(self, vm_u: int, target_host: int) -> float:
        """Update every cache for ``vm_u`` moving to ``target_host``.

        O(peers of u): the per-VM cost cache of u and of each of its peers,
        the network-wide total and the capacity mirrors are all adjusted
        from the Lemma 3 terms.  Returns the applied delta (positive =
        reduction).  The bound allocation must be migrated separately
        (callers do ``allocation.migrate(...)`` first).
        """
        dense = self._dense(vm_u)
        source = int(self._host_of[dense])
        target = int(target_host)
        if source == target:
            return 0.0
        peers, rates = self._snap.peers_slice(dense)
        delta = 0.0
        if peers.size:
            peer_hosts = self._host_of[peers]
            before = pair_levels(
                np.full(peers.shape, source, dtype=np.int64),
                peer_hosts,
                self._rack_of,
                self._pod_of,
            )
            after = pair_levels(
                np.full(peers.shape, target, dtype=np.int64),
                peer_hosts,
                self._rack_of,
                self._pod_of,
            )
            contrib = rates * (
                self._path_weight[before] - self._path_weight[after]
            )
            delta = float(contrib.sum())
            self._vm_cost[peers] -= contrib
            self._vm_cost[dense] -= delta
            self._total -= delta
            # Egress (§V-C): u's flows leave the source NIC and land on the
            # target's; peers co-located with either endpoint flip between
            # intra-host and NIC-crossing on their own host.
            colocated_source = rates[before == 0].sum()
            colocated_target = rates[after == 0].sum()
            total_rate = rates.sum()
            self._egress[source] += colocated_source - (
                total_rate - colocated_source
            )
            self._egress[target] += (total_rate - colocated_target) - (
                colocated_target
            )
        self._host_of[dense] = target
        self._slot_used[source] -= 1
        self._slot_used[target] += 1
        self._ram_used[source] -= self._vm_ram[dense]
        self._ram_used[target] += self._vm_ram[dense]
        self._cpu_used[source] -= self._vm_cpu[dense]
        self._cpu_used[target] += self._vm_cpu[dense]
        self._invalidate_owners(
            self._movers_footprint(np.array([dense], dtype=np.int64))
        )
        # Paired with the caller's single Allocation.migrate bump.
        self._advance_sync(allocation=True)
        return delta

    # -- internals ----------------------------------------------------------

    def _dense(self, vm_u: int) -> int:
        table = self._snap.vm_ids
        pos = int(np.searchsorted(table, vm_u))
        if pos == len(table) or table[pos] != vm_u:
            raise KeyError(
                f"VM {vm_u} is not in the engine's snapshot; call rebuild()"
            )
        return pos

    def __repr__(self) -> str:
        return (
            f"FastCostEngine(vms={self._snap.n_vms}, "
            f"pairs={self._snap.n_pairs}, hosts={len(self._slot_cap)})"
        )


def engine_from_cost_model(
    cost_model: CostModel, allocation: Allocation, traffic: TrafficMatrix
) -> FastCostEngine:
    """Build an engine sharing a naive model's topology and weights."""
    if cost_model.topology is not allocation.topology:
        raise ValueError(
            "cost model and allocation disagree on the topology instance"
        )
    return FastCostEngine(allocation, traffic, weights=cost_model.weights)
