"""Population-matrix kernels of the batched GA baseline (paper §VI-A).

The GA evaluates, breeds and repairs a whole population of host-assignment
vectors per generation.  These kernels operate on the population as one
``(pop, n_vms)`` integer matrix so a full generation is numpy end-to-end:
no per-individual python loop anywhere on the hot path.  They read the
S-CORE engine's traffic snapshot (:mod:`repro.core.fastcost`) but are no
part of that engine: only :mod:`repro.baselines.ga` and its tests use them.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.fastcost import TrafficSnapshot

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
