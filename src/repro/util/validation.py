"""Argument validation helpers + the engine-invariant debug harness."""

from __future__ import annotations

from typing import Any, Optional, Sequence, Type


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_type(name: str, value: Any, expected: Type) -> Any:
    """Raise ``TypeError`` unless ``value`` is an instance of ``expected``."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be {expected.__name__}, got {type(value).__name__}"
        )
    return value


class InvariantViolation(AssertionError):
    """One named engine invariant failed, with everything a diagnosis needs.

    Subclasses ``AssertionError`` so every existing ``except`` /
    ``pytest.raises(AssertionError)`` treatment keeps working; carries
    structure on top of the message:

    ``invariant``
        The stable short name of the violated invariant (e.g.
        ``"slot-capacity"``, ``"round-cache-deltas"``).
    ``indices``
        The offending positions — dense rows, host ids or VM ids,
        whichever the invariant indexes by (empty when not applicable,
        clipped to the first 20).
    ``context``
        What last touched the state — the recovery and stress suites
        pass the last applied event's description, so a ``--validate``
        failure names its trigger.
    """

    MAX_INDICES = 20

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        indices: Sequence = (),
        context: Optional[str] = None,
    ) -> None:
        self.invariant = str(invariant)
        self.indices = tuple(int(i) for i in list(indices)[: self.MAX_INDICES])
        self.context = context
        text = f"[{self.invariant}] {message}"
        if self.indices:
            text += f" (offending indices: {list(self.indices)})"
        if context:
            text += f" (last applied: {context})"
        super().__init__(text)


def check_engine_invariants(
    scheduler, context: Optional[str] = None, deep: bool = True
) -> None:
    """Check every cross-layer invariant of a live scheduler stack.

    The opt-in debug harness behind event injection, the stress suite
    and crash recovery: after *any* mutation — a wave landing, a churn
    event, a capacity change, a snapshot restore — the whole tower must
    still agree:

    * the allocation's own structural invariants hold and its usage fits
      every host's slot, RAM and CPU capacity,
    * the token circulates exactly the placed VM ids, in strictly
      ascending order (its ``uint8`` levels are in range by dtype),
    * the fast engine's dense index is the allocation's id column,
      capacities are never violated, the incrementally maintained
      Lemma-3 caches (Eq. 2 total, per-host egress) agree with a
      from-scratch recomputation to 1e-9, and the spliced traffic store
      equals a canonical rebuild of its own pair list,
    * every *valid* row of the persistent round-score cache is exactly
      what a fresh ``candidate_batch`` would score.

    Raises :class:`InvariantViolation` (an ``AssertionError`` carrying
    the invariant name, offending indices and ``context`` — callers
    pass the last applied event) on the first violation.  Cost scales
    with population and valid cached rows — a per-event debug hook, not
    a production-path check.

    ``deep=False`` drops the expensive tail — the from-scratch Lemma-3
    recomputation, the egress-mirror and store rebuilds and the
    round-cache re-scoring — keeping the O(V + hosts) structural and capacity
    checks, each one flattening pass plus array compares (no per-VM
    python).  That tier is cheap enough for the service daemon to run
    after every round; any corruption it catches still trips safe mode,
    and the deep tier stays available on demand.
    """
    import numpy as np

    def fail(invariant, message, indices=()):
        raise InvariantViolation(
            invariant, message, indices=indices, context=context
        )

    allocation = scheduler.allocation
    token = scheduler.token

    try:
        placed = allocation.validate()[0]
    except AssertionError as exc:
        if isinstance(exc, InvariantViolation):
            raise
        fail("allocation-structure", str(exc))

    slot_used, ram_used, cpu_used = allocation.usage()
    slot_cap, ram_cap, cpu_cap, _nic = allocation.cluster.capacity_arrays()
    if not bool((slot_used <= slot_cap).all()):
        fail(
            "slot-capacity",
            "slot capacity violated",
            indices=np.nonzero(slot_used > slot_cap)[0],
        )
    if not bool((ram_used <= ram_cap).all()):
        fail(
            "ram-capacity",
            "RAM capacity violated",
            indices=np.nonzero(ram_used > ram_cap)[0],
        )
    if not bool((cpu_used <= cpu_cap + 1e-9).all()):
        fail(
            "cpu-capacity",
            "CPU capacity violated",
            indices=np.nonzero(cpu_used > cpu_cap + 1e-9)[0],
        )

    token_ids = token.ids
    unordered = np.nonzero(token_ids[1:] <= token_ids[:-1])[0]
    if unordered.size:
        later = token_ids[unordered[0] + 1]
        fail(
            "token-order",
            f"vm {later} follows vm {token_ids[unordered[0]]}",
            indices=[later],
        )
    if not np.array_equal(token_ids, placed):
        fail(
            "token-membership",
            f"token circulates {len(token)} ids, "
            f"allocation places {len(placed)}",
            indices=np.setxor1d(token_ids, placed),
        )

    fast = scheduler.fastcost
    if not fast.in_sync:
        fail("engine-sync", "fast engine out of sync (bypassed update path)")
    snap = fast.snapshot
    if not np.array_equal(snap.vm_ids, placed):
        fail(
            "dense-index",
            "fast snapshot dense index disagrees with the allocation",
            indices=np.setxor1d(snap.vm_ids, placed),
        )
    if not deep:
        return

    # Lemma-3 caches: the O(1) running total and the per-host egress
    # against from-scratch recomputation over the same snapshot.
    total = fast.total_cost()
    recomputed = fast.recompute_total_cost()
    if not abs(total - recomputed) <= 1e-9 * max(1.0, abs(recomputed)):
        fail(
            "lemma3-total",
            f"incremental total drifted: {total} vs recomputed {recomputed}",
        )
    host_of = allocation.columns()[1]
    crossing = host_of[snap.row] != host_of[snap.peer]
    egress = np.bincount(
        host_of[snap.row],
        weights=snap.rate * crossing,
        minlength=allocation.cluster.n_servers,
    )
    # A host carries ~1e9 bps; one whose crossing traffic all turned
    # local keeps the float residue of those updates (~1e-15 of what
    # went through it), so the absolute floor scales with the egress.
    atol = max(1e-6, 1e-9 * float(egress.max()))
    if not np.allclose(fast._egress, egress, rtol=1e-9, atol=atol):
        fail(
            "egress-mirror",
            "per-host egress mirror desync",
            indices=np.nonzero(
                ~np.isclose(fast._egress, egress, rtol=1e-9, atol=atol)
            )[0],
        )
    # λ lives once: the spliced CSR and pair index must be, array for
    # array, what a canonical rebuild from the store's own pairs gives.
    from repro.traffic.matrix import TrafficSnapshot

    rebuilt = TrafficSnapshot.canonical(
        snap.vm_ids, snap.pair_u, snap.pair_v, snap.pair_rate
    )
    for name in ("ptr", "row", "peer", "rate", "_pair_sorted_order",
                 "_pair_key_sorted", "_pair_csr"):
        if not np.array_equal(getattr(snap, name), getattr(rebuilt, name)):
            fail(
                "store-rebuild",
                f"live {name} differs from a canonical rebuild of the "
                f"store's {snap.n_pairs} pairs",
            )

    # Round cache: every still-valid scored row must be exactly what a
    # fresh candidate_batch over its owner would produce right now.
    cache = fast._round_cache
    if cache is None or cache.valid is None:
        return
    valid = np.nonzero(cache.valid)[0]
    if valid.size == 0:
        return
    from repro.core.fastcost import segment_rows

    fresh = fast.candidate_batch(valid, cache.max_candidates)
    rows, seg_ptr = segment_rows(cache.batch.ptr, valid)
    if not np.array_equal(fresh.ptr, seg_ptr):
        fail(
            "round-cache-counts",
            "valid owners' candidate counts diverged",
            indices=valid[np.nonzero(np.diff(fresh.ptr) != np.diff(seg_ptr))[0]],
        )
    for column in ("host", "cover", "rank", "delta"):
        cached, what = getattr(cache.batch, column), getattr(fresh, column)
        if not np.array_equal(what, cached[rows]):
            fail(
                f"round-cache-{column}s",
                f"valid owners' scored {column}s diverged",
                indices=np.nonzero(what != cached[rows])[0],
            )
