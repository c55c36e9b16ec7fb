"""Admission control for the scheduler service's event ingestion.

The daemon never applies an event the moment it arrives: everything
lands in one bounded :class:`IngestionQueue` first, and the service
dispatches at most ``max_dispatch_per_round`` of them into the
continuous-time runner per token round.  The queue is therefore the
overload shock absorber, and its admission policy encodes the one
invariant the service guarantees under any burst:

**structural churn is never dropped.**  An ``Arrival``, ``Outage`` or
``CapacityChange`` that vanishes silently leaves the daemon modelling a
cluster that no longer exists.  Structural events are admitted even
past the soft watermark (as :class:`Deferred` — queued behind the
backlog, applied late but applied).  Only *rate-only* traffic deltas
(``Event.RATE_ONLY`` — today :class:`~repro.sim.eventqueue.TrafficSurge`)
may be coalesced into a pending peer or, failing that, shed with a
typed :class:`Rejected` — losing one of those costs optimization
opportunity, never correctness.

Every ``offer`` returns exactly one of the four frozen outcome types,
so callers (and the chaos differential suite) can assert the policy
rather than infer it from side effects.  Backpressure is the queue's
second lever: while ``overloaded`` the service stops polling its event
source entirely, pushing the queueing upstream.

Determinism note: outcomes depend only on queue contents and the
event's own type — never on wall clock — so a replayed recovery
re-admits the exact same sequence and the admission counters of a
crashed-and-recovered service match its unfaulted twin bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.sim.eventqueue import Event


@dataclass(frozen=True)
class Accepted:
    """Admitted below the soft watermark; will dispatch in arrival order."""

    due_s: float
    depth: int


@dataclass(frozen=True)
class Deferred:
    """Structural event admitted *over* the watermark: late, never lost."""

    due_s: float
    depth: int


@dataclass(frozen=True)
class Coalesced:
    """Rate-only event merged into an equivalent pending peer."""

    due_s: float
    into_due_s: float


@dataclass(frozen=True)
class Rejected:
    """Rate-only event shed under overload (typed, never silent)."""

    due_s: float
    reason: str


AdmissionOutcome = Union[Accepted, Deferred, Coalesced, Rejected]


class IngestionQueue:
    """Bounded FIFO staging buffer with the admission policy above.

    ``soft_limit`` is the overload watermark: at or past it the queue
    reports ``overloaded`` (the service's cue to stop polling sources),
    sheds or coalesces rate-only offers, and defers structural ones.
    ``capacity`` only bounds how much a single burst can grow the
    backlog of *sheddable* work — structural events ignore it by
    design.  The whole object pickles into service snapshots, counters
    included, so admission statistics survive crash recovery.
    """

    def __init__(
        self, capacity: int = 64, soft_limit: Optional[int] = None
    ) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = int(capacity)
        self.soft_limit = (
            max(1, self.capacity // 2) if soft_limit is None else int(soft_limit)
        )
        if not 1 <= self.soft_limit <= self.capacity:
            raise ValueError(
                f"soft_limit must be in [1, capacity={self.capacity}], "
                f"got {self.soft_limit}"
            )
        # Mutable [due_s, event] slots so coalescing can swap an event
        # in place without disturbing FIFO order.
        self._pending: List[List] = []
        self.stats: Dict[str, int] = {
            "accepted": 0,
            "deferred": 0,
            "coalesced": 0,
            "rejected": 0,
            "dispatched": 0,
        }

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def overloaded(self) -> bool:
        """At/past the soft watermark: stop polling, start shedding."""
        return len(self._pending) >= self.soft_limit

    def offer(self, due_s: float, event: Event) -> AdmissionOutcome:
        """Apply the admission policy to one incoming event."""
        due_s = float(due_s)
        if not self.overloaded:
            self._pending.append([due_s, event])
            self.stats["accepted"] += 1
            return Accepted(due_s=due_s, depth=len(self._pending))
        if event.RATE_ONLY:
            # Newest-first: bursts tend to pile equivalent deltas at the
            # tail, and merging into the most recent peer keeps the
            # coalesced event's dispatch slot as late as its survivors.
            for slot in reversed(self._pending):
                if not slot[1].RATE_ONLY:
                    continue
                merged = slot[1].coalesce(event)
                if merged is not None:
                    slot[1] = merged
                    self.stats["coalesced"] += 1
                    return Coalesced(due_s=due_s, into_due_s=slot[0])
            self.stats["rejected"] += 1
            return Rejected(
                due_s=due_s,
                reason=(
                    f"overload: depth {len(self._pending)} >= soft limit "
                    f"{self.soft_limit}, rate-only delta shed"
                ),
            )
        self._pending.append([due_s, event])
        self.stats["deferred"] += 1
        return Deferred(due_s=due_s, depth=len(self._pending))

    def take(self, max_n: Optional[int] = None) -> List[Tuple[float, Event]]:
        """Pop up to ``max_n`` events, FIFO (all of them when None)."""
        if max_n is not None and max_n < 0:
            raise ValueError(f"max_n must be >= 0, got {max_n}")
        n = len(self._pending) if max_n is None else min(max_n, len(self._pending))
        taken = [(slot[0], slot[1]) for slot in self._pending[:n]]
        del self._pending[:n]
        self.stats["dispatched"] += n
        return taken
