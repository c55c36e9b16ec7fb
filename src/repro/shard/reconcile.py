"""Cross-domain reconciliation: exact Theorem-1 re-gating of boundary VMs.

Domain rounds optimize each domain's *intra-domain* cost; the pairs the
partition could not confine are invisible to them.  Reconciliation runs
bounded passes of the **global** wave-batched round engine restricted to
the boundary VMs (the endpoints of cross-domain pairs): a partial visit
order drives the engine's wave loop on a round-local batch, which scores
candidates over the full cluster with the complete traffic snapshot and
applies the exact Theorem-1 gate — so every reconciliation move is a certified
global-cost reduction, and a pass that moves nothing certifies that no
boundary VM has a strictly-improving move left.

Invariants (pinned by the differential suite):

* Reconciliation only ever *decreases* the exact global cost (each
  applied move passes Theorem 1 on the global engine).
* With an empty cross-domain edge set it is a no-op (zero passes run).
* It terminates: passes are bounded by ``max_passes``, and the loop
  stops at the first zero-migration pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.rounds import BatchedRoundEngine


@dataclass
class ReconcileOutcome:
    """Summary of the boundary correction passes."""

    boundary_vms: int
    passes: int
    migrations: int
    #: Per-pass decision column blocks (global hosts), for reporting.
    decision_blocks: List[object] = field(default_factory=list)
    #: Whether the last pass moved nothing (certified quiescent).
    settled: bool = True


def reconcile_boundary(
    engine,
    fast,
    boundary_vms: np.ndarray,
    max_passes: int = 4,
) -> ReconcileOutcome:
    """Re-score and re-gate the boundary VMs on the global engine."""
    boundary = np.asarray(boundary_vms, dtype=np.int64)
    outcome = ReconcileOutcome(boundary_vms=len(boundary), passes=0,
                               migrations=0)
    if not boundary.size:
        return outcome
    rounds = BatchedRoundEngine(engine, fast)
    for _ in range(max_passes):
        result = rounds.run_round(boundary)
        outcome.passes += 1
        outcome.migrations += result.migrations
        outcome.decision_blocks.append(result.decisions)
        if result.migrations == 0:
            outcome.settled = True
            return outcome
    outcome.settled = False
    return outcome
