"""What the harness emits, and the declaration it must match.

``BENCHMARK.json`` (repo root) is the declaration: metric names, units,
directions and regression bounds, workload names and reasons.  The
names below are what the code computes; ``bench/tests`` pins the two
sets equal so a metric cannot be declared without being measured, or
measured without a declared unit.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Tuple

from bench.fingerprint import REPO_ROOT
from bench.tracing import LAYERS

#: Emitted with tracing off, by every workload.
END_TO_END = ("setup_s", "op_s", "cost_reduction", "peak_rss_mb")

#: Per-layer values that are not span timings.
COUNTERS = (
    # Wave protocol (RoundResult fields) and the round engine's own
    # phase split (scheduler.enable_profiling()).
    "core.rounds.waves",
    "core.rounds.deferrals",
    "core.rounds.migrations",
    "core.rounds.score_s",
    "core.rounds.remask_s",
    "core.rounds.plan_s",
    "core.rounds.wave_apply_s",
    "core.rounds.adjust_s",
    "core.rounds.settle_s",
    "core.roundcache.owners_seen",
    "core.roundcache.owners_rescored",
    "core.roundcache.hit_ratio",
    "sim.eventqueue.events_applied",
    "service.admission.accepted",
    "service.admission.deferred",
    "service.admission.coalesced",
    "service.admission.rejected",
    "service.backpressure_rounds",
    # Daemon-facing numbers that only service_churn can produce, so they
    # cannot be end-to-end metrics of every workload (see README).
    "service.events_per_s",
    "service.event_to_plan_p50_s",
    "service.event_to_plan_p90_s",
    "persist.journal.bytes",
    "persist.snapshot.bytes",
    "shard.partition.domains",
    "shard.coordinator.merge_s",
    "shard.coordinator.domain_solve_s",
    "shard.coordinator.domain_build_s",
    "shard.imbalance",
    "shard.reconcile.boundary_vms",
    "shard.reconcile.passes",
    "shard.reconcile.migrations",
    "shard.worker_rss_mb",
    "bench.op_p90_s",
    "bench.traced_op_s",
    "bench.unattributed_share",
)

#: Per-layer values that are already ratios, gauges, sizes or whole-run
#: totals; everything else is divided by the number of work units.
AS_OBSERVED = frozenset({
    "core.roundcache.hit_ratio",
    "sim.eventqueue.events_applied",
    "service.admission.accepted",
    "service.admission.deferred",
    "service.admission.coalesced",
    "service.admission.rejected",
    "service.backpressure_rounds",
    "service.events_per_s",
    "service.event_to_plan_p50_s",
    "service.event_to_plan_p90_s",
    "persist.journal.bytes",
    "persist.snapshot.bytes",
    "shard.imbalance",
    "shard.worker_rss_mb",
    "bench.op_p90_s",
    "bench.traced_op_s",
    "bench.unattributed_share",
})

PER_LAYER: Tuple[str, ...] = tuple(
    f"{layer}.{field}" for layer in LAYERS for field in ("calls", "self_s")
) + COUNTERS

#: PhaseTimings phase / gauge name -> per-layer metric it feeds.
PROFILE_SECONDS = {
    "score": "core.rounds.score_s",
    "re-mask": "core.rounds.remask_s",
    "plan": "core.rounds.plan_s",
    "wave-apply": "core.rounds.wave_apply_s",
    "adjust": "core.rounds.adjust_s",
    "settle": "core.rounds.settle_s",
    "merge": "shard.coordinator.merge_s",
    "domain-solve": "shard.coordinator.domain_solve_s",
    "domain-build": "shard.coordinator.domain_build_s",
}
PROFILE_COUNTS = {
    "owners": "core.roundcache.owners_seen",
    "owners_rescored": "core.roundcache.owners_rescored",
}


def declaration() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def declared_metrics() -> Dict[str, Dict[str, Any]]:
    """``name -> {unit, better, bound?}`` over both metric lists."""
    declared = declaration()
    return {
        metric["name"]: metric
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
