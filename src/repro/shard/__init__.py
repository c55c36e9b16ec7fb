"""Hyperscale sharded token domains (see ``docs/sharding.md``).

Partition the VM population into pod-aligned scheduling domains from
the traffic matrix's community structure, run each domain's wave
engine independently (serially or over forked workers), and reconcile
the cross-domain edge set with exact Theorem-1 passes over the
boundary VMs.  Wired through
:class:`~repro.core.scheduler.SCOREScheduler` (``use_sharding`` /
``n_domains`` / ``n_workers``) and the CLI (``--shards/--workers``).
"""

from repro.shard.coordinator import ShardedCoordinator, ShardedIteration
from repro.shard.domain import DomainRoundOutcome, ShardDomain
from repro.shard.executor import (
    ForkExecutor,
    SerialExecutor,
    ShardWorkerError,
    ShmExecutor,
    fork_available,
    make_executor,
    pack_workers,
)
from repro.shard.partition import Partition, build_partition
from repro.shard.reconcile import ReconcileOutcome, reconcile_boundary

__all__ = [
    "DomainRoundOutcome",
    "ForkExecutor",
    "Partition",
    "ReconcileOutcome",
    "SerialExecutor",
    "ShardDomain",
    "ShardWorkerError",
    "ShardedCoordinator",
    "ShardedIteration",
    "ShmExecutor",
    "build_partition",
    "fork_available",
    "make_executor",
    "pack_workers",
    "reconcile_boundary",
]
