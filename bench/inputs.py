"""Seeded input generators: everything a workload feeds the program.

The program under test receives only what these functions return — the
same ``seed`` always produces the same environment, event stream and
drift sequence.  ``Scale`` carries the two size presets: ``full`` is the
paper's 2560-host canonical tree (and its 4x sharded sibling); ``smoke``
is the laptop preset the harness self-tests run in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.manager import PlacementManager
from repro.cluster.server import ServerCapacity
from repro.core.cost import CostModel, LinkWeights
from repro.sim.experiment import ExperimentConfig
from repro.topology.tree import CanonicalTree
from repro.traffic.matrix import TrafficMatrix


@dataclass(frozen=True)
class Scale:
    """Topology sizes of one preset (canonical tree + sharded tree)."""

    n_racks: int
    hosts_per_rack: int
    vms_per_host: int
    shard_racks: int
    shard_domains: int


SCALES = {
    # paper_canonical: 128 x 20 = 2560 hosts, 34,816 VMs; sharded tree
    # 520 x 20 = 10,400 hosts (4x), 52 pods, 141,440 VMs.
    "full": Scale(128, 20, 16, 520, 24),
    "smoke": Scale(32, 4, 8, 40, 4),
}

#: Slot fill of every generated population (ExperimentConfig's default).
FILL = 0.85
#: ToRs per aggregation switch: paper_canonical's 8; 10 on the sharded tree
#: (200-host pods at full scale, as in the 20x hyperscale bench).
TORS_PER_AGG = 8
SHARD_TORS_PER_AGG = 10
#: Share of the sharded tree's pairs that cross pods (reconcile's work).
CROSS_POD_FRACTION = 0.01
#: Share of pairs (the heaviest) that drift every epoch of steady_drift.
DRIFT_FRACTION = 0.05


def experiment_config(
    scale: Scale, pattern: str, policy: str, seed: int
) -> ExperimentConfig:
    """The canonical-tree experiment at ``scale`` (paper_canonical at full)."""
    return ExperimentConfig(
        topology="canonical",
        n_racks=scale.n_racks,
        hosts_per_rack=scale.hosts_per_rack,
        tors_per_agg=TORS_PER_AGG,
        n_cores=4,
        vms_per_host=scale.vms_per_host,
        fill_fraction=FILL,
        pattern=pattern,
        policy=policy,
        seed=seed,
    )


def community_environment(
    scale: Scale, seed: int
) -> Tuple[Allocation, TrafficMatrix, CostModel]:
    """Pod-aligned community traffic on the sharded tree, built in numpy.

    VM ``i`` sits on host ``i mod n_hosts``; every VM talks to ~1.1
    random peers of its own pod, plus a :data:`CROSS_POD_FRACTION` tail of
    cross-pod pairs so the reconcile pass has boundary work.  The
    generic random-placement path spends its time in python loops that
    would dominate set-up at this size.
    """
    topology = CanonicalTree(
        n_racks=scale.shard_racks,
        hosts_per_rack=scale.hosts_per_rack,
        tors_per_agg=SHARD_TORS_PER_AGG,
        n_cores=4,
    )
    slots = scale.vms_per_host
    capacity = ServerCapacity(
        max_vms=slots, ram_mb=slots * 512, cpu=max(1.0, slots * 0.25)
    )
    cluster = Cluster(topology, capacity)
    n_hosts = topology.n_hosts
    n_vms = int(n_hosts * slots * FILL)
    vms = PlacementManager(cluster).create_vms(n_vms, ram_mb=512, cpu=0.25)
    hosts = np.arange(n_vms) % n_hosts
    allocation = Allocation(cluster)
    allocation.add_vms(vms, hosts.tolist())

    rng = np.random.default_rng(seed)
    vm_ids = np.array([vm.vm_id for vm in vms], dtype=np.int64)
    pod_of_vm = hosts // (scale.hosts_per_rack * SHARD_TORS_PER_AGG)
    by_pod = vm_ids[np.argsort(pod_of_vm, kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(pod_of_vm))])
    us_parts, vs_parts = [], []

    def sample(members: np.ndarray, n_pairs: int) -> None:
        u = members[rng.integers(0, len(members), n_pairs)]
        v = members[rng.integers(0, len(members), n_pairs)]
        keep = u != v
        us_parts.append(np.minimum(u[keep], v[keep]))
        vs_parts.append(np.maximum(u[keep], v[keep]))

    for lo, hi in zip(offsets[:-1], offsets[1:]):
        sample(by_pod[lo:hi], int((hi - lo) * 1.1))
    sample(vm_ids, int(n_vms * CROSS_POD_FRACTION))
    us = np.concatenate(us_parts)
    vs = np.concatenate(vs_parts)
    _, first = np.unique(us * np.int64(vm_ids.max() + 1) + vs, return_index=True)
    us, vs = us[first], vs[first]
    rates = rng.uniform(1e5, 1e7, len(us))
    traffic = TrafficMatrix.from_pair_arrays(us, vs, rates)
    return allocation, traffic, CostModel(topology, LinkWeights.paper())


class DriftSequence:
    """Slow drift: the heaviest pairs re-draw their rate every epoch.

    The heaviest :data:`DRIFT_FRACTION` of pairs (by original rate) each
    take ``original x U[0.7, 1.3]`` per epoch — rates wander around
    their starting point instead of random-walking away from it, which
    keeps the working set of dirty owners the same size in every epoch.
    """

    def __init__(self, traffic: TrafficMatrix, seed: int) -> None:
        us, vs, rates = traffic.pair_arrays()
        n_hot = max(1, int(len(us) * DRIFT_FRACTION))
        hot = np.argsort(-rates, kind="stable")[:n_hot]
        self._us = us[hot].copy()
        self._vs = vs[hot].copy()
        self._base = rates[hot].copy()
        self._rng = np.random.default_rng(seed)

    def next_delta(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next epoch's ``(us, vs, absolute new rates)`` delta."""
        factors = self._rng.uniform(0.7, 1.3, len(self._base))
        return self._us, self._vs, self._base * factors


#: Events per simulated round of the service workloads, by kind: the
#: daemon's default 3:2:4:1 arrival/retirement/surge/crunch mix at 16
#: events per round.
EVENTS_PER_ROUND = {"arrival": 5, "retirement": 3, "surge": 6, "crunch": 2}


def churn_events(seed: int, round_seconds: float, horizon_rounds: int):
    """A seeded churn stream with the same work in every round.

    Each of the ``horizon_rounds`` rounds receives exactly
    :data:`EVENTS_PER_ROUND` events — order, due times and parameters
    (burst sizes, rates, surge factors, crunch budgets; the ranges of the
    daemon's own Poisson generator) come from ``seed``.  A Poisson stream
    of the same rate puts 16 +/- 4 events into a round, so the cost of a
    round would differ by a quarter between two seeds and the benchmark
    could not tell a slower program from an unlucky seed.
    """
    from repro.sim.eventqueue import (
        Arrival,
        BandwidthCrunch,
        Retirement,
        TrafficSurge,
    )

    rng = np.random.default_rng(seed)
    kinds = [kind for kind, n in EVENTS_PER_ROUND.items() for _ in range(n)]
    picks = ["coldest", "newest", "coldest"]  # one pick pattern per round
    events = []
    for round_index in range(horizon_rounds):
        due = (round_index + np.sort(rng.random(len(kinds)))) * round_seconds
        retirements = iter(picks)
        for due_s, kind in zip(due.tolist(), rng.permutation(kinds).tolist()):
            if kind == "arrival":
                event = Arrival(
                    int(rng.integers(1, 4)), rate=float(rng.uniform(200, 800))
                )
            elif kind == "retirement":
                event = Retirement(
                    int(rng.integers(1, 3)), pick=next(retirements)
                )
            elif kind == "surge":
                event = TrafficSurge(
                    round(float(rng.uniform(1.05, 1.9)), 3),
                    top_pairs=int(rng.choice((4, 8))),
                )
            else:
                event = BandwidthCrunch(
                    round(float(rng.uniform(0.55, 0.9)), 3),
                    lift_after=round_seconds * float(rng.uniform(0.5, 1.5)),
                )
            events.append((due_s, event))
    return events
