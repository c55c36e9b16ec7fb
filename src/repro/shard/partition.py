"""Domain partitioning for hyperscale sharded scheduling.

The partition decomposes the cluster into *scheduling domains*: groups of
whole pods, chosen so the traffic matrix's community structure (tenants
mostly talk within their group — the same locality that makes S-CORE's
level-weighted cost meaningful) falls inside domain boundaries.  Each
domain then runs its own wave-batched round loop over a compacted
sub-topology (:mod:`repro.shard.domain`), and only the pairs the
partition could not confine — the *cross-domain edge set* — need the
global reconciliation pass (:mod:`repro.shard.reconcile`).

Partitioning contract
---------------------
* A domain is a union of whole pods of the canonical tree; a VM belongs
  to the domain owning its *current* host.  Pods keep their global
  ascending order inside a domain, so local host order equals global
  host order — the property the sharded-vs-single-domain differential
  pin rests on.
* Pods connected by any cross-pod traffic are grouped via union-find
  into pod components; components are greedy-packed largest-first onto
  the lightest domain.  A component larger than the balanced target is
  split pod-by-pod — correctness is then carried by reconciliation, not
  the packing.
* The partition is a pure function of (allocation, traffic, topology,
  n_domains): rebuilt at every sharded run, deterministic, no RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class Partition:
    """One domain decomposition of the current (allocation, traffic)."""

    #: Number of (non-empty) domains actually produced.
    n_domains: int
    #: Domain id per pod, shape (n_pods,).
    domain_of_pod: np.ndarray
    #: Ascending global pod ids per domain.
    pods_of_domain: List[np.ndarray]
    #: Sorted global VM ids per domain.
    vms_of_domain: List[np.ndarray]
    #: Per-domain intra-domain pairs as ``(us, vs, rates)`` arrays.
    intra_pairs: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: Cross-domain pairs as ``(us, vs, rates)`` arrays.
    cross_pairs: Tuple[np.ndarray, np.ndarray, np.ndarray]
    #: Sorted unique VM ids with at least one cross-domain pair.
    boundary_vms: np.ndarray
    #: Fraction of total traffic rate the partition failed to confine.
    cross_rate_fraction: float

    @property
    def is_independent(self) -> bool:
        """Whether every traffic pair fell inside one domain."""
        return self.boundary_vms.size == 0


class _UnionFind:
    """Plain array union-find (pods number in the hundreds at most)."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Smaller root wins: component ids stay order-stable.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def build_partition(
    allocation, traffic, topology, n_domains: int
) -> Partition:
    """Decompose the population into at most ``n_domains`` pod domains.

    ``topology`` must expose ``host_pod_ids()`` (both paper topologies
    do).  Domains are never empty; fewer than ``n_domains`` come back
    when the cluster has fewer pods or the packing leaves some empty.
    """
    if n_domains < 1:
        raise ValueError(f"n_domains must be >= 1, got {n_domains}")
    vm_ids = np.array(sorted(allocation.vm_ids()), dtype=np.int64)
    hosts, _, _ = allocation.mapping_arrays(vm_ids)
    pod_of_host = topology.host_pod_ids()
    n_pods = int(pod_of_host.max()) + 1 if len(pod_of_host) else 1
    pod_of_vm = pod_of_host[hosts]

    us, vs, rates = traffic.pair_arrays()
    pos_u = np.searchsorted(vm_ids, us)
    pos_v = np.searchsorted(vm_ids, vs)
    pod_u = pod_of_vm[pos_u]
    pod_v = pod_of_vm[pos_v]

    # -- pod components over the cross-pod traffic graph -----------------
    uf = _UnionFind(n_pods)
    cross_pod = pod_u != pod_v
    for a, b in zip(pod_u[cross_pod].tolist(), pod_v[cross_pod].tolist()):
        uf.union(a, b)
    component_of_pod = np.array(
        [uf.find(p) for p in range(n_pods)], dtype=np.int64
    )

    # -- greedy-pack components (split oversized ones pod-by-pod) --------
    vms_per_pod = np.bincount(pod_of_vm, minlength=n_pods)
    n_domains = min(n_domains, n_pods)
    target = -(-int(vms_per_pod.sum()) // n_domains)  # ceil
    components: dict = {}
    for pod in range(n_pods):
        components.setdefault(int(component_of_pod[pod]), []).append(pod)
    # Largest VM population first; ties broken by smallest member pod.
    ordered = sorted(
        components.values(),
        key=lambda pods: (-int(vms_per_pod[pods].sum()), pods[0]),
    )
    load = [0] * n_domains
    domain_of_pod = np.zeros(n_pods, dtype=np.int64)

    def lightest() -> int:
        return min(range(n_domains), key=lambda d: (load[d], d))

    for pods in ordered:
        count = int(vms_per_pod[pods].sum())
        if count <= target:
            d = lightest()
            for pod in pods:
                domain_of_pod[pod] = d
            load[d] += count
        else:
            # Oversized component: split across domains; the resulting
            # cross-domain pairs are exactly what reconciliation re-gates.
            for pod in sorted(pods, key=lambda p: (-int(vms_per_pod[p]), p)):
                d = lightest()
                domain_of_pod[pod] = d
                load[d] += int(vms_per_pod[pod])

    # Drop empty domains (renumber by first pod appearance, order-stable).
    used = [d for d in sorted(set(domain_of_pod.tolist())) if load[d] > 0]
    if not used:  # degenerate: no VMs at all
        used = [0]
    renumber = {old: new for new, old in enumerate(used)}
    domain_of_pod = np.array(
        [renumber.get(int(d), 0) for d in domain_of_pod], dtype=np.int64
    )
    n_domains = len(used)

    # -- per-domain populations and pair sets ----------------------------
    domain_of_vm = domain_of_pod[pod_of_vm]
    dom_u = domain_of_pod[pod_u]
    dom_v = domain_of_pod[pod_v]
    cross = dom_u != dom_v
    pods_of_domain = [
        np.nonzero(domain_of_pod == d)[0] for d in range(n_domains)
    ]
    # One stable sort per array groups it by domain and keeps each
    # group in its original (ascending id / pair) order.
    vm_order = np.argsort(domain_of_vm, kind="stable")
    vm_bounds = np.searchsorted(
        domain_of_vm[vm_order], np.arange(n_domains + 1)
    ).tolist()
    vms_of_domain = [
        vm_ids[vm_order[vm_bounds[d] : vm_bounds[d + 1]]]
        for d in range(n_domains)
    ]
    intra = np.flatnonzero(~cross)
    pair_order = intra[np.argsort(dom_u[intra], kind="stable")]
    pair_bounds = np.searchsorted(
        dom_u[pair_order], np.arange(n_domains + 1)
    ).tolist()
    intra_pairs = []
    for d in range(n_domains):
        inside = pair_order[pair_bounds[d] : pair_bounds[d + 1]]
        intra_pairs.append((us[inside], vs[inside], rates[inside]))
    cross_pairs = (us[cross], vs[cross], rates[cross])
    boundary_vms = np.unique(np.concatenate([us[cross], vs[cross]]))
    total_rate = float(rates.sum())
    cross_rate = float(rates[cross].sum())
    return Partition(
        n_domains=n_domains,
        domain_of_pod=domain_of_pod,
        pods_of_domain=pods_of_domain,
        vms_of_domain=vms_of_domain,
        intra_pairs=intra_pairs,
        cross_pairs=cross_pairs,
        boundary_vms=boundary_vms,
        cross_rate_fraction=cross_rate / total_rate if total_rate else 0.0,
    )
