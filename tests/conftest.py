"""Shared fixtures: small-but-nontrivial topologies, clusters and workloads."""

from __future__ import annotations

import os

import pytest

from repro import (
    CanonicalTree,
    Cluster,
    CostModel,
    DCTrafficGenerator,
    FatTree,
    PlacementManager,
    SPARSE,
    ServerCapacity,
    place_random,
)


@pytest.fixture
def small_tree() -> CanonicalTree:
    """Canonical tree: 8 racks x 4 hosts, 2 aggs, 2 cores (32 hosts)."""
    return CanonicalTree(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)


@pytest.fixture
def small_fattree() -> FatTree:
    """k=4 fat-tree: 16 hosts, 8 racks, 4 pods."""
    return FatTree(k=4)


@pytest.fixture
def small_cluster(small_tree) -> Cluster:
    """Cluster over the small tree, 4 VM slots per server."""
    return Cluster(small_tree, ServerCapacity(max_vms=4, ram_mb=8192, cpu=8.0))


@pytest.fixture
def populated(small_cluster):
    """A cluster with 64 VMs randomly placed plus a sparse traffic matrix.

    Returns (allocation, traffic, manager).
    """
    manager = PlacementManager(small_cluster)
    vms = manager.create_vms(64, ram_mb=512, cpu=0.5)
    allocation = place_random(small_cluster, vms, seed=11)
    traffic = DCTrafficGenerator(
        [vm.vm_id for vm in vms], SPARSE, seed=11
    ).generate()
    return allocation, traffic, manager


@pytest.fixture
def cost_model(small_tree) -> CostModel:
    """Paper-weight cost model over the small tree."""
    return CostModel(small_tree)


@pytest.fixture
def own_shm_slabs():
    """Lists this process's shard slabs (``reproshard_<pid>_<n>``) in
    ``/dev/shm``: a leak check must not see another process's run."""
    prefix = f"reproshard_{os.getpid()}_"
    return lambda: {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
