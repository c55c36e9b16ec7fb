"""The numpy invariant tier: one corruption at a time, same verdicts.

``check_engine_invariants`` and ``Allocation.validate`` walk no VM in
python any more; what they report must not have moved.  Every row below
corrupts exactly one thing on a healthy stack and pins the invariant
name, the offending indices and (for the allocation's own checks) the
message — the values the per-element walks reported for the same
corruption.  The token tier has one row: its levels are ``uint8`` (in
range by dtype) and no level buckets remain to disagree, so what can
still break is the ascending id order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CanonicalTree, Cluster, CostModel, ServerCapacity
from repro.cluster.allocation import Allocation
from repro.cluster.vm import VM
from repro.core.migration import MigrationEngine
from repro.core.policies import policy_by_name
from repro.core.scheduler import SCOREScheduler
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.traffic.matrix import TrafficMatrix
from repro.util.validation import InvariantViolation, check_engine_invariants

SMALL = dict(n_racks=8, hosts_per_rack=2, vms_per_host=4, fill_fraction=0.6)


def healthy():
    """A settled rr stack: every token level is 0."""
    config = ExperimentConfig(seed=9, policy="rr", **SMALL)
    scheduler = make_scheduler(build_environment(config))
    scheduler.run(n_iterations=1)
    check_engine_invariants(scheduler, deep=False)
    return scheduler


def _busy_host(scheduler):
    allocation = scheduler.allocation
    return next(
        h for h in range(allocation.cluster.n_servers) if allocation.vms_on(h)
    )


# Each corruption mutates the stack and returns (invariant, indices,
# message fragment).
def ids_out_of_order(s):
    # The token's id column is the allocation's: swap in a private copy.
    ids = s.token._ids.copy()
    a, b = int(ids[2]), int(ids[3])
    ids[2], ids[3] = b, a
    s.token._ids = ids
    return "token-order", (a,), f"vm {a} follows vm {b}"


def token_membership(s):
    vm = s.token.vm_ids[1]
    s.token.retire([vm], np.delete(s.token.ids, 1))
    return "token-membership", (vm,), "allocation places"


def host_column(s):
    allocation = s.allocation
    vm = int(allocation.columns()[0][3])
    source = allocation.server_of(vm)
    moved = (source + 1) % allocation.cluster.n_servers
    allocation._host[3] = moved
    # The slot usage no longer matches the column on either host.
    return (
        "allocation-structure",
        (),
        f"host {min(source, moved)} slot accounting drift",
    )


def slot_accounting(s):
    s.allocation._used_slots[2] += 1
    return "allocation-structure", (), "host 2 slot accounting drift"


def ram_accounting(s):
    s.allocation._used_ram[4] += 1
    return "allocation-structure", (), "host 4 RAM accounting drift"


def cpu_accounting(s):
    s.allocation._used_cpu[7] += 0.5
    return "allocation-structure", (), "host 7 CPU accounting drift"


def lowest_host_first_check(s):
    # Two hosts fail at once, the lower one on two counts: its first
    # failing check (slots, then RAM, CPU accounting, RAM capacity) wins.
    host = _busy_host(s)
    s.allocation._used_ram[host] += 1
    s.allocation._used_ram[host + 1] += 1
    cluster = s.allocation.cluster
    capacity = cluster.capacity(host)
    cluster.set_host_capacity(
        host,
        ServerCapacity(
            max_vms=0, ram_mb=capacity.ram_mb, cpu=capacity.cpu,
            nic_bps=capacity.nic_bps,
        ),
    )
    return "allocation-structure", (), f"host {host} over slot capacity"


CORRUPTIONS = [
    ids_out_of_order, token_membership, host_column, slot_accounting,
    ram_accounting, cpu_accounting,
    lowest_host_first_check,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
def test_one_corruption_one_verdict(corrupt):
    scheduler = healthy()
    invariant, indices, fragment = corrupt(scheduler)
    with pytest.raises(InvariantViolation) as caught:
        check_engine_invariants(scheduler, context="table", deep=False)
    assert caught.value.invariant == invariant
    assert caught.value.indices == indices
    assert fragment in str(caught.value)
    assert caught.value.context == "table"


# -- deep tier: the egress mirror's tolerance --------------------------------

GBPS = 4e10


def _crossing_stack():
    """Hosts 0/1 exchange tens of Gbps over six pairs; hosts 4/6 carry an
    anchor pair that never moves (the fleet's egress magnitude)."""
    tree = CanonicalTree(n_racks=8, hosts_per_rack=2, tors_per_agg=4, n_cores=2)
    cluster = Cluster(tree, ServerCapacity(max_vms=8, ram_mb=1 << 20, cpu=64.0))
    allocation = Allocation(cluster)
    allocation.add_vms(
        [VM(i, 512, 0.5) for i in range(8)], [0, 0, 0, 1, 1, 1, 4, 6]
    )
    traffic = TrafficMatrix.from_pairs([
        (0, 3, GBPS / 3), (0, 4, GBPS / 7), (1, 4, GBPS * 1.1),
        (1, 5, GBPS / 11), (2, 3, GBPS / 13), (2, 5, GBPS * 0.7),
        (6, 7, GBPS * 1.3),
    ])
    return SCOREScheduler(
        allocation, traffic, policy_by_name("rr"),
        MigrationEngine(CostModel(tree)),
    )


def test_fully_localized_host_keeps_residue_not_a_violation():
    scheduler = _crossing_stack()
    fast = scheduler.fastcost
    for vm, target in [(3, 0), (4, 0), (5, 0)]:
        fast.apply_moves(fast.dense_indices([vm]), [target])
    # Everything hosts 0 and 1 exchanged is local now: their egress is
    # exactly zero, the incrementally maintained mirror is not.
    residue = max(fast.host_egress(0), fast.host_egress(1))
    assert 1e-6 < residue < 1e-3  # beyond the former fixed 1e-6 floor
    check_engine_invariants(scheduler, deep=True)


def test_a_few_bps_per_gbps_of_real_desync_still_trips():
    scheduler = _crossing_stack()
    fast = scheduler.fastcost
    check_engine_invariants(scheduler, deep=True)
    busiest = int(np.argmax(fast._egress))
    fast._egress[busiest] *= 1 + 3e-9
    with pytest.raises(InvariantViolation) as caught:
        check_engine_invariants(scheduler, deep=True)
    assert caught.value.invariant == "egress-mirror"
    assert caught.value.indices == (busiest,)


def test_a_store_index_that_no_longer_matches_its_pairs_trips():
    """λ lives once: the spliced store is checked against a canonical
    rebuild of its own pair list (what the pair-count tier became)."""
    scheduler = _crossing_stack()
    check_engine_invariants(scheduler, deep=True)
    order = scheduler.traffic.store._pair_sorted_order
    order[[0, 1]] = order[[1, 0]]
    with pytest.raises(InvariantViolation) as caught:
        check_engine_invariants(scheduler, deep=True)
    assert caught.value.invariant == "store-rebuild"
    assert "_pair_sorted_order" in str(caught.value)
