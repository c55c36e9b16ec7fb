"""The columnar ``Allocation`` against a dict-backed model of it.

``Allocation`` keeps its state as columns (ids ascending, host, RAM,
CPU) and per-host usage arrays.  The state machine
below drives it and :class:`DictAllocation` — a small model with the
dict/set layout and element-by-element accounting the allocation used
to have — through the whole mutation API, and after every step demands
the same ``server_of``, ``vms_on``, bit-exact ``free_slots`` /
``free_ram_mb`` / ``free_cpu`` and the same ``version``.  CPU demands
are not dyadic, so the per-host sums depend on their order: a batch op
that accumulated in another order than one-by-one placement would show.
Every rejected batch must raise the model's error type and leave the
state untouched.

The rest pins what a pickle round trip owes the current layout.
Allocations, clusters and engines pickle by default (no restore hook
rebuilds a copy) and run on, a manager restores what its pickle drops, a
restored scheduler re-scores without changing its trajectory, and a
paper-scale allocation pickles without a single ``VM``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import CanonicalTree, Cluster, ServerCapacity
from repro.cluster.allocation import Allocation, CapacityError
from repro.cluster.manager import PlacementManager
from repro.cluster.vm import VM
from repro.reference import host_rows
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)

N_HOSTS = 8
ID_POOL = range(1, 41)
CPUS = (0.1, 0.3, 0.7, 1.1)
RAMS = (256, 512, 768)


def small_cluster() -> Cluster:
    tree = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    return Cluster(tree, ServerCapacity(max_vms=4, ram_mb=2048, cpu=2.0))


class DictAllocation:
    """Dict-backed model: one python update per VM, in operation order."""

    def __init__(self, n_hosts: int) -> None:
        self.vms = {}  # vm id -> (ram_mb, cpu)
        self.host_of = {}
        self.vms_on = [set() for _ in range(n_hosts)]
        self.used_ram = [0] * n_hosts
        self.used_cpu = [0.0] * n_hosts
        self.version = 0

    def state(self):
        return (
            dict(self.vms), dict(self.host_of),
            [set(s) for s in self.vms_on], list(self.used_ram),
            list(self.used_cpu), self.version,
        )

    def restore(self, state) -> None:
        (self.vms, self.host_of, self.vms_on, self.used_ram,
         self.used_cpu, self.version) = state

    def _place(self, vm_id, ram, cpu, host) -> None:
        self.vms[vm_id] = (ram, cpu)
        self.host_of[vm_id] = host
        self.vms_on[host].add(vm_id)
        self.used_ram[host] += ram
        self.used_cpu[host] += cpu

    def _unplace(self, vm_id) -> None:
        ram, cpu = self.vms.pop(vm_id)
        host = self.host_of.pop(vm_id)
        self.vms_on[host].discard(vm_id)
        self.used_ram[host] -= ram
        self.used_cpu[host] -= cpu

    def add_vms(self, batch, cluster) -> None:
        ids = [vm_id for vm_id, _, _, _ in batch]
        if len(set(ids)) != len(ids) or any(v in self.vms for v in ids):
            raise ValueError
        slots, ram_cap, cpu_cap, _ = cluster.capacity_arrays()
        need = {}
        for _, ram, cpu, host in batch:
            n, r, c = need.get(host, (0, 0, 0.0))
            need[host] = (n + 1, r + ram, c + cpu)
        for host, (n, r, c) in need.items():
            if (
                slots[host] - len(self.vms_on[host]) < n
                or ram_cap[host] - self.used_ram[host] < r
                or cpu_cap[host] - self.used_cpu[host] < c
            ):
                raise CapacityError
        for vm_id, ram, cpu, host in batch:
            self._place(vm_id, ram, cpu, host)
        if batch:
            self.version += 1

    def remove_vms(self, ids) -> None:
        if len(set(ids)) != len(ids):
            raise ValueError
        if any(v not in self.vms for v in ids):
            raise KeyError
        for vm_id in ids:
            self._unplace(vm_id)
        if ids:
            self.version += 1

    def migrate_many(self, moves, cluster) -> None:
        moves = [(v, t) for v, t in moves if self.host_of[v] != t]
        if not moves:
            return
        slots, ram_cap, cpu_cap, _ = cluster.capacity_arrays()
        for vm_id, target in moves:
            ram, cpu = self.vms[vm_id]
            if (
                slots[target] - len(self.vms_on[target]) < 1
                or ram_cap[target] - self.used_ram[target] < ram
                or cpu_cap[target] - self.used_cpu[target] < cpu
            ):
                raise CapacityError
        for vm_id, target in moves:
            ram, cpu = self.vms[vm_id]
            self._unplace(vm_id)
            self._place(vm_id, ram, cpu, target)
        self.version += 1

    def apply_mapping(self, mapping, cluster) -> None:
        before = self.state()
        resources = {v: self.vms[v] for v in mapping}
        for vm_id in mapping:
            self._unplace(vm_id)
        try:
            self.add_vms(
                [(v, *resources[v], host) for v, host in mapping.items()],
                cluster,
            )
        except CapacityError:
            self.restore(before)
            raise
        self.version = before[-1] + 1


def allocation_state(allocation: Allocation):
    """Everything observable, for untouched-after-rejection checks."""
    n = allocation.cluster.n_servers
    return (
        allocation.as_dict(),
        [allocation.vms_on(h) for h in range(n)],
        [
            (allocation.free_slots(h), allocation.free_ram_mb(h),
             allocation.free_cpu(h))
            for h in range(n)
        ],
        allocation.version,
    )


class AllocationMachine(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        self.allocation = Allocation(small_cluster())
        self.model = DictAllocation(N_HOSTS)

    @property
    def cluster(self) -> Cluster:
        return self.allocation.cluster

    def both(self, act_columns, act_model) -> None:
        """Run one mutation on both; a rejection must match and leave
        both untouched."""
        before = allocation_state(self.allocation)
        model_before = self.model.state()
        try:
            act_model()
        except (ValueError, KeyError, CapacityError) as exc:
            self.model.restore(model_before)
            with pytest.raises(type(exc)):
                act_columns()
            assert allocation_state(self.allocation) == before
            return
        act_columns()

    def placed(self, data, max_size):
        ids = sorted(self.model.vms)
        return data.draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=max_size)
        )

    @rule(data=st.data())
    def add_vms(self, data):
        batch = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ID_POOL), st.sampled_from(RAMS),
                    st.sampled_from(CPUS), st.integers(0, N_HOSTS - 1),
                ),
                min_size=1,
                max_size=6,
                unique_by=lambda arrival: arrival[0],
            )
        )
        self.both(
            lambda: self.allocation.add_vms(
                [VM(v, r, c) for v, r, c, _ in batch], [h for *_, h in batch]
            ),
            lambda: self.model.add_vms(batch, self.cluster),
        )

    @rule(vm_id=st.sampled_from(ID_POOL), ram=st.sampled_from(RAMS),
          cpu=st.sampled_from(CPUS), host=st.integers(0, N_HOSTS - 1))
    def add_vm(self, vm_id, ram, cpu, host):
        self.both(
            lambda: self.allocation.add_vm(VM(vm_id, ram, cpu), host),
            lambda: self.model.add_vms([(vm_id, ram, cpu, host)], self.cluster),
        )

    @rule(data=st.data())
    def remove_vms(self, data):
        ids = data.draw(st.lists(st.sampled_from(ID_POOL), max_size=4))
        self.both(
            lambda: self.allocation.remove_vms(ids),
            lambda: self.model.remove_vms(ids),
        )

    @precondition(lambda self: self.model.vms)
    @rule(data=st.data())
    def remove_vm(self, data):
        vm_id = self.placed(data, 1)[0]
        ram, cpu = self.model.vms[vm_id]
        self.model.remove_vms([vm_id])
        assert self.allocation.remove_vm(vm_id) == VM(vm_id, ram, cpu)

    @precondition(lambda self: self.model.vms)
    @rule(data=st.data())
    def migrate_many(self, data):
        # A single move is a wave of one (``placed`` draws at least one).
        ids = list(dict.fromkeys(self.placed(data, 5)))
        # Pairwise distinct targets: the wave planner's contract, under
        # which checking each move on its own is exact.
        targets = data.draw(
            st.lists(st.integers(0, N_HOSTS - 1), min_size=len(ids),
                     max_size=len(ids), unique=True)
        )
        moves = list(zip(ids, targets))
        self.both(
            lambda: self.allocation.migrate_many(moves),
            lambda: self.model.migrate_many(moves, self.cluster),
        )

    @precondition(lambda self: self.model.vms)
    @rule(data=st.data())
    def apply_mapping(self, data):
        ids = list(dict.fromkeys(self.placed(data, 6)))
        mapping = {
            v: data.draw(st.integers(0, N_HOSTS - 1)) for v in ids
        }
        self.both(
            lambda: self.allocation.apply_mapping(mapping),
            lambda: self.model.apply_mapping(mapping, self.cluster),
        )

    @rule()
    def copy(self):
        original = allocation_state(self.allocation)
        clone = self.allocation.copy()
        assert clone.version == 0
        if self.model.vms:
            vm_id = min(self.model.vms)
            free = [h for h in range(N_HOSTS) if clone.can_host(h, clone.vm(vm_id))]
            if free:
                clone.migrate_many([(vm_id, free[-1])])
        assert allocation_state(self.allocation) == original
        self.allocation = self.allocation.copy()
        self.model.version = 0

    @rule(data=st.data(), host=st.integers(0, N_HOSTS - 1))
    def set_host_capacity(self, data, host):
        # Sizes straddle the usage: below it on any dimension the resize
        # is refused and nothing changes.
        used = len(self.model.vms_on[host])
        slots = data.draw(st.integers(max(used - 1, 0), used + 3))
        ram = self.model.used_ram[host] + data.draw(
            st.sampled_from((-256, 256, 1024))
        )
        cpu = self.model.used_cpu[host] + data.draw(
            st.sampled_from((-0.5, 0.5, 1.0, 2.0))
        )

        def model_check():
            if (
                slots < used
                or ram < self.model.used_ram[host]
                or cpu < self.model.used_cpu[host]
            ):
                raise ValueError

        self.both(
            lambda: self.allocation.set_host_capacity(
                host, max_vms=slots, ram_mb=ram, cpu=cpu
            ),
            model_check,
        )
        assert self.cluster.total_vm_slots == int(
            self.cluster.capacity_arrays()[0].sum()
        )

    @rule()
    def pickle_round_trip(self):
        # The restored cluster is a copy: later resizes go to it (and must
        # be accepted over its unpickled capacity columns).
        self.allocation = pickle.loads(
            pickle.dumps(self.allocation, protocol=pickle.HIGHEST_PROTOCOL)
        )

    @invariant()
    def agrees_with_the_model(self):
        if not hasattr(self, "allocation"):
            return
        allocation, model = self.allocation, self.model
        assert allocation.version == model.version
        assert allocation.n_vms == len(model.vms)
        assert allocation.as_dict() == model.host_of
        assert list(allocation.vm_ids()) == sorted(model.vms)
        slots, ram_cap, cpu_cap, _ = self.cluster.capacity_arrays()
        for host in range(N_HOSTS):
            assert allocation.vms_on(host) == model.vms_on[host]
            assert allocation.free_slots(host) == slots[host] - len(
                model.vms_on[host]
            )
            assert allocation.free_ram_mb(host) == ram_cap[host] - model.used_ram[host]
            assert allocation.free_cpu(host) == cpu_cap[host] - model.used_cpu[host]
        for vm in allocation.vms():
            assert (vm.ram_mb, vm.cpu) == model.vms[vm.vm_id]
            assert allocation.server_of(vm.vm_id) == model.host_of[vm.vm_id]
        ids, hosts, ram, cpu = allocation.validate()
        assert ids.tolist() == sorted(model.vms)


TestAllocationMachine = AllocationMachine.TestCase
TestAllocationMachine.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)


# -- pickling -----------------------------------------------------------------


def _reload(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _no_restore_hook(cls):
    return not {"__getstate__", "__setstate__"} & set(vars(cls))


def test_a_restored_allocation_answers_validates_and_migrates():
    allocation = Allocation(small_cluster())
    allocation.add_vms(
        [VM(v, 512, cpu) for v, cpu in zip((9, 3, 5, 7), CPUS)], [1, 1, 4, 6]
    )
    allocation.migrate_many([(3, 2), (5, 1)])
    assert _no_restore_hook(Allocation)
    restored = _reload(allocation)
    assert set(vars(restored)) == set(vars(allocation))
    assert allocation_state(restored) == allocation_state(allocation)
    assert restored._used_cpu.tolist() == allocation._used_cpu.tolist()
    assert restored.vms_on(1) == {9, 5}
    restored.validate()
    restored.migrate_many([(9, 2)])
    restored.add_vm(VM(11, 256, 0.3), 1)
    assert (restored.vms_on(1), restored.vms_on(2)) == ({5, 11}, {3, 9})
    restored.validate()
    assert allocation.vms_on(1) == {9, 5}


def test_a_restored_manager_issues_on_from_its_runs():
    manager = PlacementManager(small_cluster())
    vms = manager.create_vms(3, ram_mb=256, cpu=0.5)
    restored = _reload(manager)
    assert restored.issued_vms() == vms
    assert [vm.ram_mb for vm in restored.issued_vms()] == [256] * 3
    assert restored.create_vm().vm_id == 4


def test_a_restored_cluster_resizes_its_unpickled_columns():
    cluster = small_cluster()
    assert _no_restore_hook(Cluster)
    restored = _reload(cluster)
    # The columns come back over the pickle's immutable bytes.
    assert not restored.capacity_arrays()[0].flags.writeable
    restored.set_host_capacity(3, ServerCapacity(max_vms=0))
    assert restored.capacity_arrays()[0].tolist() == [4, 4, 4, 0, 4, 4, 4, 4]
    assert restored.total_vm_slots == 28
    assert cluster.total_vm_slots == 32


def test_a_restored_cluster_answers_each_hosts_capacity():
    cluster = small_cluster()
    cluster.set_host_capacity(
        5, ServerCapacity(max_vms=3, ram_mb=1024, cpu=1.5, nic_bps=2e9)
    )
    restored = _reload(cluster)
    assert [restored.capacity(h) for h in range(N_HOSTS)] == [
        cluster.capacity(h) for h in range(N_HOSTS)
    ]
    for host in (-1, N_HOSTS):
        with pytest.raises(ValueError, match="out of range"):
            restored.capacity(host)


def test_a_restored_engine_reads_a_later_resize_and_runs_on():
    """An engine pickles everything but its round cache; restored, it
    reads capacity from its cluster at each use, so a resize made after
    the restore is seen, and it scores and migrates as the live one."""
    scheduler = _scheduler(seed=4)
    scheduler.run(n_iterations=1)
    fast = scheduler.fastcost
    allocation = scheduler.allocation
    assert "__setstate__" not in vars(type(fast))
    restored = _reload(fast)
    assert restored._round_cache is None
    assert restored.snapshot is restored.traffic.store
    assert restored.in_sync
    assert restored.total_cost() == fast.total_cost()
    ids = allocation.columns()[0]
    every = np.arange(len(ids))
    batch = restored.candidate_batch(every)
    targets = restored.candidate_feasible(batch)
    assert (targets >= 0).any()
    host = int(targets[np.argmax(targets >= 0)])
    # Fill that target's slots on both sides, after the restore.
    for engine in (fast, restored):
        used = int(engine.allocation.usage()[0][host])
        engine.allocation.set_host_capacity(host, max_vms=used)
    ours, theirs = fast.candidate_batch(every), restored.candidate_batch(every)
    for mine, restored_rows in zip(host_rows(ours), host_rows(theirs)):
        assert np.array_equal(mine, restored_rows)
    targets = restored.candidate_feasible(theirs, bandwidth_threshold=0.9)
    _owner, hosts, _delta, _onto, rows = host_rows(theirs)
    assert not (targets[rows[hosts == host]] == host).any()
    assert np.array_equal(
        targets, fast.candidate_feasible(ours, bandwidth_threshold=0.9)
    )
    vm_id = int(ids[0])
    target = next(
        h for h in range(allocation.cluster.n_servers)
        if h != allocation.server_of(vm_id)
        and allocation.can_host(h, allocation.vm(vm_id))
    )
    ours = fast.apply_moves(fast.dense_indices([vm_id]), [target])
    theirs = restored.apply_moves(restored.dense_indices([vm_id]), [target])
    assert np.array_equal(theirs, ours)
    assert restored.allocation.as_dict() == allocation.as_dict()
    assert restored.total_cost() == fast.total_cost()


def _scheduler(seed=3):
    config = ExperimentConfig(
        n_racks=4, hosts_per_rack=4, tors_per_agg=2, n_cores=1,
        vms_per_host=4, seed=seed,
    )
    return make_scheduler(build_environment(config))


def test_a_restored_scheduler_rescores_without_changing_the_trajectory():
    scheduler = _scheduler(seed=5)
    scheduler.run(n_iterations=1)
    assert scheduler.fastcost.round_cache(None).valid is not None
    restored = pickle.loads(
        pickle.dumps(scheduler, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert restored.fastcost._round_cache is None
    ours = scheduler.run(n_iterations=3)
    theirs = restored.run(n_iterations=3)
    assert theirs.final_cost == ours.final_cost
    assert theirs.total_migrations == ours.total_migrations
    assert restored.allocation.as_dict() == scheduler.allocation.as_dict()


def test_a_paper_scale_allocation_pickles_as_arrays_only():
    environment = build_environment(ExperimentConfig.paper_canonical())
    allocation = environment.allocation
    assert allocation.n_vms == 34_816
    blob = pickle.dumps(allocation, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"repro.cluster.vm" not in blob
    restored = pickle.loads(blob)
    assert np.array_equal(restored.validate()[1], allocation.validate()[1])
    assert restored._used_cpu.tolist() == allocation._used_cpu.tolist()
