"""Tests for the Allocation state machine."""

import pytest

from repro.cluster import Allocation, CapacityError, Cluster, ServerCapacity, VM
from repro.topology import CanonicalTree


@pytest.fixture
def cluster():
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    return Cluster(topo, ServerCapacity(max_vms=2, ram_mb=2048, cpu=4.0))


@pytest.fixture
def allocation(cluster):
    return Allocation(cluster)


def vm(vm_id, ram=256, cpu=0.5):
    return VM(vm_id, ram_mb=ram, cpu=cpu)


class TestPlacement:
    def test_add_and_lookup(self, allocation):
        allocation.add_vm(vm(1), 3)
        assert allocation.server_of(1) == 3
        assert 1 in allocation
        assert allocation.vms_on(3) == frozenset({1})
        assert allocation.n_vms == 1

    def test_duplicate_add_rejected(self, allocation):
        allocation.add_vm(vm(1), 0)
        with pytest.raises(ValueError, match="already"):
            allocation.add_vm(vm(1), 1)

    def test_slot_capacity_enforced(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.add_vm(vm(2), 0)
        with pytest.raises(CapacityError):
            allocation.add_vm(vm(3), 0)

    def test_ram_capacity_enforced(self, allocation):
        allocation.add_vm(vm(1, ram=1536), 0)
        with pytest.raises(CapacityError):
            allocation.add_vm(vm(2, ram=1024), 0)

    def test_remove(self, allocation):
        allocation.add_vm(vm(1), 0)
        removed = allocation.remove_vm(1)
        assert removed.vm_id == 1
        assert 1 not in allocation
        assert allocation.free_slots(0) == 2

    def test_bad_host_rejected(self, allocation):
        with pytest.raises(ValueError):
            allocation.add_vm(vm(1), 99)


class TestMigration:
    def test_migrate_moves_vm(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.migrate_many([(1, 5)])
        assert allocation.server_of(1) == 5
        assert allocation.vms_on(0) == frozenset()
        assert allocation.vms_on(5) == frozenset({1})

    def test_migrate_to_self_is_noop(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.migrate_many([(1, 0)])
        assert allocation.server_of(1) == 0

    def test_migrate_respects_capacity(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.add_vm(vm(2), 1)
        allocation.add_vm(vm(3), 1)
        with pytest.raises(CapacityError):
            allocation.migrate_many([(1, 1)])
        # Failed migration must not corrupt state.
        assert allocation.server_of(1) == 0
        allocation.validate()

    def test_accounting_after_migrations(self, allocation):
        allocation.add_vm(vm(1, ram=512), 0)
        allocation.add_vm(vm(2, ram=512), 0)
        allocation.migrate_many([(1, 2)])
        assert allocation.free_ram_mb(0) == 2048 - 512
        assert allocation.free_ram_mb(2) == 2048 - 512
        allocation.validate()

    def test_migrate_many_moves_the_wave(self, allocation):
        allocation.add_vms([vm(1, ram=512), vm(2), vm(3)], [0, 0, 1])
        allocation.migrate_many([(1, 4), (2, 0), (3, 5)])  # (2, 0) is a no-op
        assert [allocation.server_of(i) for i in (1, 2, 3)] == [4, 0, 5]
        assert allocation.free_ram_mb(0) == 2048 - 256
        assert allocation.free_ram_mb(4) == 2048 - 512
        allocation.validate()

    def test_migrate_many_rejects_the_whole_wave_at_the_first_misfit(
        self, allocation
    ):
        allocation.add_vms(
            [vm(1), vm(2), vm(3), vm(4, ram=2000), vm(5)], [0, 0, 1, 2, 3]
        )
        before = allocation.as_dict()
        version = allocation.version
        # VM 3 fits host 4; VM 5 overflows host 2's RAM and VM 1 host 1's
        # slots: the first misfit in wave order is the one named.
        with pytest.raises(CapacityError) as rejected:
            allocation.migrate_many([(3, 4), (5, 2), (1, 1), (2, 1)])
        assert str(rejected.value) == (
            "wave rejected: VM 5 does not fit host 2: "
            "slots=1, ram=48MiB, cpu=3.5"
        )
        assert allocation.as_dict() == before
        assert allocation.version == version
        allocation.validate()

    def test_migrate_many_sees_a_resized_host(self, allocation, cluster):
        allocation.add_vms([vm(1), vm(2)], [0, 1])
        cluster.set_host_capacity(5, ServerCapacity(max_vms=0, ram_mb=2048, cpu=4.0))
        with pytest.raises(CapacityError, match="VM 1 does not fit host 5"):
            allocation.migrate_many([(1, 5)])
        cluster.set_host_capacity(5, ServerCapacity(max_vms=1, ram_mb=2048, cpu=4.0))
        allocation.migrate_many([(1, 5)])
        assert allocation.server_of(1) == 5
        with pytest.raises(KeyError):
            allocation.migrate_many([(99, 0)])


class TestLevels:
    def test_level_between_vms(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.add_vm(vm(2), 1)  # same rack (2 hosts per rack)
        allocation.add_vm(vm(3), 2)  # next rack, same agg
        allocation.add_vm(vm(4), 6)  # other agg
        assert allocation.level_between(1, 2) == 1
        assert allocation.level_between(1, 3) == 2
        assert allocation.level_between(1, 4) == 3

    def test_colocated_level_zero(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.add_vm(vm(2), 0)
        assert allocation.level_between(1, 2) == 0


class TestCopyAndMappings:
    def test_copy_is_independent(self, allocation):
        allocation.add_vm(vm(1), 0)
        clone = allocation.copy()
        clone.migrate_many([(1, 4)])
        assert allocation.server_of(1) == 0
        assert clone.server_of(1) == 4
        allocation.validate()
        clone.validate()

    def test_as_dict_roundtrip(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.add_vm(vm(2), 3)
        mapping = allocation.as_dict()
        assert mapping == {1: 0, 2: 3}

    def test_apply_mapping(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.add_vm(vm(2), 0)
        allocation.apply_mapping({1: 4, 2: 5})
        assert allocation.server_of(1) == 4
        assert allocation.server_of(2) == 5
        allocation.validate()

    def test_apply_mapping_unknown_vm_rejected(self, allocation):
        allocation.add_vm(vm(1), 0)
        with pytest.raises(ValueError, match="unknown"):
            allocation.apply_mapping({9: 0})

    def test_mapping_feasibility(self, allocation):
        allocation.add_vm(vm(1), 0)
        allocation.add_vm(vm(2), 1)
        allocation.add_vm(vm(3), 2)
        assert allocation.mapping_is_feasible({1: 0, 2: 0, 3: 1})
        assert not allocation.mapping_is_feasible({1: 0, 2: 0, 3: 0})

    def test_subset_mirrors_from_placement(self, allocation, cluster):
        allocation.add_vms([vm(1, 512, 1.0), vm(2), vm(3, 1024, 2.0)], [0, 1, 2])
        sub = allocation.subset(cluster, [3, 1], [5, 5])
        twin = Allocation.from_placement(
            cluster, [vm(3, 1024, 2.0), vm(1, 512, 1.0)], [5, 5]
        )
        assert [(v.vm_id, v.ram_mb, v.cpu) for v in sub.vms()] == [
            (v.vm_id, v.ram_mb, v.cpu) for v in twin.vms()
        ]
        assert sub.as_dict() == twin.as_dict() == {1: 5, 3: 5}
        assert [a.tolist() for a in sub.usage()] == [
            a.tolist() for a in twin.usage()
        ]
        sub.validate()
        with pytest.raises(KeyError):
            allocation.subset(cluster, [9], [0])
        with pytest.raises(CapacityError):
            allocation.subset(cluster, [1, 2, 3], [0, 0, 0])


class TestBatchChurn:
    """First-class VM arrival/departure batches (tenant churn)."""

    def test_add_vms_places_the_batch(self, allocation):
        allocation.add_vms([vm(1), vm(2), vm(3)], [0, 0, 5])
        assert allocation.server_of(1) == 0
        assert allocation.server_of(2) == 0
        assert allocation.server_of(3) == 5
        allocation.validate()

    def test_add_vms_atomic_on_shared_host_overflow(self, allocation):
        # Host 0 has 2 slots; 3 arrivals aimed at it must all be rejected.
        with pytest.raises(CapacityError):
            allocation.add_vms([vm(1), vm(2), vm(3)], [0, 0, 0])
        assert allocation.n_vms == 0

    def test_add_vms_rejects_duplicates_and_mismatch(self, allocation):
        with pytest.raises(ValueError, match="duplicate"):
            allocation.add_vms([vm(1), vm(1)], [0, 1])
        with pytest.raises(ValueError, match="hosts"):
            allocation.add_vms([vm(1)], [0, 1])
        allocation.add_vm(vm(5), 0)
        with pytest.raises(ValueError, match="already placed"):
            allocation.add_vms([vm(5)], [1])

    def test_remove_vms_returns_in_order(self, allocation):
        allocation.add_vms([vm(1), vm(2), vm(3)], [0, 1, 2])
        removed = allocation.remove_vms([3, 1])
        assert [v.vm_id for v in removed] == [3, 1]
        assert allocation.n_vms == 1
        allocation.validate()

    def test_remove_vms_atomic_on_unknown(self, allocation):
        allocation.add_vms([vm(1), vm(2)], [0, 1])
        with pytest.raises(KeyError):
            allocation.remove_vms([1, 99])
        assert allocation.n_vms == 2


class TestVersionCounter:
    def test_mutations_bump_once_per_batch(self, allocation):
        v0 = allocation.version
        allocation.add_vms([vm(1), vm(2)], [0, 1])
        assert allocation.version == v0 + 1
        allocation.migrate_many([(1, 4)])
        assert allocation.version == v0 + 2
        allocation.migrate_many([(1, 4)])  # no-op migration: no bump
        assert allocation.version == v0 + 2
        allocation.migrate_many([(1, 5), (2, 6)])
        assert allocation.version == v0 + 3
        allocation.migrate_many([(1, 5)])  # all no-ops: no bump
        assert allocation.version == v0 + 3
        allocation.remove_vms([1, 2])
        assert allocation.version == v0 + 4

    def test_empty_batches_do_not_bump(self, allocation):
        v0 = allocation.version
        allocation.add_vms([], [])
        allocation.remove_vms([])
        assert allocation.version == v0
