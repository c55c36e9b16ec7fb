"""Tests for the VM and server-capacity models."""

import pytest

from repro.cluster import ServerCapacity, VM


class TestVM:
    def test_defaults(self):
        vm = VM(vm_id=1)
        assert vm.ram_mb == 1024
        assert vm.cpu == 1.0

    def test_ordering_by_id_only(self):
        assert VM(1, ram_mb=4096) < VM(2, ram_mb=128)

    def test_equality_ignores_resources(self):
        assert VM(7, ram_mb=128) == VM(7, ram_mb=512)

    @pytest.mark.parametrize("vm_id", [-1, 2**32])
    def test_id_range_enforced(self, vm_id):
        with pytest.raises(ValueError, match="32 bits"):
            VM(vm_id=vm_id)

    def test_bad_resources_rejected(self):
        with pytest.raises(ValueError):
            VM(1, ram_mb=0)
        with pytest.raises(ValueError):
            VM(1, cpu=0)


class TestServerCapacity:
    def test_paper_default_slots(self):
        assert ServerCapacity().max_vms == 16

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_vms": -1}, {"ram_mb": 0}, {"cpu": 0}, {"nic_bps": 0}],
    )
    def test_non_positive_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerCapacity(**kwargs)

    def test_zero_slots_models_an_offline_host(self):
        assert ServerCapacity(max_vms=0).max_vms == 0
