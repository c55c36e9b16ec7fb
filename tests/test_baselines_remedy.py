"""Tests for the Remedy baseline."""

import pytest

from repro.baselines.remedy import RemedyConfig, RemedyController
from repro.sim.network import LinkLoadCalculator


def stressed(populated, cost_model, target_peak=0.9):
    """Scale the traffic so the hottest link reaches ``target_peak``."""
    allocation, traffic, _ = populated
    calc = LinkLoadCalculator(cost_model.topology)
    peak = calc.max_utilization(allocation, traffic)
    return allocation, traffic.scale(target_peak / peak)


class TestRemedyConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"utilization_threshold": 1.5},
            {"dirty_rate_mbps": 0},
            {"min_benefit_bytes_per_mb": -1},
            {"max_rounds": 0},
            {"candidate_sample": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RemedyConfig(**kwargs)


class TestRemedyController:
    def test_idle_network_no_migrations(self, populated, cost_model):
        allocation, traffic, _ = populated
        controller = RemedyController(
            allocation, traffic.scale(1e-9), cost_model,
            RemedyConfig(utilization_threshold=0.5),
        )
        report = controller.run()
        assert report.n_migrations == 0
        assert report.final_cost == pytest.approx(report.initial_cost)

    def test_reduces_peak_utilization_under_stress(self, populated, cost_model):
        allocation, traffic = stressed(populated, cost_model)
        controller = RemedyController(
            allocation, traffic, cost_model,
            RemedyConfig(utilization_threshold=0.5, max_rounds=30),
        )
        report = controller.run()
        assert report.n_migrations > 0
        assert report.final_max_utilization < report.initial_max_utilization

    def test_cost_reduction_is_modest(self, populated, cost_model):
        """The Fig. 4b contrast: Remedy barely moves the communication cost."""
        allocation, traffic = stressed(populated, cost_model)
        controller = RemedyController(
            allocation, traffic, cost_model,
            RemedyConfig(utilization_threshold=0.5, max_rounds=30),
        )
        report = controller.run()
        assert abs(report.cost_reduction) < 0.35

    def test_migration_cost_model_grows_with_dirty_rate(self, populated, cost_model):
        allocation, traffic, _ = populated
        slow = RemedyController(
            allocation, traffic, cost_model, RemedyConfig(dirty_rate_mbps=5)
        )
        fast = RemedyController(
            allocation, traffic, cost_model, RemedyConfig(dirty_rate_mbps=50)
        )
        vm_id = next(iter(allocation.vm_ids()))
        assert fast.migration_bytes_mb(vm_id) > slow.migration_bytes_mb(vm_id)

    def test_allocation_stays_valid(self, populated, cost_model):
        allocation, traffic = stressed(populated, cost_model)
        RemedyController(
            allocation, traffic, cost_model,
            RemedyConfig(utilization_threshold=0.4, max_rounds=20),
        ).run()
        allocation.validate()
