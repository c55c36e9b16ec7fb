"""End-to-end integration: every layer of the stack in one scenario.

Builds an environment, runs S-CORE, the GA, the exact solver (on a carved-
out tiny sub-instance), Remedy, and the fair-share model, and asserts the
cross-module consistency relations that make the reproduction trustworthy.
"""

import numpy as np
import pytest

from repro.baselines.ga import GAConfig, GeneticOptimizer
from repro.baselines.remedy import RemedyConfig, RemedyController
from repro.sim import (
    ExperimentConfig,
    MaxMinFairAllocator,
    build_environment,
    run_experiment,
)
from repro.sim.network import LinkLoadCalculator


CONFIG = ExperimentConfig(
    n_racks=8,
    hosts_per_rack=4,
    tors_per_agg=4,
    n_cores=2,
    vms_per_host=6,
    fill_fraction=0.8,
    pattern="medium",
    policy="hlf",
    n_iterations=4,
    seed=77,
)


@pytest.fixture(scope="module")
def pipeline():
    """Run the whole pipeline once; individual tests assert on slices."""
    env = build_environment(CONFIG)
    calc = LinkLoadCalculator(env.topology)
    fair = MaxMinFairAllocator(env.topology)

    initial_cost = env.cost_model.total_cost(env.allocation, env.traffic)
    utilization_before = calc.utilizations_by_level(env.allocation, env.traffic)
    tor_before = env.traffic.tor_matrix(env.allocation)

    ga = GeneticOptimizer(
        env.allocation, env.traffic, env.cost_model,
        GAConfig(population_size=30, max_generations=60, seed=77),
    ).run()

    result = run_experiment(CONFIG, environment=env)
    utilization_after = calc.utilizations_by_level(env.allocation, env.traffic)
    tor_after = env.traffic.tor_matrix(env.allocation)

    return {
        "env": env,
        "initial_cost": initial_cost,
        "ga": ga,
        "result": result,
        "util_before": utilization_before,
        "util_after": utilization_after,
        "tor_before": tor_before,
        "tor_after": tor_after,
    }


class TestCostConsistency:
    def test_initial_costs_agree(self, pipeline):
        assert pipeline["result"].initial_cost == pytest.approx(
            pipeline["initial_cost"]
        )

    def test_final_cost_matches_recompute(self, pipeline):
        env = pipeline["env"]
        assert pipeline["result"].final_cost == pytest.approx(
            env.cost_model.total_cost(env.allocation, env.traffic), rel=1e-9
        )

    def test_substantial_reduction(self, pipeline):
        assert pipeline["result"].report.cost_reduction > 0.5

    def test_score_lands_near_ga(self, pipeline):
        reference = min(pipeline["ga"].best_cost, pipeline["result"].final_cost)
        assert pipeline["result"].final_cost <= 2.5 * reference

    def test_every_migration_paid_off(self, pipeline):
        for decision in pipeline["result"].report.decisions:
            if decision.migrated:
                assert decision.delta > 0


class TestNetworkEffects:
    def test_core_utilization_drops(self, pipeline):
        before = np.mean(pipeline["util_before"][3])
        after = np.mean(pipeline["util_after"][3])
        assert after < before

    def test_traffic_moves_onto_tor_diagonal(self, pipeline):
        """Localization = ToR-matrix mass moves onto the diagonal."""
        before, after = pipeline["tor_before"], pipeline["tor_after"]
        diag_before = np.trace(before) / before.sum()
        diag_after = np.trace(after) / after.sum()
        assert diag_after > diag_before

    def test_fair_share_not_worse(self, pipeline):
        env = pipeline["env"]
        fair = MaxMinFairAllocator(env.topology)
        after = fair.allocate(env.allocation, env.traffic)
        assert after.mean_satisfaction >= 0.99  # localized => uncongested

    def test_allocation_still_valid(self, pipeline):
        pipeline["env"].allocation.validate()


class TestRemedyContrast:
    def test_remedy_balances_but_does_not_localize(self):
        env = build_environment(CONFIG)
        calc = LinkLoadCalculator(env.topology)
        peak = calc.max_utilization(env.allocation, env.traffic)
        traffic = env.traffic.scale(0.9 / peak)
        controller = RemedyController(
            env.allocation, traffic, env.cost_model,
            RemedyConfig(utilization_threshold=0.5, max_rounds=25),
        )
        report = controller.run()
        # Balancing: peak drops.  Localization: cost barely moves.
        assert report.final_max_utilization <= report.initial_max_utilization
        assert abs(report.cost_reduction) < 0.4
