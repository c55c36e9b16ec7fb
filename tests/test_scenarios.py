"""Scenario subsystem: registry semantics + a toy-scale run of every
registered scenario (the tier-1 scenario smoke the CI relies on)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import (
    ChurnSpec,
    DriftSpec,
    Scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_by_name,
    scenario_names,
)

CATALOGUE = [
    "steady",
    "diurnal-drift",
    "hotspot-flip",
    "flash-crowd",
    "rolling-maintenance",
    "rack-outage",
    "pod-outage",
    "flash-crowd-mid-round",
    "bandwidth-crunch",
]

#: The event-queue failure scenarios (mid-round injections).
EVENT_SCENARIOS = CATALOGUE[5:]


class TestRegistry:
    def test_catalogue_is_registered(self):
        assert set(CATALOGUE) <= set(scenario_names())

    def test_lookup_roundtrip(self):
        for scenario in iter_scenarios():
            assert scenario_by_name(scenario.name) is scenario

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_by_name("no-such-scenario")

    def test_duplicate_registration_raises(self):
        scenario = scenario_by_name("steady")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(scenario)
        register_scenario(scenario, replace=True)  # explicit replace is fine

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(kind="bogus")
        with pytest.raises(ValueError):
            ChurnSpec(kind="bogus")
        with pytest.raises(ValueError):
            Scenario(name="", description="x")
        with pytest.raises(ValueError):
            Scenario(name="x", description="x", epochs=0)

    def test_scaled_unknown_scale_raises(self):
        with pytest.raises(ValueError, match="unknown scale"):
            scenario_by_name("steady").scaled("galactic")

    def test_scaled_none_is_identity(self):
        scenario = scenario_by_name("steady")
        assert scenario.scaled(None) is scenario


class TestScenarioSmoke:
    """Every registered scenario must run end to end at toy scale."""

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_scenario_runs_and_stays_consistent(self, name):
        # validate=True runs the full engine-invariant harness after
        # every injected event and every round — the acceptance bar for
        # the whole catalogue.
        result = run_scenario(name, scale="toy", validate=True)
        scenario = result.scenario
        assert len(result.epoch_stats) == scenario.epochs
        assert len(result.round_reports) == (
            scenario.epochs * scenario.iterations_per_epoch
        )
        assert result.initial_cost > 0
        # The environment survived every epoch structurally intact.
        result.environment.allocation.validate()
        # The engine's incremental caches agree with full recomputation
        # after the whole drift/churn/migration history.
        fast = None
        for stat in result.epoch_stats:
            assert stat.migrations >= 0 and stat.returning <= stat.migrations
        # Epoch transitions ran on the delta path: the engine never went
        # out of sync (a rebuild would have been needed otherwise).
        # (Reach into the runner's scheduler state via the last report's
        # cost against the environment's live objects.)
        from repro.core.fastcost import FastCostEngine

        fast = FastCostEngine(
            result.environment.allocation, result.environment.traffic
        )
        assert np.allclose(
            result.final_cost, fast.total_cost(), rtol=1e-9
        )

    def test_steady_converges(self):
        result = run_scenario("steady", scale="toy")
        assert result.migrations_per_epoch[-1] <= result.migrations_per_epoch[0]
        assert result.oscillation_index <= 0.5

    def test_flash_crowd_population_returns_to_baseline(self):
        result = run_scenario("flash-crowd", scale="toy")
        stats = result.epoch_stats
        arrivals = sum(s.arrivals for s in stats)
        departures = sum(s.departures for s in stats)
        assert arrivals > 0, "the crowd must actually arrive"
        assert departures == arrivals, "the crowd must fully depart"
        assert stats[0].n_vms == stats[-1].n_vms

    def test_rolling_maintenance_drains_each_epoch(self):
        result = run_scenario("rolling-maintenance", scale="toy")
        drained = [s.drained for s in result.epoch_stats]
        assert drained[0] == 0, "no drain before start_epoch"
        assert all(d > 0 for d in drained[1:]), drained
        result.environment.allocation.validate()

    def test_hotspot_flip_changes_structure(self):
        result = run_scenario("hotspot-flip", scale="toy")
        # The flip epoch (2) must trigger re-optimization after epoch 1
        # had largely settled.
        assert result.epoch_stats[2].migrations > 0

    def test_a_run_without_a_directory_touches_no_disk(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        result = run_scenario("flash-crowd-mid-round", scale="toy", epochs=2)
        assert result.events_applied > 0
        assert list(tmp_path.iterdir()) == []

    def test_stop_request_is_honoured_without_a_directory(self):
        result = run_scenario(
            "steady", scale="toy", epochs=3, stop_requested=lambda: True
        )
        assert result.interrupted
        assert len(result.round_reports) == 1
        assert result.epoch_stats == []

    def test_seed_reuse_is_deterministic(self):
        a = run_scenario("diurnal-drift", scale="toy", seed=123)
        b = run_scenario("diurnal-drift", scale="toy", seed=123)
        assert a.migrations_per_epoch == b.migrations_per_epoch
        assert a.final_cost == b.final_cost

    def test_epoch_and_iteration_overrides(self):
        result = run_scenario(
            "steady", scale="toy", epochs=2, iterations_per_epoch=1
        )
        assert len(result.epoch_stats) == 2
        assert len(result.round_reports) == 2
        assert result.round_reports[0].iterations[0].index == 1

    @pytest.mark.parametrize("name", EVENT_SCENARIOS)
    def test_event_scenarios_apply_their_events(self, name):
        result = run_scenario(name, scale="toy")
        assert result.events_applied > 0, "no event ever fired"
        # The first epoch's injection is mid-round by construction
        # (every shipped failure scenario fires at a fractional round).
        assert result.epoch_stats[0].events > 0

    def test_flash_crowd_mid_round_population_cycles(self):
        result = run_scenario("flash-crowd-mid-round", scale="toy")
        stats = result.epoch_stats
        assert stats[0].n_vms > stats[-1].n_vms, "the crowd never left"
        result.environment.allocation.validate()

    def test_rack_outage_restores(self):
        result = run_scenario("rack-outage", scale="toy")
        # After the restore, rack 0's hosts are back at full capacity.
        env = result.environment
        topology = env.allocation.topology
        for host in topology.hosts_in_rack(0):
            assert env.cluster.capacity(host).max_vms > 0

    def test_scenario_by_value(self):
        scenario = Scenario(
            name="adhoc-jitter",
            description="unregistered ad-hoc scenario",
            epochs=2,
            iterations_per_epoch=1,
            drift=DriftSpec(kind="jitter", noise=0.2, redirect_prob=0.0),
        )
        result = run_scenario(scenario, scale="toy")
        assert len(result.epoch_stats) == 2
        assert "adhoc-jitter" not in scenario_names()
