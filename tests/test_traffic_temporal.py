"""Tests for the slowly-drifting traffic processes."""

import pytest

from repro.traffic import (
    DiurnalDriftProcess,
    HotspotDriftProcess,
    HotspotFlipDrift,
    TrafficMatrix,
)


class TestHotspotDrift:
    def make_base(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1000)
        tm.set_rate(3, 4, 10)
        tm.set_rate(5, 6, 10)
        return tm

    def test_total_rate_roughly_preserved(self):
        process = HotspotDriftProcess(self.make_base(), noise=0.1, redirect_prob=0, seed=1)
        base_total = self.make_base().total_rate()
        for _ in range(20):
            process.step_delta()
            assert process.current.total_rate() == pytest.approx(
                base_total, rel=0.5
            )

    def test_redirect_moves_heaviest_pair(self):
        process = HotspotDriftProcess(
            self.make_base(), noise=0.0, redirect_prob=1.0, seed=2
        )
        process.step_delta()
        drifted = process.current
        # Either the heavy pair moved to a new peer or the candidate
        # collided with an endpoint (no-op); run a few steps to observe one.
        moved = drifted.rate(1, 2) == 0.0
        for _ in range(10):
            if moved:
                break
            process.step_delta()
            drifted = process.current
            moved = drifted.rate(1, 2) == 0.0 or drifted.n_pairs != 3
        assert moved or drifted.n_pairs == 3

    def test_deterministic(self):
        a = HotspotDriftProcess(self.make_base(), seed=5)
        b = HotspotDriftProcess(self.make_base(), seed=5)
        for _ in range(5):
            a.step_delta()
            b.step_delta()
            assert sorted(a.current.pairs()) == sorted(b.current.pairs())

    def test_empty_base_is_stable(self):
        process = HotspotDriftProcess(TrafficMatrix(), seed=0)
        assert process.step_delta() == []
        assert process.current.n_pairs == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            HotspotDriftProcess(TrafficMatrix(), noise=1.5)
        with pytest.raises(ValueError):
            HotspotDriftProcess(TrafficMatrix(), redirect_prob=-0.1)

    def test_step_delta_replays_current(self):
        """The delta stream, applied to the base, replays the process's
        own matrix epoch by epoch (redirects included)."""
        process = HotspotDriftProcess(
            self.make_base(), noise=0.2, redirect_prob=0.5, seed=9
        )
        replay = self.make_base()
        for _ in range(12):
            replay.apply_delta(process.step_delta())
            assert sorted(replay.pairs()) == sorted(process.current.pairs())

    def test_seed_reuse_is_deterministic_for_deltas(self):
        a = HotspotDriftProcess(self.make_base(), redirect_prob=0.5, seed=5)
        b = HotspotDriftProcess(self.make_base(), redirect_prob=0.5, seed=5)
        for _ in range(8):
            assert sorted(a.step_delta()) == sorted(b.step_delta())


class TestDiurnalDrift:
    def make_base(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 100)  # (u+v) even: group A
        tm.set_rate(1, 2, 100)  # (u+v) odd: group B
        tm.set_rate(5, 7, 40)
        return tm

    def test_counter_phased_groups(self):
        process = DiurnalDriftProcess(
            self.make_base(), amplitude=0.5, period_epochs=4
        )
        process.step_delta()  # epoch 1: sin(pi/2) = 1 -> full swing
        assert process.current.rate(1, 3) == pytest.approx(150.0)
        assert process.current.rate(5, 7) == pytest.approx(60.0)
        assert process.current.rate(1, 2) == pytest.approx(50.0)

    def test_periodic_return_to_base(self):
        base = self.make_base()
        process = DiurnalDriftProcess(base, amplitude=0.5, period_epochs=4)
        for _ in range(4):
            process.step_delta()
        for u, v, rate in base.pairs():
            assert process.current.rate(u, v) == pytest.approx(rate)

    def test_deterministic_without_rng(self):
        a = DiurnalDriftProcess(self.make_base(), amplitude=0.3)
        b = DiurnalDriftProcess(self.make_base(), amplitude=0.3)
        for _ in range(5):
            a.step_delta()
            b.step_delta()
            assert sorted(a.current.pairs()) == sorted(b.current.pairs())

    def test_rates_stay_positive(self):
        process = DiurnalDriftProcess(self.make_base(), amplitude=0.9)
        for _ in range(10):
            process.step_delta()
            assert all(rate > 0 for _, _, rate in process.current.pairs())
            assert process.current.n_pairs == 3

    def test_bad_amplitude_rejected(self):
        with pytest.raises(ValueError):
            DiurnalDriftProcess(TrafficMatrix(), amplitude=1.0)


class TestHotspotFlip:
    def make_base(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1000)
        tm.set_rate(3, 4, 900)
        tm.set_rate(5, 6, 10)
        tm.set_rate(7, 8, 5)
        return tm

    def test_quiet_until_flip_epoch(self):
        process = HotspotFlipDrift(self.make_base(), flip_epoch=3, top_pairs=2, seed=0)
        assert process.step_delta() == []
        assert process.step_delta() == []
        flip = process.step_delta()
        assert flip, "the flip epoch must produce a structural delta"
        assert process.step_delta() == []

    def test_flip_retargets_the_heavy_pairs(self):
        process = HotspotFlipDrift(self.make_base(), flip_epoch=1, top_pairs=2, seed=1)
        delta = process.step_delta()
        zeroed = {(u, v) for u, v, r in delta if r == 0.0}
        assert (1, 2) in zeroed and (3, 4) in zeroed
        # Total load is conserved across the flip.
        assert process.current.total_rate() == pytest.approx(1915.0)

    def test_seed_reuse_is_deterministic(self):
        a = HotspotFlipDrift(self.make_base(), flip_epoch=1, top_pairs=2, seed=7)
        b = HotspotFlipDrift(self.make_base(), flip_epoch=1, top_pairs=2, seed=7)
        for _ in range(3):
            assert sorted(a.step_delta()) == sorted(b.step_delta())
            assert sorted(a.current.pairs()) == sorted(b.current.pairs())

    def test_tiny_population_is_a_noop(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        process = HotspotFlipDrift(tm, flip_epoch=1, seed=0)
        assert process.step_delta() == []

    def test_redirect_onto_another_heavy_pair_conserves_load(self):
        # Regression: a redirect landing on a heavy pair that is itself
        # flipped must not be wiped by that pair's zeroing — all heavy
        # pairs zero first, then redirected rates merge.
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 10)
        tm.set_rate(1, 3, 8)
        tm.set_rate(4, 5, 1)
        total = tm.total_rate()
        for seed in range(10):
            process = HotspotFlipDrift(
                tm.copy(), flip_epoch=1, top_pairs=2, seed=seed
            )
            process.step_delta()
            assert process.current.total_rate() == pytest.approx(total)
