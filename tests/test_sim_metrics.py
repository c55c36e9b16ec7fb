"""Tests for metric helpers."""

import pytest

from repro.core.scheduler import IterationStats, SchedulerReport
from repro.sim.metrics import (
    convergence_iteration,
    resample_series,
)


def make_report(migrations_by_iter):
    report = SchedulerReport(initial_cost=100.0, final_cost=50.0)
    for i, migrations in enumerate(migrations_by_iter, start=1):
        report.iterations.append(
            IterationStats(index=i, visits=10, migrations=migrations, cost_at_end=50)
        )
    return report


class TestConvergenceIteration:
    def test_settles_midway(self):
        report = make_report([5, 2, 0, 0, 0])
        assert convergence_iteration(report) == 3

    def test_never_settles(self):
        report = make_report([5, 4, 3])
        assert convergence_iteration(report) == 4

    def test_immediately_settled(self):
        report = make_report([0, 0])
        assert convergence_iteration(report) == 1

    def test_with_tolerance(self):
        report = make_report([5, 1, 1])  # ratio 0.1 each
        assert convergence_iteration(report, tolerance=0.1) == 2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            convergence_iteration(make_report([1]), tolerance=-0.1)


class TestResampleSeries:
    def test_step_interpolation(self):
        series = [(0.0, 10.0), (2.0, 8.0), (5.0, 3.0)]
        out = resample_series(series, [0, 1, 2, 3, 6])
        assert out == [(0.0, 10.0), (1.0, 10.0), (2.0, 8.0), (3.0, 8.0), (6.0, 3.0)]

    def test_before_first_sample(self):
        out = resample_series([(5.0, 7.0)], [0.0])
        assert out == [(0.0, 7.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resample_series([], [0.0])

