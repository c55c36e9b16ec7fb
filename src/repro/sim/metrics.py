"""Metric helpers for the evaluation harness."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.scheduler import SchedulerReport


def convergence_iteration(report: SchedulerReport, tolerance: float = 0.0) -> int:
    """First iteration index from which the migrated ratio stays <= tolerance.

    Fig. 2's claim is that this is typically 2-3.  Returns one past the last
    iteration when the run never settles within the recorded horizon.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    settled_from = len(report.iterations) + 1
    for stats in reversed(report.iterations):
        if stats.migrated_ratio <= tolerance:
            settled_from = stats.index
        else:
            break
    return settled_from


def resample_series(
    series: Sequence[Tuple[float, float]], times: Sequence[float]
) -> List[Tuple[float, float]]:
    """Step-interpolate a (time, value) series onto a fixed time grid.

    The scheduler's cost series is piecewise constant (cost changes only at
    migrations), so the resampled value at time t is the last value at or
    before t.  Times before the first sample take the first value.
    """
    if not series:
        raise ValueError("cannot resample an empty series")
    out: List[Tuple[float, float]] = []
    idx = 0
    current = series[0][1]
    for t in times:
        while idx < len(series) and series[idx][0] <= t:
            current = series[idx][1]
            idx += 1
        out.append((float(t), current))
    return out

