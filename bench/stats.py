"""The few order statistics the harness reports."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(ranked: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of an ascending sequence (0 if empty)."""
    if not ranked:
        return 0.0
    return ranked[int(q * (len(ranked) - 1))]


def tail_p90(samples: Sequence[float]) -> float:
    """The 90th percentile, or 0 when fewer than ten samples lie beyond it."""
    if len(samples) < 100:
        return 0.0
    return percentile(sorted(samples), 0.9)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0
