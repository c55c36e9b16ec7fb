"""Lightweight per-phase wall-clock accumulators (``--profile`` runs).

One :class:`PhaseTimings` instance rides along a scheduler run and is
filled by the hot loops at near-zero cost (a ``perf_counter`` pair per
phase per wave, only when profiling is enabled).  The scenario CLI
prints it so cache hit-rates and the transition / score / wave-apply /
re-mask split are observable without the bench suite.
"""

from __future__ import annotations

from typing import Dict, List


class PhaseTimings:
    """Accumulated seconds per named phase plus integer counters."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock seconds under ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds

    def bump(self, counter: str, amount: int = 1) -> None:
        """Accumulate an integer counter (owners scored, cache hits...)."""
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record a last-value gauge (e.g. the shard imbalance ratio)."""
        self.gauges[name] = float(value)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of owner evaluations served from the round cache."""
        seen = self.counts.get("owners", 0)
        if seen == 0:
            return 0.0
        return 1.0 - self.counts.get("owners_rescored", 0) / seen

    def lines(self, total_s: float = 0.0) -> List[str]:
        """Human-readable summary, heaviest phase first."""
        out = []
        for phase, secs in sorted(self.seconds.items(), key=lambda i: -i[1]):
            share = f"  ({secs / total_s:5.1%})" if total_s > 0 else ""
            out.append(f"{phase:12s} {secs:8.3f}s{share}")
        for name, value in sorted(self.gauges.items()):
            out.append(f"{name:12s} {value:8.3f}")
        if self.counts.get("owners", 0):
            out.append(
                f"{'cache':12s} {self.counts.get('owners_rescored', 0)}"
                f"/{self.counts['owners']} owners re-scored "
                f"(hit rate {self.cache_hit_ratio:.1%}; "
                f"{self.counts.get('owners_bounded', 0)} settled by the "
                f"gain bound), "
                f"{self.counts.get('rows', 0)} rows held, "
                f"{self.counts.get('rows_remasked', 0)} rows re-masked"
            )
        return out
