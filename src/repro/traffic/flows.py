"""Flow-level traffic model: the elephant/mice long tail.

DC measurement studies (Kandula IMC'09, Benson IMC'10, cited throughout the
paper) report that *mice* flows dominate flow counts while a small set of
*elephant* flows carries most of the bytes.  S-CORE exploits exactly this:
averaging bytes over a window surfaces the elephants, whose endpoints are
then migrated together (§V-C "Load Balancing Considerations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_positive, check_probability


@dataclass(frozen=True)
class Flow:
    """One transport flow between two VMs.

    Attributes
    ----------
    src_vm, dst_vm:
        Endpoint VM IDs.
    size_bytes:
        Total bytes carried over the flow's lifetime.
    start_time, duration_s:
        Activity interval in seconds; rate = size / duration.
    """

    src_vm: int
    dst_vm: int
    size_bytes: float
    start_time: float = 0.0
    duration_s: float = 1.0

    def __post_init__(self) -> None:
        if self.src_vm == self.dst_vm:
            raise ValueError(f"flow endpoints must differ, got VM {self.src_vm} twice")
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")

    @property
    def rate_bps(self) -> float:
        """Average rate in bytes per second over the flow's lifetime."""
        return self.size_bytes / self.duration_s

    @property
    def end_time(self) -> float:
        """Completion time of the flow."""
        return self.start_time + self.duration_s

    @property
    def is_elephant(self) -> bool:
        """Conventional elephant threshold: more than 10 MB."""
        return self.size_bytes > 10 * 2**20


class FlowSizeDistribution:
    """Two-component long-tailed flow-size mixture.

    With probability ``1 - elephant_fraction`` a flow is a *mouse* drawn
    from a log-normal centred on tens of kilobytes; otherwise it is an
    *elephant* drawn from a Pareto with tail index ``alpha`` starting at
    ``elephant_min_bytes``.  Defaults yield ~90% mice by count with
    elephants carrying the large majority of bytes, matching the published
    measurements.
    """

    def __init__(
        self,
        elephant_fraction: float = 0.1,
        mouse_median_bytes: float = 20e3,
        mouse_sigma: float = 1.0,
        elephant_min_bytes: float = 10 * 2**20,
        alpha: float = 1.5,
    ) -> None:
        check_probability("elephant_fraction", elephant_fraction)
        check_positive("mouse_median_bytes", mouse_median_bytes)
        check_positive("mouse_sigma", mouse_sigma)
        check_positive("elephant_min_bytes", elephant_min_bytes)
        check_positive("alpha", alpha)
        self._elephant_fraction = elephant_fraction
        self._mouse_mu = float(np.log(mouse_median_bytes))
        self._mouse_sigma = mouse_sigma
        self._elephant_min = elephant_min_bytes
        self._alpha = alpha

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Draw ``count`` flow sizes in bytes."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        is_elephant = rng.random(count) < self._elephant_fraction
        sizes = rng.lognormal(self._mouse_mu, self._mouse_sigma, count)
        n_elephants = int(is_elephant.sum())
        if n_elephants:
            # Pareto: min * (1/U)^(1/alpha)
            u = rng.random(n_elephants)
            sizes[is_elephant] = self._elephant_min * (1.0 / u) ** (1.0 / self._alpha)
        return sizes


def generate_flows(
    pairs: Sequence[Tuple[int, int]],
    flows_per_pair: int,
    window_s: float,
    seed: SeedLike = None,
    size_distribution: Optional[FlowSizeDistribution] = None,
) -> List[Flow]:
    """Generate a flow population over the given communicating pairs.

    Each pair receives ``flows_per_pair`` flows with long-tailed sizes,
    uniformly random start times in ``[0, window_s)``, and durations chosen
    so that mice complete quickly while elephants persist.
    """
    check_positive("window_s", window_s)
    if flows_per_pair <= 0:
        raise ValueError(f"flows_per_pair must be > 0, got {flows_per_pair}")
    rng = make_rng(seed)
    dist = size_distribution or FlowSizeDistribution()
    flows: List[Flow] = []
    for src, dst in pairs:
        sizes = dist.sample(rng, flows_per_pair)
        starts = rng.random(flows_per_pair) * window_s
        for size, start in zip(sizes, starts):
            # Duration heuristic: mice finish in O(100ms); elephants are
            # paced around 10 MB/s so they span a noticeable part of the
            # window, as real elephants do.
            if size > 10 * 2**20:
                duration = max(0.5, float(size) / 10e6)
            else:
                duration = 0.1
            duration = min(duration, window_s)
            flows.append(
                Flow(
                    src_vm=src,
                    dst_vm=dst,
                    size_bytes=float(size),
                    start_time=float(start),
                    duration_s=duration,
                )
            )
    return flows


def flows_to_matrix(flows: Iterable[Flow], window_s: float) -> TrafficMatrix:
    """Aggregate flows into average pairwise rates over a window.

    This is exactly what the dom0 throughput-calculation step does (§V-B3):
    sum bytes per communicating pair, divide by the measurement window.
    """
    check_positive("window_s", window_s)
    return TrafficMatrix.from_pairs(
        [(f.src_vm, f.dst_vm, f.size_bytes / window_s) for f in flows]
    )


def byte_share_of_elephants(flows: Sequence[Flow]) -> float:
    """Fraction of total bytes carried by elephant flows."""
    total = sum(flow.size_bytes for flow in flows)
    if total == 0:
        return 0.0
    heavy = sum(flow.size_bytes for flow in flows if flow.is_elephant)
    return heavy / total
