"""Synthetic DC workload generator (paper §VI, "We have built a DC traffic
generator to evaluate S-CORE under realistic DC load patterns").

The generator reproduces the traffic-matrix characteristics the paper bases
its evaluation on (citing Kandula IMC'09, Greenberg VL2, Benson IMC'10,
Kandula HotNets'09):

* the ToR-level matrix is **sparse** — most rack pairs exchange nothing;
* a handful of ToRs/services are **hotspots** attracting a large share of
  the bytes;
* per-pair rates are long-tailed (log-normal aggregate of mice plus
  occasional elephants).

Workload structure: VMs are partitioned into *services* (groups) whose
members talk to each other; a small set of services is designated hot and
additionally receives fan-in traffic from many other VMs.  The paper's
sparse → medium → dense progression is modelled by the preset patterns
:data:`SPARSE`, :data:`MEDIUM` and :data:`DENSE`, which both densify the
pair set and scale the rates (the paper scales its initial TM by ×10/×50).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import SeedLike, make_rng, spawn_rng
from repro.util.validation import check_positive, check_probability


@dataclass(frozen=True)
class TrafficPattern:
    """Parameters of a synthetic workload.

    Attributes
    ----------
    name:
        Human-readable preset name.
    mean_group_size:
        Mean size of a service (communication group); sizes are geometric.
    intra_group_prob:
        Probability that a pair of VMs within the same service talks.
    hot_service_fraction:
        Fraction of services designated as hotspots.
    fan_in_prob:
        Probability that an arbitrary VM sends traffic into a hot service.
    background_pair_prob:
        Per-VM probability of one extra uniformly random background pair.
    base_rate_bytes:
        Median pairwise rate (bytes/second) before scaling.
    rate_sigma:
        Log-normal sigma of pairwise rates.
    hot_rate_multiplier:
        Rate multiplier for fan-in traffic towards hotspots.
    load_scale:
        Global rate multiplier (the paper's ×1 / ×10 / ×50 stress knob).
    """

    name: str
    mean_group_size: float = 4.0
    intra_group_prob: float = 0.5
    hot_service_fraction: float = 0.04
    fan_in_prob: float = 0.05
    background_pair_prob: float = 0.02
    base_rate_bytes: float = 1e5
    rate_sigma: float = 1.2
    hot_rate_multiplier: float = 8.0
    load_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive("mean_group_size", self.mean_group_size)
        check_probability("intra_group_prob", self.intra_group_prob)
        check_probability("hot_service_fraction", self.hot_service_fraction)
        check_probability("fan_in_prob", self.fan_in_prob)
        check_probability("background_pair_prob", self.background_pair_prob)
        check_positive("base_rate_bytes", self.base_rate_bytes)
        check_positive("rate_sigma", self.rate_sigma)
        check_positive("hot_rate_multiplier", self.hot_rate_multiplier)
        check_positive("load_scale", self.load_scale)

    def scaled(self, factor: float, name: Optional[str] = None) -> "TrafficPattern":
        """A copy of the pattern with its load scaled by ``factor``."""
        return replace(
            self,
            name=name or f"{self.name}x{factor:g}",
            load_scale=self.load_scale * factor,
        )


#: The paper's sparse TM: few hotspots, most pairs silent (Fig. 3a).
SPARSE = TrafficPattern(name="sparse")

#: Sparse scaled ×10 with denser fan-in (Fig. 3b).
MEDIUM = TrafficPattern(
    name="medium",
    intra_group_prob=0.65,
    hot_service_fraction=0.08,
    fan_in_prob=0.12,
    background_pair_prob=0.05,
    load_scale=10.0,
)

#: Sparse scaled ×50 with much denser fan-in (Fig. 3c).
DENSE = TrafficPattern(
    name="dense",
    intra_group_prob=0.8,
    hot_service_fraction=0.12,
    fan_in_prob=0.25,
    background_pair_prob=0.1,
    load_scale=50.0,
)

PATTERNS = {p.name: p for p in (SPARSE, MEDIUM, DENSE)}


class DCTrafficGenerator:
    """Generates pairwise VM traffic matrices for a given VM population."""

    def __init__(
        self,
        vm_ids: Sequence[int],
        pattern: TrafficPattern = SPARSE,
        seed: SeedLike = None,
    ) -> None:
        if len(vm_ids) < 2:
            raise ValueError(f"need at least 2 VMs, got {len(vm_ids)}")
        if len(set(vm_ids)) != len(vm_ids):
            raise ValueError("vm_ids contains duplicates")
        self._vm_ids = list(vm_ids)
        self._pattern = pattern
        self._rng = make_rng(seed)
        self._groups = self._partition_into_groups()
        n_hot = max(1, round(pattern.hot_service_fraction * len(self._groups)))
        order = self._rng.permutation(len(self._groups))
        self._hot_groups = [self._groups[i] for i in order[:n_hot]]

    @property
    def pattern(self) -> TrafficPattern:
        """The workload pattern in effect."""
        return self._pattern

    @property
    def groups(self) -> List[List[int]]:
        """The service groups (lists of VM IDs)."""
        return [list(g) for g in self._groups]

    @property
    def hot_groups(self) -> List[List[int]]:
        """The hotspot services."""
        return [list(g) for g in self._hot_groups]

    def generate(self) -> TrafficMatrix:
        """Produce one traffic matrix snapshot."""
        pattern = self._pattern
        rng = self._rng
        triples: List[Tuple[int, int, float]] = []
        mu = float(np.log(pattern.base_rate_bytes))

        def draw_rate(multiplier: float = 1.0) -> float:
            return float(
                rng.lognormal(mu, pattern.rate_sigma)
                * multiplier
                * pattern.load_scale
            )

        # Intra-service meshes.
        for group in self._groups:
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if rng.random() < pattern.intra_group_prob:
                        triples.append((group[i], group[j], draw_rate()))

        # Fan-in to hot services (the hotspot columns of Fig. 3a).
        hot_members = [vm for group in self._hot_groups for vm in group]
        hot_set = set(hot_members)
        if hot_members:
            for vm in self._vm_ids:
                if vm in hot_set:
                    continue
                if rng.random() < pattern.fan_in_prob:
                    target = int(rng.choice(hot_members))
                    triples.append(
                        (vm, target, draw_rate(pattern.hot_rate_multiplier))
                    )

        # Sparse uniform background chatter.
        n = len(self._vm_ids)
        for vm in self._vm_ids:
            if rng.random() < pattern.background_pair_prob:
                other = self._vm_ids[int(rng.integers(0, n))]
                if other != vm:
                    triples.append((vm, other, draw_rate(0.2)))

        # One bulk build; duplicate pairs accumulate.
        return TrafficMatrix.from_pairs(triples)

    def _partition_into_groups(self) -> List[List[int]]:
        """Partition the VM population into geometric-size services."""
        rng = spawn_rng(self._rng, stream=1)
        ids = list(self._vm_ids)
        rng.shuffle(ids)
        groups: List[List[int]] = []
        p = 1.0 / self._pattern.mean_group_size
        index = 0
        while index < len(ids):
            size = int(rng.geometric(p))
            size = max(2, min(size, len(ids) - index))
            groups.append(ids[index : index + size])
            index += size
        # A trailing singleton cannot form a pair; merge it into the
        # previous group.
        if len(groups) >= 2 and len(groups[-1]) < 2:
            groups[-2].extend(groups.pop())
        return groups


def pattern_by_name(name: str) -> TrafficPattern:
    """Look up one of the paper's preset patterns by name."""
    try:
        return PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; known: {sorted(PATTERNS)}"
        )
