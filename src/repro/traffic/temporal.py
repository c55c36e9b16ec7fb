"""Slowly-drifting workloads.

Paper §IV: "Traffic load λ(u, v) can be captured dynamically by monitoring
incoming and outgoing traffic between VMs u and v, averaged over a given
time interval … the size of the time window can be set on the order of
minutes to hours."  The processes here produce the successive window
estimates as deltas (``step_delta``), which a scheduler applies in one
``apply_traffic_delta``; :class:`HotspotDriftProcess` models the cited measurement finding that "DC
traffic exhibits fixed-set hotspots that change slowly over time", which is
what makes S-CORE stable (§VI-B, VM-oscillation discussion).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_positive, check_probability


def _pair(vm_u: int, vm_v: int) -> Tuple[int, int]:
    if vm_u == vm_v:
        raise ValueError(f"self-traffic is not modelled (VM {vm_u})")
    return (vm_u, vm_v) if vm_u < vm_v else (vm_v, vm_u)


class HotspotDriftProcess:
    """A traffic-matrix sequence whose hotspots drift slowly.

    Starting from a base matrix, each step perturbs per-pair rates with
    bounded multiplicative noise and, with small probability
    ``redirect_prob`` per step, re-targets one heavy pair to a new peer —
    modelling slow hotspot churn.  Used by the stability experiments to
    confirm that S-CORE does not oscillate under realistic dynamics.
    """

    def __init__(
        self,
        base: TrafficMatrix,
        noise: float = 0.1,
        redirect_prob: float = 0.05,
        seed: SeedLike = None,
    ) -> None:
        check_probability("redirect_prob", redirect_prob)
        if not 0 <= noise < 1:
            raise ValueError(f"noise must be in [0, 1), got {noise}")
        self._current = base.copy()
        self._noise = noise
        self._redirect_prob = redirect_prob
        self._rng = make_rng(seed)

    @property
    def current(self) -> TrafficMatrix:
        """The current matrix (do not mutate; copy if needed)."""
        return self._current

    def step_delta(self) -> List[Tuple[int, int, float]]:
        """Advance one interval and return the λ changes as a delta.

        :attr:`current` advances to the new matrix; the return value is
        the ``(u, v, new_rate)`` change list a delta-path consumer
        (``SCOREScheduler.apply_traffic_delta``) feeds to the engine
        without rebuilding anything.  A redirected pair appears with
        rate 0 and its new target with the merged rate.
        """
        rng = self._rng
        us, vs, rates = self._current.pair_arrays()
        if not len(us):
            return []
        jitter = 1.0 + self._noise * (2 * rng.random(len(us)) - 1.0)
        updated = TrafficMatrix.from_pairs((us, vs, rates * jitter))
        nu, nv, nrates = updated.pair_arrays()
        changed: Dict[Tuple[int, int], float] = dict(
            zip(zip(nu.tolist(), nv.tolist()), nrates.tolist())
        )
        if rng.random() < self._redirect_prob:
            # Move the heaviest pair's traffic to a new random peer.  The
            # candidates, and where a new pair lands, follow a matrix
            # grown pair by pair (see TrafficMatrix.from_pairs), so a
            # seed replays the same drift: VMs in first-appearance order
            # behind a set, a new pair at the end of its lower endpoint's
            # group.
            top = int(np.argmax(rates))
            u, v, rate = int(us[top]), int(vs[top]), float(rates[top])
            ids, seen = np.unique(np.column_stack((us, vs)), return_index=True)
            order = ids[np.argsort(seen)].tolist()
            vms = list(frozenset(dict.fromkeys(order)))
            candidate = vms[int(rng.integers(0, len(vms)))]
            if candidate not in (u, v):
                keep = (nu != u) | (nv != v)
                nu, nv, nrates = nu[keep], nv[keep], nrates[keep]
                lo, hi = _pair(u, candidate)
                hit = np.nonzero((nu == lo) & (nv == hi))[0]
                if hit.size:
                    nrates[hit] += rate
                else:
                    rank = seen[np.searchsorted(ids, nu)]
                    if lo == u and not ((nu == u) | (nv == u)).any():
                        at = len(nu)  # u lost its last pair: it rejoins last
                    else:
                        at = int(np.count_nonzero(rank <= seen[ids == lo][0]))
                    nu, nv = np.insert(nu, at, lo), np.insert(nv, at, hi)
                    nrates = np.insert(nrates, at, rate)
                updated = TrafficMatrix.from_pair_arrays(nu, nv, nrates)
                changed[(u, v)] = 0.0
                changed[(lo, hi)] = updated.rate(lo, hi)
        self._current = updated
        return [(u, v, rate) for (u, v), rate in changed.items()]


class DiurnalDriftProcess:
    """Sinusoidal day/night load swings over two counter-phased regions.

    DC measurement studies report strong diurnal periodicity: user-facing
    services peak in the day, batch/backup traffic at night.  Pairs are
    split into two fixed groups by endpoint parity; group A's rates scale
    by ``1 + amplitude·sin(2π·t/period)`` and group B by the opposite
    phase, so the *relative* hotspot structure shifts every epoch while
    total load stays roughly level.  Fully deterministic (no RNG) — the
    same base matrix always yields the same trajectory.
    """

    def __init__(
        self,
        base: TrafficMatrix,
        amplitude: float = 0.5,
        period_epochs: int = 8,
    ) -> None:
        if not 0 <= amplitude < 1:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        check_positive("period_epochs", period_epochs)
        self._base = base.copy()
        self._current = base.copy()
        self._amplitude = amplitude
        self._period = period_epochs
        self._epoch = 0

    @property
    def current(self) -> TrafficMatrix:
        """The current matrix (do not mutate; copy if needed)."""
        return self._current

    def step_delta(self) -> List[Tuple[int, int, float]]:
        """Advance one epoch; return the (u, v, new_rate) change list."""
        self._epoch += 1
        swing = self._amplitude * math.sin(
            2.0 * math.pi * self._epoch / self._period
        )
        us, vs, rates = self._base.pair_arrays()
        new = rates * np.where((us + vs) % 2 == 0, 1.0 + swing, 1.0 - swing)
        moved = new != self._current.rates_of(us, vs)
        delta = (us[moved], vs[moved], new[moved])
        self._current.apply_delta(delta)
        return list(zip(*(a.tolist() for a in delta)))


class HotspotFlipDrift:
    """A one-shot hotspot relocation: the heavy pairs re-target at once.

    Models the adversarial end of the paper's "hotspots change slowly"
    premise: at ``flip_epoch`` the ``top_pairs`` heaviest pairs all
    redirect their traffic to fresh partners simultaneously (a service
    re-shard, a failover).  Every other epoch is a no-op, so the delta
    path's structural add/remove handling is exercised in isolation.
    """

    def __init__(
        self,
        base: TrafficMatrix,
        flip_epoch: int = 2,
        top_pairs: int = 8,
        seed: SeedLike = None,
    ) -> None:
        check_positive("flip_epoch", flip_epoch)
        check_positive("top_pairs", top_pairs)
        self._current = base.copy()
        self._flip_epoch = flip_epoch
        self._top_pairs = top_pairs
        self._rng = make_rng(seed)
        self._epoch = 0

    @property
    def current(self) -> TrafficMatrix:
        """The current matrix (do not mutate; copy if needed)."""
        return self._current

    def step_delta(self) -> List[Tuple[int, int, float]]:
        """Advance one epoch; non-flip epochs return an empty delta."""
        self._epoch += 1
        if self._epoch != self._flip_epoch:
            return []
        pairs = sorted(self._current.pairs(), key=lambda p: (-p[2], p[0], p[1]))
        heavy = pairs[: self._top_pairs]
        vms = sorted(self._current.vms_with_traffic)
        if not heavy or len(vms) < 3:
            return []
        # Zero every heavy pair first, then merge the redirected rates:
        # interleaving the two would let a later zeroing wipe out traffic
        # an earlier redirect just landed on that pair (load must be
        # conserved across the flip).
        changed: Dict[Tuple[int, int], float] = {
            _pair(u, v): 0.0 for u, v, _ in heavy
        }
        for u, v, rate in heavy:
            partner = int(vms[int(self._rng.integers(0, len(vms)))])
            if partner in (u, v):
                partner = next(x for x in vms if x not in (u, v))
            key = _pair(u, partner)
            base_rate = changed.get(key, self._current.rate(u, partner))
            changed[key] = base_rate + rate
        delta = [(u, v, rate) for (u, v), rate in changed.items()]
        self._current.apply_delta(delta)
        return delta
