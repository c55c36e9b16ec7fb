"""DC traffic modelling (paper §VI and the measurement studies it cites).

The S-CORE cost function consumes pairwise average rates λ(u, v) between
VMs; this package provides:

:class:`TrafficMatrix`
    A sparse, symmetric pairwise-rate structure with fast per-VM peer
    queries (the paper's ``V_u``) and ToR-level aggregation (for Fig. 3a-c
    style heatmaps).
:class:`DCTrafficGenerator`
    Synthetic workload generator reproducing the published DC traffic
    characteristics: sparse ToR matrices with few hotspots, and long-tailed
    flow sizes where mice dominate counts and elephants dominate bytes
    (Kandula et al. IMC'09, Benson et al. IMC'10).
:mod:`repro.traffic.temporal`
    Slowly-drifting processes (hotspot drift and redirects, diurnal
    swings, a one-time hotspot flip) that emit each new window estimate
    as a λ delta — §IV averages rates over a window "on the order of
    minutes to hours" — for the stability and dynamic experiments.
"""

from repro.traffic.matrix import TrafficMatrix
from repro.traffic.generator import (
    DCTrafficGenerator,
    TrafficPattern,
    DENSE,
    MEDIUM,
    SPARSE,
)
from repro.traffic.temporal import (
    DiurnalDriftProcess,
    HotspotDriftProcess,
    HotspotFlipDrift,
)

__all__ = [
    "TrafficMatrix",
    "DCTrafficGenerator",
    "TrafficPattern",
    "SPARSE",
    "MEDIUM",
    "DENSE",
    "DiurnalDriftProcess",
    "HotspotDriftProcess",
    "HotspotFlipDrift",
]
