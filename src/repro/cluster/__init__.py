"""Compute-side substrate: server capacity, VMs, allocations and placement.

The paper (§II) models a set of VMs ``V`` hosted by servers ``S`` under an
allocation ``A`` (``server_of`` is the paper's ``sigma_A``).  Each server can
accommodate a bounded number of VMs (16 in the paper's simulations) plus
RAM/CPU/bandwidth headroom used by the migration feasibility checks (§V-B5,
§V-C).

:class:`PlacementManager` plays the role of the paper's "centralized VM
instance placement manager" (§V-A): it allocates unique 32-bit VM IDs and
per-rack IP subnets used for location identification (§V-B4).
"""

from repro.cluster.vm import VM
from repro.cluster.server import ServerCapacity
from repro.cluster.cluster import Cluster
from repro.cluster.allocation import Allocation, CapacityError
from repro.cluster.placement import (
    place_arrivals,
    place_packed,
    place_random,
    place_round_robin,
    place_striped,
)
from repro.cluster.manager import PlacementManager

__all__ = [
    "VM",
    "ServerCapacity",
    "Cluster",
    "Allocation",
    "CapacityError",
    "place_arrivals",
    "place_packed",
    "place_random",
    "place_round_robin",
    "place_striped",
    "PlacementManager",
]
