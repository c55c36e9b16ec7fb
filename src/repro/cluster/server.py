"""Physical server capacity: one host's record.

The paper caps each host at 16 VMs "to model a typical DC server's capacity"
(§VI) and additionally checks residual RAM and bandwidth on migration
targets (§V-B5: the capacity response reports how many more VMs a host can
take and its available RAM; §V-C adds a link-load threshold).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServerCapacity:
    """Static resource capacity of one server.

    Attributes
    ----------
    max_vms:
        VM slots (the paper's value is 16).
    ram_mb:
        Total RAM available for guest VMs.
    cpu:
        Total CPU cores available for guests.
    nic_bps:
        NIC line rate in bits/second (1 Gb/s in the testbed).
    """

    max_vms: int = 16
    ram_mb: int = 32768
    cpu: float = 16.0
    nic_bps: float = 1e9

    def __post_init__(self) -> None:
        # 0 slots is legal: a drained host held offline for maintenance
        # (no VM may land on it) that still exists in the topology.
        if self.max_vms < 0:
            raise ValueError(f"max_vms must be >= 0, got {self.max_vms}")
        if self.ram_mb <= 0:
            raise ValueError(f"ram_mb must be positive, got {self.ram_mb}")
        if self.cpu <= 0:
            raise ValueError(f"cpu must be positive, got {self.cpu}")
        if self.nic_bps <= 0:
            raise ValueError(f"nic_bps must be positive, got {self.nic_bps}")

