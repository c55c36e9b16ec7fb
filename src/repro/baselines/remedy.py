"""Reimplementation of Remedy (Mann et al., Networking 2012; paper §VI-B).

Remedy is the centralized, network-aware steady-state VM manager the paper
compares against.  Its defining behaviours, per its own paper and the
S-CORE paper's description:

* an OpenFlow-style controller monitors **link utilization globally**;
* when a link exceeds a congestion threshold, it ranks the VMs sending
  traffic over it by "network cost of migrating and temporal VM traffic
  load": migration cost is the estimated number of migrated bytes as a
  function of RAM size and page dirty rate;
* it migrates the best-ranked VM to the target that best **balances**
  utilization (most residual capacity), *not* to the target that localizes
  traffic — which is why it barely reduces the S-CORE communication cost
  (Fig. 4b) while modestly flattening link utilization (Fig. 4a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.sim.network import LinkLoadCalculator
from repro.topology.base import host_node, tor_node
from repro.topology.links import canonical_link_id
from repro.traffic.matrix import TrafficMatrix
from repro.util.validation import check_positive, check_probability


@dataclass(frozen=True)
class RemedyConfig:
    """Remedy controller parameters.

    Attributes
    ----------
    utilization_threshold:
        A link above this fraction of capacity is congested.
    dirty_rate_mbps:
        Assumed guest page-dirty rate; drives the migrated-bytes estimate
        ``ram * (1 + dirty_overhead)`` of Remedy's cost model.
    min_benefit_bytes_per_mb:
        A migration is worthwhile only if it moves at least this many
        bytes/second off congested links per MB of migration traffic —
        Remedy's cost-of-migration vs. benefit ranking.
    max_rounds:
        Upper bound on controller iterations.
    candidate_sample:
        How many least-loaded hosts are probed as targets per migration.
    """

    utilization_threshold: float = 0.7
    dirty_rate_mbps: float = 20.0
    min_benefit_bytes_per_mb: float = 0.0
    max_rounds: int = 50
    candidate_sample: int = 16

    def __post_init__(self) -> None:
        check_probability("utilization_threshold", self.utilization_threshold)
        check_positive("dirty_rate_mbps", self.dirty_rate_mbps)
        if self.min_benefit_bytes_per_mb < 0:
            raise ValueError(
                f"min_benefit_bytes_per_mb must be >= 0, got "
                f"{self.min_benefit_bytes_per_mb}"
            )
        check_positive("max_rounds", self.max_rounds)
        check_positive("candidate_sample", self.candidate_sample)


@dataclass
class RemedyReport:
    """Record of one Remedy run."""

    initial_cost: float
    final_cost: float
    initial_max_utilization: float
    final_max_utilization: float
    migrations: List[Tuple[int, int, int]] = field(default_factory=list)
    cost_series: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def n_migrations(self) -> int:
        """Number of migrations the controller performed."""
        return len(self.migrations)

    @property
    def cost_reduction(self) -> float:
        """Fractional communication-cost reduction (usually small: Fig. 4b)."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


class RemedyController:
    """Centralized link-utilization balancer."""

    def __init__(
        self,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
        config: RemedyConfig = RemedyConfig(),
        round_interval_s: float = 10.0,
    ) -> None:
        check_positive("round_interval_s", round_interval_s)
        self._allocation = allocation
        self._traffic = traffic
        self._cost_model = cost_model
        self._config = config
        self._interval = round_interval_s
        self._calculator = LinkLoadCalculator(cost_model.topology)

    @property
    def allocation(self) -> Allocation:
        """The allocation the controller mutates."""
        return self._allocation

    def migration_bytes_mb(self, vm_id: int) -> float:
        """Remedy's migration-cost model: RAM inflated by the dirty rate.

        Estimated migrated bytes grow with the page-dirty rate relative to
        the transfer rate; a fixed 1 Gb/s (125 MB/s) migration channel is
        assumed, matching the testbed.
        """
        ram_mb = self._allocation.vm(vm_id).ram_mb
        transfer_mbps = 125.0
        overhead = self._config.dirty_rate_mbps / transfer_mbps
        return ram_mb * (1.0 + overhead)

    def run(self) -> RemedyReport:
        """Iterate: find the hottest congested link, offload its top VM."""
        allocation = self._allocation
        traffic = self._traffic
        calc = self._calculator
        cost = self._cost_model.total_cost(allocation, traffic)
        report = RemedyReport(
            initial_cost=cost,
            final_cost=cost,
            initial_max_utilization=calc.max_utilization(allocation, traffic),
            final_max_utilization=0.0,
        )
        clock = 0.0
        report.cost_series.append((clock, cost))
        for _round in range(self._config.max_rounds):
            clock += self._interval
            moved = self._one_round()
            cost = self._cost_model.total_cost(allocation, traffic)
            report.cost_series.append((clock, cost))
            if moved is None:
                break
            report.migrations.append(moved)
        report.final_cost = cost
        report.final_max_utilization = calc.max_utilization(allocation, traffic)
        return report

    # -- internals -------------------------------------------------------------

    def _one_round(self) -> Optional[Tuple[int, int, int]]:
        """One controller round; returns (vm, source, target) or None."""
        allocation, traffic = self._allocation, self._traffic
        utils = self._calculator.utilizations(allocation, traffic)
        congested = [
            (value, link_id)
            for link_id, value in utils.items()
            if value > self._config.utilization_threshold
        ]
        if not congested:
            return None
        congested.sort(reverse=True)
        # Rank the VMs of every congested link from ONE batched routing
        # pass instead of re-routing the whole matrix per link.
        rankings = self._calculator.vm_contributions_many(
            allocation, traffic, [link_id for _, link_id in congested]
        )
        for _value, link_id in congested:
            move = self._relieve_link(link_id, rankings[link_id])
            if move is not None:
                return move
        return None

    def _relieve_link(
        self, link_id, contributions: Dict[int, float]
    ) -> Optional[Tuple[int, int, int]]:
        allocation, traffic = self._allocation, self._traffic
        if not contributions:
            return None
        # Remedy's ranking: most benefit (traffic over the hot link) per MB
        # of migration traffic first.
        ranked = sorted(
            contributions.items(),
            key=lambda item: -(item[1] / self.migration_bytes_mb(item[0])),
        )
        before_max = self._calculator.max_utilization(allocation, traffic)
        for vm_id, load_over_link in ranked:
            benefit_floor = (
                self._config.min_benefit_bytes_per_mb
                * self.migration_bytes_mb(vm_id)
            )
            if load_over_link < benefit_floor:
                continue
            target = self._best_balancing_target(vm_id, before_max)
            if target is not None:
                source = allocation.server_of(vm_id)
                allocation.migrate_many([(vm_id, target)])
                return (vm_id, source, target)
        return None

    def _best_balancing_target(
        self, vm_id: int, before_max: float
    ) -> Optional[int]:
        """Feasible host whose adoption of the VM most lowers peak utilization.

        Candidates are the hosts with the least-loaded access links — a
        *balancing* criterion, deliberately not the locality criterion
        S-CORE uses.
        """
        allocation, traffic = self._allocation, self._traffic
        vm = allocation.vm(vm_id)
        source = allocation.server_of(vm_id)
        utils = self._calculator.utilizations(allocation, traffic)
        topo = self._cost_model.topology
        host_access_load = {}
        for host in topo.hosts:
            if host == source or not allocation.can_host(host, vm):
                continue
            # The host's single access link is (host, tor-of-host).
            link = canonical_link_id(
                host_node(host), tor_node(topo.rack_of(host))
            )
            host_access_load[host] = utils.get(link, 0.0)
        candidates = sorted(host_access_load, key=host_access_load.get)[
            : self._config.candidate_sample
        ]
        best_host = None
        best_peak = before_max
        for host in candidates:
            trial = allocation.copy()
            trial.migrate_many([(vm_id, host)])
            peak = self._calculator.max_utilization(trial, traffic)
            if peak < best_peak - 1e-12:
                best_peak = peak
                best_host = host
        return best_host
