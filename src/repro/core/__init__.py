"""S-CORE: the paper's primary contribution.

* :mod:`repro.core.cost` — link weights and the communication-cost function
  (Eq. 1–2) plus the migration delta (Lemmas 1–3).
* :mod:`repro.core.token` — the token wire format (§V-A: 32-bit VM ID +
  8-bit highest communication level per entry, ascending ID order).
* :mod:`repro.core.policies` — Round-Robin and Highest-Level-First token
  passing (§V-A, Algorithm 1), plus two extra policies from the companion
  technical report's design space.
* :mod:`repro.core.migration` — the Theorem 1 migration condition, target
  search with capacity/bandwidth probing (§V-B5, §V-C).
* :mod:`repro.core.scheduler` — the distributed control loop: token
  circulation, unilateral decisions, iteration accounting.
* :mod:`repro.core.fastcost` — the array-backed engine computing the same
  quantities over CSR numpy snapshots with incremental Lemma 3 caches and
  the batched candidate scorer every token round decides with, which is
  what makes paper-scale (2560-host) runs affordable.

The GA baseline's population-matrix kernels live in
:mod:`repro.baselines.population`; no module here imports
:mod:`repro.baselines`.
"""

from repro.core.cost import CostModel, LinkWeights
from repro.core.fastcost import (
    FastCostEngine,
    TrafficSnapshot,
    assignment_cost,
    pair_levels,
    path_weight_table,
)
from repro.core.token import Token, MAX_LEVEL_VALUE
from repro.core.policies import (
    HighestLevelFirstPolicy,
    LeastRecentlyVisitedPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    TokenPolicy,
    policy_by_name,
)
from repro.core.migration import (
    MigrationDecision,
    MigrationEngine,
)
from repro.core.scheduler import IterationStats, SCOREScheduler, SchedulerReport

__all__ = [
    "CostModel",
    "LinkWeights",
    "FastCostEngine",
    "TrafficSnapshot",
    "assignment_cost",
    "pair_levels",
    "path_weight_table",
    "Token",
    "MAX_LEVEL_VALUE",
    "TokenPolicy",
    "RoundRobinPolicy",
    "HighestLevelFirstPolicy",
    "RandomPolicy",
    "LeastRecentlyVisitedPolicy",
    "policy_by_name",
    "MigrationDecision",
    "MigrationEngine",
    "SCOREScheduler",
    "IterationStats",
    "SchedulerReport",
]
