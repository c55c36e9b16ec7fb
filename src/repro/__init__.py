"""S-CORE reproduction: scalable traffic-aware VM management (ICDCS 2014).

Public API quick tour::

    from repro import (
        CanonicalTree, Cluster, PlacementManager, place_random,
        DCTrafficGenerator, SPARSE,
        CostModel, LinkWeights, MigrationEngine, SCOREScheduler,
        HighestLevelFirstPolicy,
    )

    topo = CanonicalTree(n_racks=8, hosts_per_rack=4)
    cluster = Cluster(topo)
    manager = PlacementManager(cluster)
    vms = manager.create_vms(64)
    allocation = place_random(cluster, vms, seed=7)
    traffic = DCTrafficGenerator([vm.vm_id for vm in vms], SPARSE, seed=7).generate()
    engine = MigrationEngine(CostModel(topo))
    scheduler = SCOREScheduler(allocation, traffic, HighestLevelFirstPolicy(), engine)
    report = scheduler.run(n_iterations=5)
    print(f"communication cost reduced by {report.cost_reduction:.0%}")
"""

from repro.topology import CanonicalTree, FatTree, Topology
from repro.cluster import (
    VM,
    Allocation,
    CapacityError,
    Cluster,
    PlacementManager,
    ServerCapacity,
    place_arrivals,
    place_packed,
    place_random,
    place_round_robin,
    place_striped,
)
from repro.traffic import (
    DCTrafficGenerator,
    TrafficMatrix,
    TrafficPattern,
    DENSE,
    MEDIUM,
    SPARSE,
)
from repro.core import (
    CostModel,
    FastCostEngine,
    HighestLevelFirstPolicy,
    LinkWeights,
    MigrationDecision,
    MigrationEngine,
    RoundRobinPolicy,
    SCOREScheduler,
    SchedulerReport,
    Token,
    TokenPolicy,
    policy_by_name,
)

from repro.scenarios import (
    ChurnSpec,
    DriftSpec,
    Scenario,
    register_scenario,
    run_scenario,
    scenario_by_name,
    scenario_names,
)

__version__ = "1.0.0"

__all__ = [
    "Topology",
    "CanonicalTree",
    "FatTree",
    "VM",
    "ServerCapacity",
    "Cluster",
    "Allocation",
    "CapacityError",
    "PlacementManager",
    "place_arrivals",
    "place_packed",
    "place_random",
    "place_round_robin",
    "place_striped",
    "TrafficMatrix",
    "DCTrafficGenerator",
    "TrafficPattern",
    "SPARSE",
    "MEDIUM",
    "DENSE",
    "CostModel",
    "FastCostEngine",
    "LinkWeights",
    "Token",
    "TokenPolicy",
    "RoundRobinPolicy",
    "HighestLevelFirstPolicy",
    "policy_by_name",
    "MigrationEngine",
    "MigrationDecision",
    "SCOREScheduler",
    "SchedulerReport",
    "Scenario",
    "DriftSpec",
    "ChurnSpec",
    "run_scenario",
    "register_scenario",
    "scenario_by_name",
    "scenario_names",
    "__version__",
]
