"""Baselines the paper evaluates S-CORE against.

:mod:`repro.baselines.ga`
    The centralized genetic-algorithm approximation of the optimal VM
    allocation (§VI-A).  The paper treats its output as "optimal" when
    reporting cost *ratios*; so do the benches here.
:mod:`repro.baselines.remedy`
    A reimplementation of Remedy (Mann et al., Networking'12): centralized,
    OpenFlow-style link monitoring, migrates VMs off congested links to
    *balance* utilization, with a page-dirty-rate migration-cost model
    (§VI-B / Fig. 4 comparison).
"""

from repro.baselines.ga import GAConfig, GAResult, GeneticOptimizer
from repro.baselines.remedy import RemedyConfig, RemedyController, RemedyReport

__all__ = [
    "GAConfig",
    "GAResult",
    "GeneticOptimizer",
    "RemedyConfig",
    "RemedyController",
    "RemedyReport",
]
