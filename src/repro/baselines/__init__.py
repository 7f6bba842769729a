"""Baseline systems the paper compares against: Tez and Galaxy CloudMan."""

from repro.baselines.cloudman import GalaxyCloudMan
from repro.baselines.tez import TezApplicationMaster, from_workflow_graph

__all__ = [
    "TezApplicationMaster",
    "from_workflow_graph",
    "GalaxyCloudMan",
]
