"""Simulated cluster hardware: nodes, switch, external storage endpoints."""

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.specs import (
    C3_2XLARGE,
    GIGABIT_MB_S,
    M3_LARGE,
    XEON_E5_2620,
    ClusterSpec,
    NodeSpec,
)
from repro.cluster.stress import StressProfile, apply_stress, paper_fig9_stress

__all__ = [
    "Cluster",
    "Node",
    "NodeSpec",
    "ClusterSpec",
    "M3_LARGE",
    "C3_2XLARGE",
    "XEON_E5_2620",
    "GIGABIT_MB_S",
    "StressProfile",
    "apply_stress",
    "paper_fig9_stress",
]
