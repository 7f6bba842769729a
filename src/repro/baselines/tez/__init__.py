"""Miniature Apache Tez: DAG-of-vertices execution on YARN."""

from repro.baselines.tez.am import TezApplicationMaster
from repro.baselines.tez.dag import (
    Edge,
    ONE_TO_ONE,
    SCATTER_GATHER,
    TezDag,
    Vertex,
    from_workflow_graph,
)

__all__ = [
    "TezApplicationMaster",
    "TezDag",
    "Vertex",
    "Edge",
    "ONE_TO_ONE",
    "SCATTER_GATHER",
    "from_workflow_graph",
]
