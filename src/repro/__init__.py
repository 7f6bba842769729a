"""repro — a faithful reproduction of "Hi-WAY: Execution of Scientific
Workflows on Hadoop YARN" (Bux et al., EDBT 2017) on a simulated Hadoop
substrate.

Quickstart::

    from repro import Cluster, ClusterSpec, Environment, HiWay, M3_LARGE
    from repro.langs import parse_workflow

    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=4))
    hiway = HiWay(cluster)
    hiway.install_everywhere("sort", "grep")
    hiway.stage_inputs({"/in/data": 64.0})
    result = hiway.run(parse_workflow("x = sort-task( i: '/in/data' ); x;"))

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from repro.cluster import (
    C3_2XLARGE,
    Cluster,
    ClusterSpec,
    M3_LARGE,
    NodeSpec,
    XEON_E5_2620,
)
from repro.core import (
    HiWay,
    HiWayApplicationMaster,
    HiWayConfig,
    ProvenanceManager,
)
from repro.hdfs import HdfsClient
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph
from repro.yarn import ResourceManager

__version__ = "1.0.0"

__all__ = [
    "Environment",
    "Cluster",
    "ClusterSpec",
    "NodeSpec",
    "M3_LARGE",
    "C3_2XLARGE",
    "XEON_E5_2620",
    "HdfsClient",
    "ResourceManager",
    "HiWay",
    "HiWayConfig",
    "HiWayApplicationMaster",
    "ProvenanceManager",
    "TaskSpec",
    "WorkflowGraph",
    "StaticTaskSource",
    "__version__",
]
