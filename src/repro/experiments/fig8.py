"""Figure 8: TRAPLINE RNA-seq on Hi-WAY vs. Galaxy CloudMan (Sec. 4.2).

The TRAPLINE Galaxy workflow (degree of parallelism six) runs on EC2
c3.2xlarge clusters of one to six nodes, five times per size per system,
each system configured to one task per worker node. Hi-WAY executes the
exported Galaxy JSON on YARN with HDFS on the nodes' local SSDs; the
CloudMan baseline schedules through Slurm against a shared EBS volume.
The paper observes Hi-WAY at least 25 % faster at every size, the gap
driven by TopHat2's intermediate files living on local SSD vs. EBS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.cloudman import GalaxyCloudMan
from repro.cluster import C3_2XLARGE, Cluster, ClusterSpec
from repro.core import HiWay, HiWayConfig
from repro.experiments.common import ExperimentTable, mean, minutes, std
from repro.hdfs import HdfsClient
from repro.langs import GalaxySource, parse_galaxy
from repro.perf import run_grid
from repro.sim import Environment
from repro.tools import default_registry
from repro.workloads import (
    RNASEQ_TOOLS,
    trapline_galaxy_json,
    trapline_input_bindings,
    trapline_inputs,
)
from repro.yarn import ResourceManager

__all__ = ["Fig8Config", "run_fig8"]


@dataclass(frozen=True)
class Fig8Config:
    """Parameters of the Figure 8 reproduction."""

    node_counts: tuple[int, ...] = (1, 2, 3, 4, 6)
    mb_per_replicate: float = 1750.0
    #: Aggregate throughput of CloudMan's shared EBS volume (a single
    #: magnetic-era volume serving the whole cluster).
    ebs_mb_s: float = 45.0
    runs: int = 5

    @classmethod
    def quick(cls) -> "Fig8Config":
        return cls(node_counts=(1, 2, 4), mb_per_replicate=400.0, runs=1)


def _cluster(config: Fig8Config, nodes: int) -> ClusterSpec:
    return ClusterSpec(
        worker_spec=C3_2XLARGE,
        worker_count=nodes,
        master_count=1,
        ebs_mb_s=config.ebs_mb_s,
    )


def _run_hiway(config: Fig8Config, nodes: int, seed: int) -> tuple[float, float]:
    env = Environment()
    cluster = Cluster(env, _cluster(config, nodes))
    hdfs = HdfsClient(cluster, seed=seed)
    rm = ResourceManager(env, cluster, max_containers_per_node=1)
    hiway = HiWay(
        cluster,
        hdfs=hdfs,
        rm=rm,
        config=HiWayConfig(
            container_vcores=C3_2XLARGE.cores,
            container_memory_mb=C3_2XLARGE.memory_mb * 0.9,
        ),
    )
    hiway.install_everywhere(*RNASEQ_TOOLS)
    hiway.stage_inputs(
        trapline_inputs(mb_per_replicate=config.mb_per_replicate), seed=seed
    )
    source = GalaxySource(
        trapline_galaxy_json(), input_bindings=trapline_input_bindings()
    )
    result = hiway.run(source, scheduler="data-aware")
    assert result.success, result.diagnostics
    # Staging writes the inputs but reads nothing, so the registry's
    # read-locality is exactly the run's stage-in hit rate.
    return result.runtime_seconds, hiway.registry.read_locality()


def _run_cloudman(config: Fig8Config, nodes: int, seed: int) -> float:
    env = Environment()
    cluster = Cluster(env, _cluster(config, nodes))
    tools = default_registry()
    for node in cluster.all_nodes():
        node.install(*RNASEQ_TOOLS)
    cloudman = GalaxyCloudMan(cluster, tools, slots_per_node=1)
    cloudman.stage_inputs(trapline_inputs(mb_per_replicate=config.mb_per_replicate))
    graph = parse_galaxy(
        trapline_galaxy_json(), input_bindings=trapline_input_bindings()
    )
    result = cloudman.run(graph)
    assert result.success, result.diagnostics
    return result.runtime_seconds


def _fig8_unit(
    system: str, config: Fig8Config, nodes: int, seed: int
) -> tuple[float, Optional[float]]:
    """One grid point: (runtime minutes, locality or None for CloudMan)."""
    if system == "hiway":
        runtime, locality = _run_hiway(config, nodes, seed)
        return minutes(runtime), locality
    return minutes(_run_cloudman(config, nodes, seed)), None


def run_fig8(
    config: Optional[Fig8Config] = None,
    quick: bool = False,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Regenerate the Figure 8 series (runtime vs cluster size).

    ``jobs`` spreads the (system x nodes x seed) grid over a process
    pool (``None`` = all cores); results merge in grid order, identical
    to a serial run.
    """
    if config is None:
        config = Fig8Config.quick() if quick else Fig8Config()
    table = ExperimentTable(
        experiment_id="fig8",
        title="TRAPLINE RNA-seq: Hi-WAY vs Galaxy CloudMan",
        columns=[
            "nodes",
            "hiway_min", "hiway_std",
            "cloudman_min", "cloudman_std",
            "cloudman/hiway",
            "hiway_locality",
        ],
        notes=(
            f"c3.2xlarge, one task per node, 6 x {config.mb_per_replicate:.0f} MB "
            f"replicates, EBS {config.ebs_mb_s:.0f} MB/s, {config.runs} run(s)"
        ),
    )
    params = [
        (system, config, nodes, seed)
        for nodes in config.node_counts
        for system in ("hiway", "cloudman")
        for seed in range(config.runs)
    ]
    results = iter(run_grid(_fig8_unit, params, jobs=jobs))
    for nodes in config.node_counts:
        hiway_outcomes = [next(results) for _ in range(config.runs)]
        hiway_runs = [runtime for runtime, _ in hiway_outcomes]
        hiway_localities = [locality for _, locality in hiway_outcomes]
        cloudman_runs = [next(results)[0] for _ in range(config.runs)]
        table.add_row(
            nodes,
            mean(hiway_runs), std(hiway_runs),
            mean(cloudman_runs), std(cloudman_runs),
            mean(cloudman_runs) / mean(hiway_runs),
            mean(hiway_localities),
        )
    return table
