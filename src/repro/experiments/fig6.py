"""Figure 6: master and worker resource utilisation vs. scale (Sec. 4.1).

Re-runs the weak-scaling experiment and reads the exact usage integrals
of the metric recorder, each the work of the flows that crossed a
resource, as mean rates over the run: CPU load (cores), I/O
utilisation (fraction of disk bandwidth) and network throughput (MB/s),
for the Hadoop master (RM + NameNode), the Hi-WAY AM master, and an
average worker. The paper's claim to verify: master-side load grows
with cluster size but stays far below saturation (< 5 % at 128 nodes),
while workers stay CPU-bound near their core count.

Master *network* throughput is accounted analytically from RPC counts
(metadata ops x ~2 KB), since the simulation routes bulk data directly
between workers — exactly as real HDFS does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.common import ExperimentTable
from repro.experiments.table2 import Table2Config, run_weak_scaling_once
from repro.perf import run_grid

__all__ = ["Fig6Config", "run_fig6"]

#: Approximate bytes exchanged per master RPC (heartbeats, metadata).
RPC_MB = 0.002


@dataclass(frozen=True)
class Fig6Config:
    """Parameters of the Figure 6 reproduction."""

    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    seed: int = 0

    @classmethod
    def quick(cls) -> "Fig6Config":
        return cls(worker_counts=(1, 4, 16))


def _fig6_unit(weak_config: Table2Config, workers: int, seed: int) -> tuple:
    """One utilisation row, fully computed in the (sub)process.

    The metrics recorder and NameNode counters only exist inside the
    installation that ran the workflow, so the whole row is reduced to
    plain floats here and the installation never crosses the process
    boundary.
    """
    seconds, hiway = run_weak_scaling_once(weak_config, workers, seed)
    metrics = hiway.cluster.metrics
    duration = metrics.duration()
    hadoop_cpu = metrics.average_rate("cpu:master-0")
    hiway_cpu = metrics.average_rate("cpu:master-1")
    worker_cpu = sum(
        metrics.average_rate(f"cpu:worker-{i}") for i in range(workers)
    ) / workers
    hadoop_io = metrics.average_utilization("disk:master-0")
    worker_io = sum(
        metrics.average_utilization(f"disk:worker-{i}") for i in range(workers)
    ) / workers
    # Master network: RPC traffic (heartbeats + metadata ops).
    # NameNode ops are counted; heartbeats arrive at ~1 Hz per node.
    # Container lifecycle RPCs (allocate response, NM launch, NM
    # completion report) are tallied from the observability bus.
    hdfs_ops = hiway.hdfs.namenode.ops
    lifecycle_rpcs = 3 * metrics.registry.value("hiway_containers_launched_total")
    heartbeat_rpcs = workers * duration  # 1 Hz per NM and per DN
    hadoop_net = (
        (hdfs_ops + lifecycle_rpcs + 2 * heartbeat_rpcs)
        * RPC_MB / max(duration, 1e-9)
    )
    worker_net = sum(
        metrics.average_rate(f"link:worker-{i}") for i in range(workers)
    ) / workers
    return (
        workers,
        hadoop_cpu, hiway_cpu, worker_cpu,
        hadoop_io, worker_io,
        hadoop_net, worker_net,
    )


def run_fig6(
    config: Optional[Fig6Config] = None,
    quick: bool = False,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Regenerate the Figure 6 utilisation series.

    ``jobs`` spreads the per-scale runs over a process pool (``None`` =
    all cores); rows merge in scale order, identical to a serial run.
    """
    if config is None:
        config = Fig6Config.quick() if quick else Fig6Config()
    table = ExperimentTable(
        experiment_id="fig6",
        title="Resource utilisation of masters and workers vs scale",
        columns=[
            "workers",
            "hadoop_cpu_load", "hiway_cpu_load", "worker_cpu_load",
            "hadoop_io_util", "worker_io_util",
            "hadoop_net_mb_s", "worker_net_mb_s",
        ],
        notes=(
            "CPU load in cores (peak 2.0 on m3.large); I/O utilisation as "
            "fraction of disk bandwidth; masters: master-0 = RM+NameNode, "
            "master-1 = Hi-WAY AM"
        ),
    )
    weak_config = Table2Config()
    rows = run_grid(
        _fig6_unit,
        [(weak_config, workers, config.seed) for workers in config.worker_counts],
        jobs=jobs,
    )
    for row in rows:
        table.add_row(*row)
    return table
