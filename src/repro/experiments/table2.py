"""Table 2 / Figure 5: weak-scaling of SNV calling on EC2 (Sec. 4.1).

One 8 GB 1000-Genomes sample per worker, streamed from S3 during
execution, with CRAM-compressed intermediate alignments; the worker
count doubles from 1 to 128 while the input volume doubles along with
it. Two dedicated master VMs host the Hadoop daemons and the Hi-WAY AM.
Near-linear scalability means the runtime stays flat while cost per GB
falls; the paper's cost model ($0.146/h m3.large, per-minute billing of
every provisioned VM) is applied verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay, HiWayConfig
from repro.experiments.common import ExperimentTable, mean, minutes, std
from repro.hdfs import HdfsClient
from repro.langs import CuneiformSource
from repro.perf import run_grid
from repro.sim import Environment
from repro.workloads import SNV_TOOLS, sample_read_files, snv_cuneiform
from repro.yarn import ResourceManager

__all__ = ["Table2Config", "run_table2", "run_weak_scaling_once"]


@dataclass(frozen=True)
class Table2Config:
    """Parameters of the Table 2 / Figure 5 reproduction.

    The defaults are the configuration that recorded
    ``results/table2.txt``.
    """

    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    files_per_sample: int = 8
    mb_per_file: float = 1032.0  # 8.06 GB per sample, as in Table 2
    runs: int = 1

    @classmethod
    def quick(cls) -> "Table2Config":
        """Fewer scales; the flat-runtime shape is preserved."""
        return cls(worker_counts=(1, 2, 4, 8))


def run_weak_scaling_once(config: Table2Config, workers: int, seed: int):
    """One weak-scaling run; returns (runtime seconds, installation).

    The Hi-WAY installation is returned so Figure 6 can read the
    cluster's metrics recorder and the NameNode's RPC counters.
    """
    env = Environment()
    spec = ClusterSpec(
        worker_spec=M3_LARGE,
        worker_count=workers,
        master_count=2,  # Hadoop masters + dedicated Hi-WAY AM node
        backbone_mb_s=10_000.0,  # EC2 fabric: not the bottleneck here
    )
    cluster = Cluster(env, spec)
    hdfs = HdfsClient(cluster, seed=seed)
    # One container per worker node, multithreading within it (Sec. 4.1).
    rm = ResourceManager(env, cluster, max_containers_per_node=1)
    hiway = HiWay(
        cluster,
        hdfs=hdfs,
        rm=rm,
        config=HiWayConfig(
            container_vcores=M3_LARGE.cores,
            container_memory_mb=M3_LARGE.memory_mb * 0.9,
            am_node="master-1",
        ),
    )
    hiway.install_everywhere(*SNV_TOOLS)
    inputs = sample_read_files(
        workers,
        files_per_sample=config.files_per_sample,
        mb_per_file=config.mb_per_file,
        from_s3=True,
    )
    hiway.stage_inputs(inputs)  # registers the S3 catalogue only
    result = hiway.run(
        CuneiformSource(snv_cuneiform(inputs, use_cram=True), name="snv-s3"),
        scheduler="fcfs",
    )
    assert result.success, result.diagnostics
    return result.runtime_seconds, hiway


def _weak_scaling_unit(
    config: Table2Config, workers: int, seed: int
) -> tuple[float, float]:
    """One grid point: (runtime seconds, cluster hourly cost).

    Picklable for the process-pool runner: the Hi-WAY installation stays
    in the worker process; only the scalars Table 2 needs come back.
    """
    seconds, hiway = run_weak_scaling_once(config, workers, seed)
    return seconds, hiway.cluster.spec.hourly_cost()


def run_table2(
    config: Optional[Table2Config] = None,
    quick: bool = False,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Regenerate Table 2 (and with it Figure 5's series).

    ``jobs`` spreads the (workers x seed) grid over a process pool
    (``None`` = all cores); results merge in grid order, so the table is
    identical to a serial run.
    """
    if config is None:
        config = Table2Config.quick() if quick else Table2Config()
    table = ExperimentTable(
        experiment_id="table2",
        title="Weak scaling of SNV calling (S3 inputs, CRAM)",
        columns=[
            "workers", "masters", "data_gb",
            "runtime_min", "runtime_std",
            "cost_usd", "cost_per_gb",
        ],
        notes=(
            "one 8.06 GB sample per worker from S3; FCFS; one container "
            f"per node; {config.runs} run(s); $0.146/h per m3.large VM"
        ),
    )
    params = [
        (config, workers, seed)
        for workers in config.worker_counts
        for seed in range(config.runs)
    ]
    results = iter(run_grid(_weak_scaling_unit, params, jobs=jobs))
    for workers in config.worker_counts:
        runtimes = []
        hourly_cost = 0.0
        for _ in range(config.runs):
            seconds, hourly_cost = next(results)
            runtimes.append(seconds)
        data_gb = workers * config.files_per_sample * config.mb_per_file / 1024.0
        mean_seconds = mean(runtimes)
        # Per-minute billing of every provisioned VM (Table 2 footnote),
        # the same arithmetic as Cluster.run_cost.
        cost = (mean_seconds / 60.0) * hourly_cost / 60.0
        table.add_row(
            workers,
            2,
            data_gb,
            minutes(mean_seconds),
            minutes(std(runtimes)),
            cost,
            cost / data_gb,
        )
    return table
