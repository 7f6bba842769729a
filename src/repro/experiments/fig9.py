"""Figure 9: adaptive (HEFT) scheduling of Montage on a heterogeneous
cluster (Sec. 4.3).

A 0.25-degree Montage DAX workflow runs on eleven m3.large workers plus
one master. Ten workers are perturbed with ``stress``: five with 1, 4,
16, 64, 256 CPU hogs, five with the same counts of disk writers. One
experiment run consists of (i) one FCFS execution as the baseline and
(ii) twenty consecutive HEFT executions over which provenance — and
with it the runtime-estimate picture — accumulates; provenance is wiped
between experiment runs. The paper's expected dynamics:

* HEFT without provenance is *worse* than FCFS (static placement cannot
  react to stragglers);
* one prior run already flips the comparison;
* estimates are complete once every task signature has run on all
  eleven workers (around run 11), after which runtimes are both lowest
  and most stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster import Cluster, ClusterSpec, M3_LARGE, apply_stress, paper_fig9_stress
from repro.core import HeftScheduler, HiWay, HiWayConfig
from repro.core.provenance import TraceFileStore
from repro.experiments.common import ExperimentTable, median, std
from repro.hdfs import HdfsClient
from repro.langs import DaxSource
from repro.perf import run_grid
from repro.sim import Environment
from repro.workloads import MONTAGE_TOOLS, montage_dax, montage_inputs
from repro.yarn import ResourceManager

__all__ = ["Fig9Config", "run_fig9"]


@dataclass(frozen=True)
class Fig9Config:
    """Parameters of the Figure 9 reproduction.

    The defaults are the configuration that recorded ``results/fig9.txt``
    (40 repeats; the paper ran 80).
    """

    degree: float = 0.25
    worker_count: int = 11
    consecutive_heft_runs: int = 20
    experiment_repeats: int = 40

    @classmethod
    def quick(cls) -> "Fig9Config":
        return cls(consecutive_heft_runs=12, experiment_repeats=5)


def _fresh_installation(config: Fig9Config, seed: int, store) -> HiWay:
    env = Environment()
    spec = ClusterSpec(
        worker_spec=M3_LARGE, worker_count=config.worker_count, master_count=1
    )
    cluster = Cluster(env, spec)
    apply_stress(cluster, paper_fig9_stress(cluster.worker_ids))
    hdfs = HdfsClient(cluster, seed=seed)
    rm = ResourceManager(env, cluster, max_containers_per_node=1)
    hiway = HiWay(
        cluster,
        hdfs=hdfs,
        rm=rm,
        provenance_store=store,
        config=HiWayConfig(container_vcores=1, container_memory_mb=1024.0),
    )
    hiway.install_everywhere(*MONTAGE_TOOLS)
    hiway.stage_inputs(montage_inputs(config.degree), seed=seed)
    return hiway


def _read_mb_split(registry) -> tuple[float, float]:
    """(local, non-local) MB staged in so far, per the metrics registry."""
    local = registry.value("hiway_hdfs_read_mb_total", locality="local")
    nonlocal_mb = (
        registry.value("hiway_hdfs_read_mb_total", locality="remote")
        + registry.value("hiway_hdfs_read_mb_total", locality="external")
    )
    return local, nonlocal_mb


def _one_experiment(
    config: Fig9Config, seed: int
) -> tuple[float, list[float], list[float]]:
    """One experiment: an FCFS baseline plus N consecutive HEFT runs.

    All executions share a cluster/installation (stress persists across
    workflow runs on real hardware too); provenance starts empty. The
    registry is cumulative across the shared installation, so per-run
    locality comes from before/after counter deltas.
    """
    store = TraceFileStore()
    hiway = _fresh_installation(config, seed, store)
    dax = montage_dax(config.degree)
    fcfs_result = hiway.run(DaxSource(dax), scheduler="fcfs")
    assert fcfs_result.success, fcfs_result.diagnostics
    fcfs_runtime = fcfs_result.runtime_seconds
    # The FCFS baseline must not seed the HEFT estimates.
    store.clear()
    heft_runtimes = []
    heft_localities = []
    for run_index in range(config.consecutive_heft_runs):
        local_before, nonlocal_before = _read_mb_split(hiway.registry)
        scheduler = HeftScheduler(seed=seed * 1000 + run_index)
        result = hiway.run(DaxSource(dax), scheduler=scheduler)
        assert result.success, result.diagnostics
        heft_runtimes.append(result.runtime_seconds)
        local_after, nonlocal_after = _read_mb_split(hiway.registry)
        delta_local = local_after - local_before
        delta_total = delta_local + nonlocal_after - nonlocal_before
        heft_localities.append(
            delta_local / delta_total if delta_total > 0 else 1.0
        )
    return fcfs_runtime, heft_runtimes, heft_localities


def run_fig9(
    config: Optional[Fig9Config] = None,
    quick: bool = False,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Regenerate the Figure 9 series.

    Row ``prior_runs=k`` is the HEFT execution that had k prior runs of
    provenance available; the FCFS baseline is reported alongside.
    Repeats are independent experiments, so ``jobs`` spreads them over a
    process pool (``None`` = all cores) with results merged in seed
    order — identical tables to a serial run.
    """
    if config is None:
        config = Fig9Config.quick() if quick else Fig9Config()
    fcfs_runtimes = []
    heft_by_index: list[list[float]] = [
        [] for _ in range(config.consecutive_heft_runs)
    ]
    locality_by_index: list[list[float]] = [
        [] for _ in range(config.consecutive_heft_runs)
    ]
    outcomes = run_grid(
        _one_experiment,
        [(config, seed) for seed in range(config.experiment_repeats)],
        jobs=jobs,
    )
    for fcfs_runtime, heft_runtimes, heft_localities in outcomes:
        fcfs_runtimes.append(fcfs_runtime)
        for index, runtime in enumerate(heft_runtimes):
            heft_by_index[index].append(runtime)
        for index, locality in enumerate(heft_localities):
            locality_by_index[index].append(locality)
    table = ExperimentTable(
        experiment_id="fig9",
        title="Montage on a stressed cluster: HEFT vs FCFS over provenance",
        columns=["prior_runs", "heft_median_s", "heft_std_s", "fcfs_median_s",
                 "heft_locality"],
        notes=(
            f"{config.worker_count} stressed m3.large workers, Montage "
            f"{config.degree} deg, {config.experiment_repeats} repeat(s)"
        ),
    )
    fcfs_median = median(fcfs_runtimes)
    for index, runtimes in enumerate(heft_by_index):
        table.add_row(
            index, median(runtimes), std(runtimes), fcfs_median,
            median(locality_by_index[index]),
        )
    return table
