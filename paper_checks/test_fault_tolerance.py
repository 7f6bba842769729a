"""Paper check: fault-tolerance overhead (Sec. 3.1 claims).

Not a paper figure — the paper asserts recovery qualitatively. This
check quantifies it: the same SNV workload with and without two node
crashes mid-run. Recovery must succeed and cost less than the work the
dead nodes would have contributed (the cluster shrinks by 2/8, so a
slowdown beyond ~2x would indicate recovery is broken, not just slower).
"""

from repro.cluster import (
    Cluster,
    ClusterSpec,
    FailureInjector,
    FailurePlan,
    M3_LARGE,
)
from repro.core import HiWay, HiWayConfig
from repro.hdfs import HdfsClient
from repro.langs import CuneiformSource
from repro.sim import Environment
from repro.workloads import SNV_TOOLS, sample_read_files, snv_cuneiform
from repro.yarn import ResourceManager


def run_snv(crash: bool, seed: int = 0) -> tuple[float, int]:
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=8))
    hdfs = HdfsClient(cluster, replication=3, seed=seed)
    rm = ResourceManager(env, cluster, max_containers_per_node=2)
    hiway = HiWay(cluster, hdfs=hdfs, rm=rm, config=HiWayConfig(
        container_vcores=1, container_memory_mb=1024.0, max_retries=4,
    ))
    hiway.install_everywhere(*SNV_TOOLS)
    inputs = sample_read_files(4, files_per_sample=4, mb_per_file=96.0)
    hiway.stage_inputs(inputs, seed=seed)
    if crash:
        injector = FailureInjector(env, rm, hdfs)
        now = env.now
        injector.arm(FailurePlan(crashes=(
            (now + 60.0, "worker-2"),
            (now + 120.0, "worker-5"),
        )))
    result = hiway.run(
        CuneiformSource(snv_cuneiform(inputs), name="snv"), scheduler="fcfs"
    )
    assert result.success, result.diagnostics
    return result.runtime_seconds, result.task_failures


def test_recovery_overhead_is_bounded():
    baseline, _failures = run_snv(crash=False)
    crashed, failures = run_snv(crash=True)
    overhead = crashed / baseline
    print(f"\n  baseline {baseline/60:.1f} min; with 2 crashes "
          f"{crashed/60:.1f} min (x{overhead:.2f}, {failures} retried tasks)")
    assert overhead >= 1.0, "losing nodes cannot speed things up"
    # 6 of 8 workers survive: worst reasonable case is ~8/6 slowdown plus
    # wasted attempts; beyond 2.2x recovery would be pathological.
    assert overhead < 2.2
