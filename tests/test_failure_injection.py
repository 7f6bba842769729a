"""Fault-tolerance tests driven by the failure injector (Sec. 3.1)."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.cluster.failures import FailureInjector, FailurePlan
from repro.core import HiWay, HiWayConfig
from repro.hdfs import HdfsClient
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph
from repro.yarn import ResourceManager


def fan_graph(n):
    graph = WorkflowGraph("fan")
    for index in range(n):
        graph.add_task(TaskSpec(
            tool="sort", inputs=[f"/in/{index}"], outputs=[f"/out/{index}"],
        ))
    return graph


def build(workers=5, replication=3, max_retries=4):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=workers))
    hdfs = HdfsClient(cluster, replication=replication, seed=0)
    rm = ResourceManager(env, cluster)
    hiway = HiWay(cluster, hdfs=hdfs, rm=rm,
                  config=HiWayConfig(max_retries=max_retries))
    hiway.install_everywhere("sort")
    injector = FailureInjector(env, rm, hdfs)
    return hiway, injector


def test_plan_generation_is_seeded_and_respects_spares():
    ids = [f"worker-{i}" for i in range(6)]
    plan_a = FailurePlan.random_crashes(ids, 3, 100.0, seed=5)
    plan_b = FailurePlan.random_crashes(ids, 3, 100.0, seed=5)
    assert plan_a == plan_b
    assert len({node for _t, node in plan_a.crashes}) == 3
    assert all(0 <= t <= 100.0 for t, _n in plan_a.crashes)
    spared = FailurePlan.random_crashes(ids, 3, 100.0, seed=5,
                                        spare={"worker-0"})
    assert all(node != "worker-0" for _t, node in spared.crashes)
    with pytest.raises(ValueError):
        FailurePlan.random_crashes(ids, 7, 100.0)


def test_workflow_survives_two_node_crashes():
    hiway, injector = build(workers=5)
    inputs = {f"/in/{i}": 48.0 for i in range(8)}
    hiway.stage_inputs(inputs)
    # Crash two workers a few simulated seconds into the run, while
    # tasks are in flight.
    now = hiway.env.now
    plan = FailurePlan(crashes=((now + 3.0, "worker-1"), (now + 6.0, "worker-3")))
    injector.arm(plan)
    result = hiway.run(StaticTaskSource(fan_graph(8)), scheduler="fcfs")
    assert result.success, result.diagnostics
    assert result.tasks_completed == 8
    assert injector.crashed == ["worker-1", "worker-3"]
    assert result.task_failures >= 1  # at least one in-flight casualty


def test_replication_one_can_lose_data():
    """Without redundancy, a crash can make inputs unrecoverable —
    the contrast that motivates Sec. 3.1's reliance on HDFS."""
    hiway, injector = build(workers=3, replication=1, max_retries=2)
    hiway.stage_inputs({f"/in/{i}": 64.0 for i in range(6)})
    # Crash every node that may hold sole replicas, early.
    plan = FailurePlan(crashes=((5.0, "worker-0"), (6.0, "worker-1")))
    injector.arm(plan)
    result = hiway.run(StaticTaskSource(fan_graph(6)), scheduler="fcfs")
    # Some tasks inevitably lost their only input replica.
    assert not result.success
    assert result.task_failures > 0


def test_crash_now_is_idempotent():
    hiway, injector = build(workers=3)
    injector.crash_now("worker-1")
    injector.crash_now("worker-1")
    assert injector.crashed == ["worker-1"]
    assert hiway.rm.total_capacity_vcores == 4  # two survivors x 2 cores
