"""Tests for rack-aware topology and placement."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay
from repro.hdfs import HdfsClient, RackAwarePlacementPolicy
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph


def rack_cluster(workers=6, racks=2, **kwargs):
    env = Environment()
    spec = ClusterSpec(
        worker_spec=M3_LARGE, worker_count=workers, racks=racks, **kwargs
    )
    return env, Cluster(env, spec)


def test_workers_spread_over_racks_round_robin():
    env, cluster = rack_cluster(workers=6, racks=3)
    assert [node.rack for node in cluster.workers] == [0, 1, 2, 0, 1, 2]
    assert len(cluster.rack_switches) == 3
    assert cluster.node("worker-0").rack == cluster.node("worker-3").rack
    assert cluster.node("worker-0").rack != cluster.node("worker-1").rack


def test_flat_cluster_has_no_rack_switches():
    env, cluster = rack_cluster(workers=4, racks=1)
    assert cluster.rack_switches == []
    assert {node.rack for node in cluster.all_nodes()} == {0}


def test_rack_local_transfer_skips_core_backbone():
    env, cluster = rack_cluster(
        workers=4, racks=2, backbone_mb_s=1.0, rack_uplink_mb_s=500.0
    )
    # worker-0 and worker-2 share rack 0: the 1 MB/s core must not bind.
    done = cluster.transfer("worker-0", "worker-2", 125.0)
    env.run(until=done)
    assert env.now == pytest.approx(1.0)  # link-bound at 125 MB/s


def test_cross_rack_transfer_crosses_core():
    env, cluster = rack_cluster(
        workers=4, racks=2, backbone_mb_s=25.0, rack_uplink_mb_s=500.0
    )
    done = cluster.transfer("worker-0", "worker-1", 100.0)
    env.run(until=done)
    assert env.now == pytest.approx(4.0)  # core-bound at 25 MB/s


def test_rack_aware_policy_places_second_and_third_off_rack():
    rack_of = {f"w{i}": i % 2 for i in range(8)}
    policy = RackAwarePlacementPolicy(rack_of, seed=1)
    for writer in rack_of:
        replicas = policy.choose_replicas(writer, list(rack_of), 3)
        assert len(replicas) == 3
        assert replicas[0] == writer
        writer_rack = rack_of[writer]
        assert rack_of[replicas[1]] != writer_rack
        assert rack_of[replicas[2]] == rack_of[replicas[1]]
        assert len(set(replicas)) == 3


def test_rack_aware_policy_handles_single_rack_fallback():
    rack_of = {f"w{i}": 0 for i in range(4)}
    policy = RackAwarePlacementPolicy(rack_of, seed=1)
    replicas = policy.choose_replicas("w0", list(rack_of), 3)
    assert len(replicas) == 3  # fills from the only rack available


def test_hdfs_on_multi_rack_cluster_uses_rack_policy():
    env, cluster = rack_cluster(workers=6, racks=2)
    hdfs = HdfsClient(cluster, replication=3, seed=0)
    process = env.process(hdfs.write("/f", 128.0, "worker-0"))
    env.run(until=process)
    block = hdfs.namenode.lookup("/f").blocks[0]
    racks = [cluster.node(r).rack for r in block.replicas]
    assert racks[0] == 0  # writer rack
    assert racks[1] == racks[2] == 1  # both remote replicas on rack 1


def test_workflow_runs_end_to_end_on_multi_rack_cluster():
    env, cluster = rack_cluster(workers=6, racks=3)
    hiway = HiWay(cluster)
    hiway.install_everywhere("sort", "cat")
    hiway.stage_inputs({f"/in/{i}": 32.0 for i in range(6)})
    graph = WorkflowGraph("racked")
    mids = []
    for i in range(6):
        mid = f"/mid/{i}"
        mids.append(mid)
        graph.add_task(TaskSpec(tool="sort", inputs=[f"/in/{i}"], outputs=[mid]))
    graph.add_task(TaskSpec(tool="cat", inputs=mids, outputs=["/out/all"]))
    result = hiway.run(StaticTaskSource(graph), scheduler="data-aware")
    assert result.success, result.diagnostics
    assert result.tasks_completed == 7
