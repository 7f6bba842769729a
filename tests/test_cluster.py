"""Unit tests for the cluster hardware layer."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    M3_LARGE,
    StressProfile,
    XEON_E5_2620,
    apply_stress,
    paper_fig9_stress,
)
from repro.sim import Environment


def small_cluster(workers=3, **kwargs):
    env = Environment()
    spec = ClusterSpec(worker_spec=M3_LARGE, worker_count=workers, **kwargs)
    return env, Cluster(env, spec)


def test_cluster_builds_expected_nodes():
    env, cluster = small_cluster(workers=4)
    assert cluster.worker_ids == ["worker-0", "worker-1", "worker-2", "worker-3"]
    assert [m.node_id for m in cluster.masters] == ["master-0"]
    assert cluster.node("worker-2").spec.name == "m3.large"
    assert cluster.node("worker-0").role == "worker"


def test_unknown_node_rejected():
    env, cluster = small_cluster()
    with pytest.raises(Exception):
        cluster.node("worker-99")


def test_compute_respects_speed_factor():
    env = Environment()
    spec = ClusterSpec(
        worker_spec=M3_LARGE, worker_count=2, worker_speeds=(1.0, 2.0)
    )
    cluster = Cluster(env, spec)
    slow = cluster.node("worker-0").compute(work=10.0, threads=1)
    fast = cluster.node("worker-1").compute(work=10.0, threads=1)
    env.run(until=fast)
    assert env.now == pytest.approx(5.0)
    env.run(until=slow)
    assert env.now == pytest.approx(10.0)


def test_multithreaded_compute_uses_all_cores():
    env, cluster = small_cluster()
    node = cluster.node("worker-0")  # m3.large: 2 cores, speed 1.0
    done = node.compute(work=10.0, threads=4)
    env.run(until=done)
    # Only 2 cores exist, so rate is 2 despite threads=4.
    assert env.now == pytest.approx(5.0)


def test_remote_transfer_crosses_backbone():
    env = Environment()
    spec = ClusterSpec(
        worker_spec=XEON_E5_2620, worker_count=4, backbone_mb_s=125.0
    )
    cluster = Cluster(env, spec)
    # Two simultaneous node-to-node transfers share the 125 MB/s switch.
    t1 = cluster.transfer("worker-0", "worker-1", 125.0)
    t2 = cluster.transfer("worker-2", "worker-3", 125.0)
    env.run(until=env.all_of([t1, t2]))
    assert env.now == pytest.approx(2.0)


def test_local_transfer_skips_network():
    env, cluster = small_cluster()
    done = cluster.transfer("worker-0", "worker-0", 150.0)
    env.run(until=done)
    # m3.large disk: 150 MB/s.
    assert env.now == pytest.approx(1.0)


def test_s3_download_bypasses_backbone():
    env = Environment()
    spec = ClusterSpec(
        worker_spec=M3_LARGE, worker_count=2, backbone_mb_s=1.0, s3_mb_s=10_000.0
    )
    cluster = Cluster(env, spec)
    done = cluster.s3_download("worker-0", 125.0)
    env.run(until=done)
    # Link-bound at 125 MB/s despite the 1 MB/s backbone.
    assert env.now == pytest.approx(1.0)


def test_ebs_io_contends_on_shared_volume():
    env = Environment()
    spec = ClusterSpec(worker_spec=M3_LARGE, worker_count=2, ebs_mb_s=100.0)
    cluster = Cluster(env, spec)
    a = cluster.ebs_io("worker-0", 100.0)
    b = cluster.ebs_io("worker-1", 100.0)
    env.run(until=env.all_of([a, b]))
    # 100 MB each through a 100 MB/s volume shared two ways.
    assert env.now == pytest.approx(2.0)


def test_run_cost_matches_paper_formula():
    env, cluster = small_cluster(workers=1, master_count=2)
    # 3 m3.large VMs for 340.12 minutes at $0.146/h: Table 2's $2.48.
    cost = cluster.run_cost(340.12 * 60)
    assert cost == pytest.approx(2.48, abs=0.01)


def test_stress_cpu_halves_available_compute():
    env, cluster = small_cluster(workers=2)
    profile = StressProfile(cpu_hogs={"worker-0": 1})
    apply_stress(cluster, profile)
    stressed = cluster.node("worker-0").compute(work=10.0, threads=2)
    env.run(until=stressed)
    # One of two cores pinned: effective rate 1 instead of 2.
    assert env.now == pytest.approx(10.0)


def test_stress_many_hogs_starve_task():
    env, cluster = small_cluster(workers=1)
    apply_stress(cluster, StressProfile(cpu_hogs={"worker-0": 6}))
    done = cluster.node("worker-0").compute(work=7.0, threads=1)
    env.run(until=done)
    # 7 claimants on 2 cores -> 2/7 core each: 7 / (2/7) = 24.5s.
    assert env.now == pytest.approx(24.5)


def test_io_stress_slows_disk():
    env, cluster = small_cluster(workers=1)
    apply_stress(cluster, StressProfile(io_writers={"worker-0": 3}))
    done = cluster.node("worker-0").disk_io(150.0)
    env.run(until=done)
    # 4 claimants share 150 MB/s -> 37.5 each: 150/37.5 = 4s.
    assert env.now == pytest.approx(4.0)


def test_fig9_stress_profile_shape():
    ids = [f"worker-{i}" for i in range(11)]
    profile = paper_fig9_stress(ids)
    assert "worker-0" not in profile.cpu_hogs
    assert "worker-0" not in profile.io_writers
    assert profile.cpu_hogs["worker-1"] == 1
    assert profile.cpu_hogs["worker-5"] == 256
    assert profile.io_writers["worker-6"] == 1
    assert profile.io_writers["worker-10"] == 256
    with pytest.raises(ValueError):
        paper_fig9_stress(ids[:5])


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(worker_spec=M3_LARGE, worker_count=0)
    with pytest.raises(ValueError):
        ClusterSpec(worker_spec=M3_LARGE, worker_count=2, worker_speeds=(1.0,))


