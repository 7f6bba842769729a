"""Unit tests for the simulated HDFS."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.errors import FileNotFoundInHdfs, HdfsError
from repro.hdfs import HdfsClient, NameNode
from repro.hdfs.blocks import split_into_block_sizes
from repro.sim import Environment


def make_hdfs(workers=4, replication=3, **cluster_kwargs):
    env = Environment()
    spec = ClusterSpec(worker_spec=M3_LARGE, worker_count=workers, **cluster_kwargs)
    cluster = Cluster(env, spec)
    return env, cluster, HdfsClient(cluster, replication=replication, seed=7)


def run_proc(env, generator):
    process = env.process(generator)
    env.run(until=process)
    return process.value


def test_block_splitting():
    assert split_into_block_sizes(300.0, 128.0) == [128.0, 128.0, 44.0]
    assert split_into_block_sizes(128.0, 128.0) == [128.0]
    assert split_into_block_sizes(0.0, 128.0) == [0.0]


def test_write_creates_replicated_blocks():
    env, cluster, hdfs = make_hdfs(replication=3)
    run_proc(env, hdfs.write("/data/a.fastq", 300.0, "worker-0"))
    entry = hdfs.namenode.lookup("/data/a.fastq")
    assert len(entry.blocks) == 3
    for block in entry.blocks:
        assert len(block.replicas) == 3
        assert "worker-0" in block.replicas  # writer-local first replica


def test_replication_capped_by_cluster_size():
    env, cluster, hdfs = make_hdfs(workers=2, replication=3)
    run_proc(env, hdfs.write("/f", 10.0, "worker-0"))
    entry = hdfs.namenode.lookup("/f")
    assert len(entry.blocks[0].replicas) == 2


def test_duplicate_create_rejected():
    env, cluster, hdfs = make_hdfs()
    run_proc(env, hdfs.write("/f", 1.0, "worker-0"))
    with pytest.raises(HdfsError):
        run_proc(env, hdfs.write("/f", 1.0, "worker-1"))


def test_read_missing_file_raises():
    env, cluster, hdfs = make_hdfs()
    with pytest.raises(FileNotFoundInHdfs):
        run_proc(env, hdfs.read("/nope", "worker-0"))


def test_local_read_touches_only_disk():
    env, cluster, hdfs = make_hdfs(workers=4)
    run_proc(env, hdfs.write("/f", 100.0, "worker-1"))
    start = env.now
    report = run_proc(env, hdfs.read("/f", "worker-1"))
    assert report.local_mb == pytest.approx(100.0)
    assert report.remote_mb == 0.0
    assert report.local_fraction == 1.0
    # 100 MB at 150 MB/s disk.
    assert report.seconds == pytest.approx(100.0 / 150.0)
    assert env.now - start == pytest.approx(report.seconds)


def test_remote_read_crosses_network():
    env, cluster, hdfs = make_hdfs(workers=4, replication=1)
    run_proc(env, hdfs.write("/f", 100.0, "worker-0"))
    report = run_proc(env, hdfs.read("/f", "worker-3"))
    assert report.local_mb == 0.0
    assert report.remote_mb == pytest.approx(100.0)
    # Link bandwidth 125 MB/s is the bottleneck (disk 150, backbone 10000).
    assert report.seconds == pytest.approx(100.0 / 125.0)


def test_local_fraction_reflects_placement():
    env, cluster, hdfs = make_hdfs(workers=8, replication=2)
    run_proc(env, hdfs.write("/f", 256.0, "worker-2"))
    assert hdfs.local_fraction(["/f"], "worker-2") == pytest.approx(1.0)
    fractions = [
        hdfs.local_fraction(["/f"], node) for node in cluster.worker_ids
    ]
    assert max(fractions) == pytest.approx(1.0)
    # Replication 2 means exactly one other node holds each block.
    assert sum(f > 0 for f in fractions) >= 2


def test_external_s3_files():
    env, cluster, hdfs = make_hdfs()
    hdfs.register_external("s3://bucket/reads.fastq", 1000.0)
    assert hdfs.exists("s3://bucket/reads.fastq")
    assert hdfs.size_of("s3://bucket/reads.fastq") == 1000.0
    assert hdfs.local_fraction(["s3://bucket/reads.fastq"], "worker-0") == 0.0
    report = run_proc(env, hdfs.read("s3://bucket/reads.fastq", "worker-0"))
    assert report.remote_mb == 1000.0
    with pytest.raises(HdfsError):
        hdfs.register_external("/not/external", 1.0)


def test_external_missing_file():
    env, cluster, hdfs = make_hdfs()
    with pytest.raises(FileNotFoundInHdfs):
        hdfs.size_of("s3://bucket/none")


def test_datanode_removal_keeps_files_readable():
    env, cluster, hdfs = make_hdfs(workers=4, replication=2)
    run_proc(env, hdfs.write("/f", 64.0, "worker-0"))
    hdfs.namenode.remove_datanode("worker-0")
    entry = hdfs.namenode.lookup("/f")
    assert all("worker-0" not in block.replicas for block in entry.blocks)
    report = run_proc(env, hdfs.read("/f", "worker-3"))
    assert report.size_mb == 64.0


def test_lost_all_replicas_raises():
    env, cluster, hdfs = make_hdfs(workers=3, replication=1)
    run_proc(env, hdfs.write("/f", 64.0, "worker-0"))
    hdfs.namenode.remove_datanode("worker-0")
    with pytest.raises(HdfsError):
        run_proc(env, hdfs.read("/f", "worker-1"))


def test_delete_removes_namespace_entry():
    env, cluster, hdfs = make_hdfs()
    run_proc(env, hdfs.write("/f", 1.0, "worker-0"))
    hdfs.delete("/f")
    assert not hdfs.exists("/f")
    with pytest.raises(FileNotFoundInHdfs):
        hdfs.namenode.delete("/f")


def test_namenode_charges_metadata_ops():
    env, cluster, hdfs = make_hdfs()
    before = hdfs.namenode.ops
    run_proc(env, hdfs.write("/f", 1.0, "worker-0"))
    run_proc(env, hdfs.read("/f", "worker-1"))
    assert hdfs.namenode.ops >= before + 2


def test_invalid_namenode_config():
    with pytest.raises(HdfsError):
        NameNode(datanodes=["a"], replication=0)


def test_write_size_validation():
    env, cluster, hdfs = make_hdfs()
    with pytest.raises(HdfsError):
        run_proc(env, hdfs.write("/neg", -1.0, "worker-0"))


# -- inverted locality index -------------------------------------------------


def brute_force_local_mb(namenode, path, node_id):
    """Reference implementation: scan every block's replica list."""
    entry = namenode.lookup(path)
    return sum(block.size_mb for block in entry.blocks if node_id in block.replicas)


def test_locality_index_matches_block_scan():
    env, cluster, hdfs = make_hdfs(workers=5, replication=2)
    for i in range(8):
        run_proc(env, hdfs.write(f"/d/{i}", 100.0 + 64.0 * i, f"worker-{i % 5}"))
    namenode = hdfs.namenode
    for i in range(8):
        for w in range(5):
            path, node = f"/d/{i}", f"worker-{w}"
            assert namenode.local_bytes(path, node) == pytest.approx(
                brute_force_local_mb(namenode, path, node)
            )


def test_locality_index_updates_on_delete():
    env, cluster, hdfs = make_hdfs(workers=4, replication=2)
    run_proc(env, hdfs.write("/keep", 100.0, "worker-0"))
    run_proc(env, hdfs.write("/drop", 100.0, "worker-0"))
    namenode = hdfs.namenode
    assert namenode.local_fraction(["/keep", "/drop"], "worker-0") == pytest.approx(1.0)
    hdfs.delete("/drop")
    with pytest.raises(FileNotFoundInHdfs):
        namenode.local_bytes("/drop", "worker-0")
    # The surviving file's index entry is untouched.
    assert namenode.local_bytes("/keep", "worker-0") == pytest.approx(100.0)
    assert namenode.local_fraction(["/keep"], "worker-0") == pytest.approx(1.0)


def test_locality_index_updates_on_datanode_removal():
    env, cluster, hdfs = make_hdfs(workers=4, replication=2)
    run_proc(env, hdfs.write("/f", 200.0, "worker-1"))
    namenode = hdfs.namenode
    assert namenode.local_bytes("/f", "worker-1") == pytest.approx(200.0)
    namenode.remove_datanode("worker-1")
    # The crashed node no longer holds anything; survivors still agree
    # with a block scan.
    assert namenode.local_fraction(["/f"], "worker-1") == 0.0
    for w in (0, 2, 3):
        node = f"worker-{w}"
        assert namenode.local_bytes("/f", node) == pytest.approx(
            brute_force_local_mb(namenode, "/f", node)
        )


def test_batch_local_fractions_match_serial_queries():
    env, cluster, hdfs = make_hdfs(workers=4, replication=2)
    for i in range(6):
        run_proc(env, hdfs.write(f"/in/{i}", 50.0 * (i + 1), f"worker-{i % 4}"))
    hdfs.register_external("s3://bucket/sample", 120.0)
    input_lists = [
        ["/in/0", "/in/1"],
        ["/in/2", "/in/3", "/in/4"],
        ["/in/5", "s3://bucket/sample"],
        [],
    ]
    batched = hdfs.local_fractions(input_lists, "worker-2")
    serial = [hdfs.local_fraction(paths, "worker-2") for paths in input_lists]
    assert batched == pytest.approx(serial)


def test_batch_local_fractions_are_not_billed_as_rpcs():
    env, cluster, hdfs = make_hdfs(workers=4)
    run_proc(env, hdfs.write("/f", 10.0, "worker-0"))
    before = hdfs.namenode.ops
    hdfs.local_fractions([["/f"]] * 32, "worker-1")
    assert hdfs.namenode.ops == before


def test_batch_local_fractions_missing_path_raises():
    env, cluster, hdfs = make_hdfs(workers=4)
    run_proc(env, hdfs.write("/f", 10.0, "worker-0"))
    with pytest.raises(FileNotFoundInHdfs):
        hdfs.namenode.batch_local_fractions([["/f"], ["/ghost"]], "worker-0")
