"""Tests for the HiWay client facade and the installation wiring."""

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay, HiWayConfig
from repro.core.provenance import SqlProvenanceStore
from repro.hdfs import HdfsClient
from repro.langs import parse_workflow
from repro.sim import Environment
from repro.tools import ToolProfile, ToolRegistry
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph
from repro.yarn import ResourceManager


def test_facade_defaults_wire_everything():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    hiway = HiWay(cluster)
    assert hiway.hdfs is not None
    assert hiway.rm is not None
    assert "sort" in hiway.tools  # default registry loaded
    assert hiway.provenance is not None


def test_facade_accepts_custom_components():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    hdfs = HdfsClient(cluster, replication=2, seed=5)
    rm = ResourceManager(env, cluster, max_containers_per_node=1)
    tools = ToolRegistry()
    tools.register(ToolProfile(name="mytool", work_per_mb=0.1))
    store = SqlProvenanceStore()
    hiway = HiWay(cluster, hdfs=hdfs, rm=rm, tools=tools, provenance_store=store)
    assert hiway.hdfs is hdfs
    assert hiway.rm is rm
    assert hiway.provenance.store is store
    hiway.install_everywhere("mytool")
    hiway.stage_inputs({"/in/a": 8.0})
    graph = WorkflowGraph("custom")
    graph.add_task(TaskSpec(tool="mytool", inputs=["/in/a"], outputs=["/out/b"]))
    result = hiway.run(StaticTaskSource(graph), scheduler="fcfs")
    assert result.success, result.diagnostics
    [record] = store.records(kind="task")
    assert store.latest_task_runtime("mytool", record["node_id"]) == (
        record["makespan_seconds"]
    )


def test_per_submission_config_override():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    hiway = HiWay(cluster, config=HiWayConfig(container_memory_mb=512.0,
                                              max_retries=0))
    hiway.install_everywhere("bowtie2")
    hiway.stage_inputs({"/in/reads": 16.0})
    graph = WorkflowGraph("align")
    graph.add_task(TaskSpec(tool="bowtie2", inputs=["/in/reads"],
                            outputs=["/out/bam"]))
    # Default config OOMs; a per-submission override fixes it.
    failed = hiway.run(StaticTaskSource(graph))
    assert not failed.success
    graph2 = WorkflowGraph("align2")
    graph2.add_task(TaskSpec(tool="bowtie2", inputs=["/in/reads"],
                             outputs=["/out/bam2"]))
    fixed = hiway.run(
        StaticTaskSource(graph2),
        config=HiWayConfig(container_memory_mb=2048.0),
    )
    assert fixed.success, fixed.diagnostics


def test_stage_inputs_registers_external_files():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    hiway = HiWay(cluster)
    hiway.stage_inputs({
        "/in/local": 8.0,
        "s3://bucket/remote": 32.0,
    })
    assert hiway.hdfs.exists("/in/local")
    assert hiway.hdfs.exists("s3://bucket/remote")
    assert hiway.hdfs.size_of("s3://bucket/remote") == 32.0


def test_run_with_parse_workflow_integration():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    hiway = HiWay(cluster)
    hiway.install_everywhere("sort", "grep")
    hiway.stage_inputs({"/in/log": 32.0})
    source = parse_workflow("""
    deftask scan( hits : log )in bash *{ tool: grep }*
    scan( log: '/in/log' );
    """)
    result = hiway.run(source)
    assert result.success, result.diagnostics
    assert result.scheduler == "data-aware"  # installation default
