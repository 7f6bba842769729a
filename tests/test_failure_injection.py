"""Fault-tolerance tests driven by the failure injector (Sec. 3.1)."""

import io

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.cluster.failures import FailureInjector, FailurePlan
from repro.core import HiWay, HiWayConfig
from repro.hdfs import HdfsClient
from repro.obs.events import TaskAttemptFinished
from repro.obs.journal import EventJournal, load_registry
from repro.obs.tracer import TRACE_EVENTS, trace_records
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


def _staging_run(crash_at=None):
    """One task reading a small and a large input, journalled; with
    ``crash_at = (seconds after the attempt starts, node)`` that node
    crashes while the attempt stages in. Returns (hiway, attempts,
    recorded trace events, journal text)."""
    hiway, injector = build(workers=4)
    buffer = io.StringIO()
    journal = EventJournal(buffer)
    recorded = []
    hiway.bus.subscribe(journal.handlers())
    hiway.bus.subscribe(dict.fromkeys(TRACE_EVENTS, recorded.append))
    hiway.stage_inputs({"/in/small": 8.0, "/in/large": 2048.0})
    graph = WorkflowGraph("staging")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/small", "/in/large"],
                            outputs=["/out/sorted"], task_id="stage"))
    if crash_at is not None:
        delay, node_id = crash_at
        injector.arm(FailurePlan(crashes=((hiway.env.now + delay, node_id),)))
    result = hiway.run(StaticTaskSource(graph), scheduler="fcfs")
    assert result.success, result.diagnostics
    journal.close()
    attempts = [e for e in recorded if isinstance(e, TaskAttemptFinished)]
    return hiway, attempts, recorded, buffer.getvalue()


def test_attempt_failed_during_stage_in_reports_its_finished_reads():
    # A dry run finds the node and the instants the two reads end at.
    _hiway, (dry,), _recorded, _text = _staging_run()
    reads = {r.path: r.seconds for r in dry.transfers if r.direction == "in"}
    assert reads["/in/small"] < reads["/in/large"]
    delay = (reads["/in/small"] + reads["/in/large"]) / 2
    started = dry.t - dry.makespan_seconds

    hiway, attempts, recorded, text = _staging_run((delay, dry.node_id))
    failed, retried = attempts
    assert not failed.success and retried.success
    assert [(r.path, r.direction) for r in failed.transfers] == [
        ("/in/small", "in")]
    assert failed.makespan_seconds == pytest.approx(delay)

    # Every staged-in byte is counted once, from the attempts' transfers.
    registry = hiway.registry
    stage_in = [r for e in attempts for r in e.transfers if r.direction == "in"]
    assert sum(
        registry.value("hiway_hdfs_read_mb_total", locality=locality)
        for locality in ("local", "remote", "external")
    ) == sum(r.local_mb + r.remote_mb for r in stage_in) == 2 * 8.0 + 2048.0
    assert registry.get("hiway_hdfs_stage_seconds").labels(
        direction="in").count == len(stage_in) == 3
    assert load_registry(io.StringIO(text)).to_json() == registry.to_json()

    # The trace draws the finished read from the failed attempt's start.
    spans = [r for r in trace_records(recorded, hiway.env.now)
             if r["ph"] == "X" and r["name"] == "read:/in/small"]
    assert sorted(r["ts"] for r in spans)[0] == round(started * 1e6, 3)
