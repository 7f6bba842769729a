"""Tests for the non-static adaptive scheduler (Sec. 3.4 extension)."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE, StressProfile, apply_stress
from repro.core import AdaptiveQueueScheduler, HiWay, HiWayConfig
from repro.core.provenance import ProvenanceManager
from repro.core.schedulers import SchedulerContext, make_scheduler
from repro.errors import SchedulingError
from repro.obs.events import TaskAttemptFinished
from repro.langs import CuneiformSource
from repro.sim import Environment
from repro.workflow import TaskSpec
from repro.workloads import KMEANS_TOOLS, kmeans_cuneiform, kmeans_inputs

WORKERS = ["worker-0", "worker-1"]


def provenance_with(observations):
    manager = ProvenanceManager()
    record = manager.handlers()[TaskAttemptFinished]
    for signature, node, runtime, ts in observations:
        event = TaskAttemptFinished(
            workflow_id="w",
            task=TaskSpec(tool=signature, task_id=f"{signature}-{node}-{ts}"),
            node_id=node, makespan_seconds=runtime,
        )
        event.t = ts
        record(event)
    return manager


def test_registered_with_factory():
    assert make_scheduler("adaptive-queue").name == "adaptive-queue"
    assert make_scheduler("adaptive_queue").name == "adaptive-queue"


def test_requires_provenance():
    scheduler = AdaptiveQueueScheduler()
    scheduler.bind(SchedulerContext(worker_ids=list(WORKERS)))
    scheduler.enqueue(TaskSpec(tool="sort", outputs=["/o"]))
    with pytest.raises(SchedulingError):
        scheduler.select_task("worker-0")


def test_prefers_comparatively_fast_pairings():
    provenance = provenance_with([
        # "fast-here" runs well on worker-0, terribly on worker-1.
        ("fast-here", "worker-0", 10.0, 1.0),
        ("fast-here", "worker-1", 100.0, 1.0),
        # "slow-here" is the mirror image.
        ("slow-here", "worker-0", 100.0, 1.0),
        ("slow-here", "worker-1", 10.0, 1.0),
    ])
    scheduler = AdaptiveQueueScheduler()
    scheduler.bind(SchedulerContext(
        worker_ids=list(WORKERS), provenance=provenance,
    ))
    a = TaskSpec(tool="fast-here", outputs=["/a"], task_id="a")
    b = TaskSpec(tool="slow-here", outputs=["/b"], task_id="b")
    # Enqueue in the "wrong" order; suitability overrides FIFO.
    scheduler.enqueue(b)
    scheduler.enqueue(a)
    assert scheduler.select_task("worker-0").task_id == "a"
    assert scheduler.select_task("worker-1").task_id == "b"


def test_unobserved_pairs_attract_exploration():
    provenance = provenance_with([
        ("seen", "worker-0", 10.0, 1.0),
        ("seen", "worker-1", 10.0, 1.0),
    ])
    scheduler = AdaptiveQueueScheduler()
    scheduler.bind(SchedulerContext(
        worker_ids=list(WORKERS), provenance=provenance,
    ))
    seen = TaskSpec(tool="seen", outputs=["/s"], task_id="seen-task")
    novel = TaskSpec(tool="novel", outputs=["/n"], task_id="novel-task")
    scheduler.enqueue(seen)
    scheduler.enqueue(novel)
    # The never-observed signature wins despite arriving later.
    assert scheduler.select_task("worker-0").task_id == "novel-task"


def test_runs_iterative_workflows_unlike_heft():
    """The whole point of a non-static adaptive policy (Sec. 3.4)."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    hiway = HiWay(cluster)
    hiway.install_everywhere(*KMEANS_TOOLS)
    hiway.stage_inputs(kmeans_inputs(partitions=3))
    script = kmeans_cuneiform(partitions=3, iterations_until_convergence=2)
    result = hiway.run(CuneiformSource(script, name="kmeans"),
                       scheduler="adaptive-queue")
    assert result.success, result.diagnostics
    assert result.tasks_completed == 3 * 5  # 3 iterations x (3+1+1)


def test_learns_to_avoid_stressed_nodes_across_runs():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=4))
    # worker-3 is heavily CPU-stressed.
    apply_stress(cluster, StressProfile(cpu_hogs={"worker-3": 32}, weight=0.2))
    hiway = HiWay(cluster, max_containers_per_node=1, config=HiWayConfig(
        container_vcores=1, container_memory_mb=1024.0,
    ))
    hiway.install_everywhere("sort")
    inputs = {f"/in/chunk-{i}": 64.0 for i in range(8)}
    hiway.stage_inputs(inputs)

    def run_once(index):
        from repro.workflow import StaticTaskSource, WorkflowGraph

        graph = WorkflowGraph(f"batch-{index}")
        for i, path in enumerate(sorted(inputs)):
            graph.add_task(TaskSpec(
                tool="sort", inputs=[path], outputs=[f"/out/{index}-{i}"],
            ))
        result = hiway.run(StaticTaskSource(graph), scheduler="adaptive-queue")
        assert result.success, result.diagnostics
        return result

    first = run_once(0)
    runs = [run_once(i + 1) for i in range(3)]
    # After observing the stressed node, later runs place fewer tasks on
    # it and run no slower than the blind first run.
    last_nodes = [
        e["node_id"]
        for e in hiway.provenance.store.records(
            kind="task", workflow_id=runs[-1].workflow_id,
        )
    ]
    assert last_nodes.count("worker-3") <= 2
    assert runs[-1].runtime_seconds <= first.runtime_seconds * 1.05
