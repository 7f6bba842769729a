"""Edge-case tests for the Hi-WAY application master."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay, HiWayConfig
from repro.errors import WorkflowError
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, TaskSource, WorkflowGraph


def make_hiway(workers=2, master_count=2, **kwargs):
    env = Environment()
    spec = ClusterSpec(
        worker_spec=M3_LARGE, worker_count=workers, master_count=master_count
    )
    cluster = Cluster(env, spec)
    return HiWay(cluster, **kwargs)


def test_source_task_with_no_inputs_runs():
    """Tasks without inputs (generators) are ready immediately."""
    hiway = make_hiway()
    hiway.install_everywhere("echo")
    graph = WorkflowGraph("gen")
    graph.add_task(TaskSpec(tool="echo", inputs=[], outputs=["/out/banner"]))
    result = hiway.run(StaticTaskSource(graph))
    assert result.success, result.diagnostics
    assert hiway.hdfs.exists("/out/banner")


def test_container_that_fits_no_node_fails_workflow():
    hiway = make_hiway(config=HiWayConfig(
        container_vcores=64,  # no m3.large has 64 cores
        container_memory_mb=1024.0,
    ))
    hiway.install_everywhere("sort")
    graph = WorkflowGraph("big")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/x"], outputs=["/out/y"]))
    hiway.stage_inputs({"/in/x": 4.0})
    result = hiway.run(StaticTaskSource(graph))
    assert not result.success
    assert any("fits no node" in d for d in result.diagnostics)


def test_am_node_configurable():
    hiway = make_hiway(master_count=2, config=HiWayConfig(am_node="master-0"))
    hiway.install_everywhere("sort")
    graph = WorkflowGraph("g")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/x"], outputs=["/out/y"]))
    hiway.stage_inputs({"/in/x": 64.0})
    result = hiway.run(StaticTaskSource(graph))
    assert result.success
    # AM heartbeat + scheduling work landed on master-0.
    assert hiway.cluster.metrics.integral("cpu:master-0") > 0


def test_stalled_source_fails_with_diagnostic():
    class StallingSource(TaskSource):
        """Claims more tasks will come, never delivers any."""

        name = "staller"

        def __init__(self):
            self._task = TaskSpec(tool="sort", inputs=["/in/x"],
                                  outputs=["/out/y"])

        def initial_tasks(self):
            return [self._task]

        def is_done(self):
            return False  # lies forever

        def input_files(self):
            return ["/in/x"]

    hiway = make_hiway()
    hiway.install_everywhere("sort")
    hiway.stage_inputs({"/in/x": 4.0})
    result = hiway.run(StallingSource())
    assert not result.success
    assert any("stalled" in d for d in result.diagnostics)


def test_unsatisfiable_dependency_detected():
    graph = WorkflowGraph("dangling")
    # /never/exists is produced by no task and not staged.
    graph.add_task(TaskSpec(tool="sort", inputs=["/never/exists"],
                            outputs=["/out/y"]))
    source = StaticTaskSource(graph)
    hiway = make_hiway()
    hiway.install_everywhere("sort")
    result = hiway.run(source)
    assert not result.success
    assert any("missing input" in d for d in result.diagnostics)


def test_duplicate_task_ids_from_source_rejected():
    class DuplicatingSource(TaskSource):
        name = "duper"

        def initial_tasks(self):
            task = TaskSpec(tool="sort", inputs=[], outputs=["/out/a"],
                            task_id="same")
            clone = TaskSpec(tool="sort", inputs=[], outputs=["/out/b"],
                             task_id="same")
            return [task, clone]

    hiway = make_hiway()
    hiway.install_everywhere("sort")
    with pytest.raises(WorkflowError, match="duplicate"):
        hiway.run(DuplicatingSource())


def test_many_workflows_queue_on_scarce_cluster():
    """Three AMs share two workers; YARN arbitrates, all finish."""
    hiway = make_hiway(workers=2)
    hiway.install_everywhere("sort")
    processes = []
    for index in range(3):
        graph = WorkflowGraph(f"wf-{index}")
        for part in range(4):
            graph.add_task(TaskSpec(
                tool="sort",
                inputs=[f"/in/{index}-{part}"],
                outputs=[f"/out/{index}-{part}"],
            ))
        hiway.stage_inputs({f"/in/{index}-{part}": 16.0 for part in range(4)})
        processes.append(hiway.submit(StaticTaskSource(graph), scheduler="fcfs"))
    hiway.env.run(until=hiway.env.all_of(processes))
    results = [process.value for process in processes]
    assert all(result.success for result in results)
    assert sum(result.tasks_completed for result in results) == 12


def test_workflow_ids_are_unique_across_runs():
    hiway = make_hiway()
    hiway.install_everywhere("sort")
    hiway.stage_inputs({"/in/x": 4.0})
    seen = set()
    for index in range(3):
        graph = WorkflowGraph(f"repeat-{index}")
        graph.add_task(TaskSpec(
            tool="sort", inputs=["/in/x"], outputs=[f"/out/{index}"],
        ))
        result = hiway.run(StaticTaskSource(graph))
        assert result.success
        assert result.workflow_id not in seen
        seen.add(result.workflow_id)


def test_result_reports_failure_counts():
    hiway = make_hiway(workers=3, config=HiWayConfig(max_retries=2))
    hiway.install_everywhere("grep")
    hiway.cluster.node("worker-2").install("sort")  # sort only here
    graph = WorkflowGraph("g")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/x"], outputs=["/out/y"]))
    hiway.stage_inputs({"/in/x": 4.0})
    result = hiway.run(StaticTaskSource(graph), scheduler="fcfs")
    assert result.success, result.diagnostics
    # Retried at most twice before reaching worker-2.
    assert 0 <= result.task_failures <= 2
    # Failed attempts are recorded in provenance with success=False.
    records = hiway.provenance.store.records(kind="task")
    assert sum(1 for r in records if not r["success"]) == result.task_failures
