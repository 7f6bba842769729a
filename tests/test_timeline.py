"""Tests for the provenance timeline renderer."""

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay, render_timeline
from repro.core.provenance import TraceFileStore
from repro.core.provenance.events import TaskEvent
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph


def test_empty_store_renders_placeholder():
    assert "no task events" in render_timeline(TraceFileStore())


def test_timeline_shows_tasks_and_scale():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    hiway = HiWay(cluster)
    hiway.install_everywhere("sort", "grep")
    hiway.stage_inputs({"/in/a": 32.0})
    graph = WorkflowGraph("tl")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/m"],
                            task_id="s"))
    graph.add_task(TaskSpec(tool="grep", inputs=["/m"], outputs=["/o"],
                            task_id="g"))
    result = hiway.run(StaticTaskSource(graph))
    text = render_timeline(hiway.provenance.store, workflow_id=result.workflow_id)
    lines = text.splitlines()
    assert "task attempt(s)" in lines[0]
    assert len(lines) == 3  # header + two tasks
    assert any(line.startswith("sort@") for line in lines[1:])
    assert any(line.startswith("grep@") for line in lines[1:])
    assert all("#" in line for line in lines[1:])


def test_timeline_marks_failures():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    hiway = HiWay(cluster)
    hiway.install_everywhere("grep")
    hiway.cluster.node("worker-1").install("sort")
    hiway.stage_inputs({"/in/a": 8.0})
    graph = WorkflowGraph("tl2")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/o"]))
    result = hiway.run(StaticTaskSource(graph), scheduler="fcfs")
    assert result.success
    text = render_timeline(hiway.provenance.store, workflow_id=result.workflow_id)
    if result.task_failures:
        assert "x" in text


def _task_event(task_id, signature, node_id, end, makespan, success):
    return TaskEvent(
        workflow_id="workflow-000001", task_id=task_id, signature=signature,
        tool=signature, command="cmd", node_id=node_id, timestamp=end,
        makespan_seconds=makespan, success=success,
    )


def test_skipped_failures_do_not_widen_labels_or_span():
    store = TraceFileStore()
    store.append(_task_event("ok", "sort", "worker-0", 10.0, 10.0, True))
    store.append(_task_event(
        "bad", "very-long-signature-name", "worker-extremely-long-id",
        400.0, 1.0, False,
    ))
    text = render_timeline(store, include_failures=False)
    lines = text.splitlines()
    assert len(lines) == 2  # header + the surviving row only
    # Labels align to the *rendered* rows, not the skipped failure...
    assert lines[1].startswith("sort@worker-0 |")
    # ...and the chart span covers only rendered rows (10s, not 400s).
    assert "1 task attempt(s), 10.0s span" in lines[0]


def test_all_rows_skipped_renders_placeholder():
    store = TraceFileStore()
    store.append(_task_event("bad", "sort", "worker-0", 5.0, 5.0, False))
    assert "no task events" in render_timeline(store, include_failures=False)
