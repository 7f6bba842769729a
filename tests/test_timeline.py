"""Tests for the text timeline, a fold over task-attempt events."""

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay
from repro.obs import TIMELINE_EVENTS, render_timeline
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph


def _recording_installation(worker_count=2):
    """A HiWay on a fresh cluster plus the timeline events it records."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE,
                                       worker_count=worker_count))
    hiway = HiWay(cluster)
    events = []
    hiway.bus.subscribe(dict.fromkeys(TIMELINE_EVENTS, events.append))
    return hiway, events


def test_empty_store_renders_placeholder():
    assert "no task events" in render_timeline([])


def test_timeline_shows_tasks_and_scale():
    hiway, events = _recording_installation()
    hiway.install_everywhere("sort", "grep")
    hiway.stage_inputs({"/in/a": 32.0})
    graph = WorkflowGraph("tl")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/m"],
                            task_id="s"))
    graph.add_task(TaskSpec(tool="grep", inputs=["/m"], outputs=["/o"],
                            task_id="g"))
    result = hiway.run(StaticTaskSource(graph))
    text = render_timeline(events, workflow_id=result.workflow_id)
    lines = text.splitlines()
    assert "task attempt(s)" in lines[0]
    assert len(lines) == 3  # header + two tasks
    assert any(line.startswith("sort@") for line in lines[1:])
    assert any(line.startswith("grep@") for line in lines[1:])
    assert all("#" in line for line in lines[1:])
    assert render_timeline(events, workflow_id="workflow-other") \
        == "(no task events recorded)"


def test_timeline_marks_failures():
    hiway, events = _recording_installation()
    hiway.install_everywhere("grep")
    hiway.cluster.node("worker-1").install("sort")
    hiway.stage_inputs({"/in/a": 8.0})
    graph = WorkflowGraph("tl2")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/o"]))
    result = hiway.run(StaticTaskSource(graph), scheduler="fcfs")
    assert result.success
    text = render_timeline(events, workflow_id=result.workflow_id)
    if result.task_failures:
        assert "x" in text
