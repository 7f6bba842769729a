"""Unit tests for the workflow model (tasks, DAGs, task sources)."""

import pytest

from repro.errors import WorkflowError
from repro.workflow import (
    StaticTaskSource,
    TaskSpec,
    WorkflowGraph,
)


def test_task_defaults():
    task = TaskSpec(tool="sort", inputs=["/a"], outputs=["/b"])
    assert task.signature == "sort"
    assert "/a" in task.command
    assert task.task_id.startswith("task-")
    assert task.hinted_size("/b") is None


def test_task_rejects_input_output_overlap():
    with pytest.raises(WorkflowError):
        TaskSpec(tool="sort", inputs=["/same"], outputs=["/same"])


def test_graph_single_producer_rule():
    graph = WorkflowGraph()
    graph.add_task(TaskSpec(tool="a", outputs=["/x"], task_id="t1"))
    with pytest.raises(WorkflowError, match="produced by both"):
        graph.add_task(TaskSpec(tool="b", outputs=["/x"], task_id="t2"))


def test_graph_duplicate_task_id_rejected():
    graph = WorkflowGraph()
    graph.add_task(TaskSpec(tool="a", outputs=["/x"], task_id="t1"))
    with pytest.raises(WorkflowError, match="duplicate"):
        graph.add_task(TaskSpec(tool="b", outputs=["/y"], task_id="t1"))


def test_graph_inputs_and_outputs():
    graph = WorkflowGraph("c")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/raw"],
                            outputs=["/c/stage-0.out"]))
    graph.add_task(TaskSpec(tool="grep", inputs=["/c/stage-0.out"],
                            outputs=["/c/stage-1.out"]))
    assert graph.input_files() == ["/in/raw"]
    assert graph.output_files() == ["/c/stage-1.out"]
    assert len(graph) == 2


def test_topological_order_and_cycles():
    graph = WorkflowGraph()
    graph.add_task(TaskSpec(tool="a", inputs=["/loop2"], outputs=["/loop1"],
                            task_id="t1"))
    graph.add_task(TaskSpec(tool="b", inputs=["/loop1"], outputs=["/loop2"],
                            task_id="t2"))
    with pytest.raises(WorkflowError, match="cycle"):
        graph.topological_order()


def test_topological_order_respects_dependencies():
    graph = WorkflowGraph()
    graph.add_task(TaskSpec(tool="late", inputs=["/m"], outputs=["/end"],
                            task_id="late"))
    graph.add_task(TaskSpec(tool="early", inputs=["/in"], outputs=["/m"],
                            task_id="early"))
    order = [task.task_id for task in graph.topological_order()]
    assert order == ["early", "late"]


def test_static_source_protocol():
    graph = WorkflowGraph("c")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/data"],
                            outputs=["/c/stage-0.out"]))
    source = StaticTaskSource(graph)
    tasks = source.initial_tasks()
    assert len(tasks) == 1
    assert source.is_done()
    assert source.on_task_completed(tasks[0], {}) == []
    assert source.input_files() == graph.input_files()
    assert source.target_files() == graph.output_files()


def test_static_source_validates_graph():
    graph = WorkflowGraph()
    graph.add_task(TaskSpec(tool="a", inputs=["/l2"], outputs=["/l1"], task_id="x"))
    graph.add_task(TaskSpec(tool="b", inputs=["/l1"], outputs=["/l2"], task_id="y"))
    with pytest.raises(WorkflowError):
        StaticTaskSource(graph)
