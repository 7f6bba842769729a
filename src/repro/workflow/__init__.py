"""Engine-facing workflow model: tasks, DAGs, task sources."""

from repro.workflow.model import (
    StaticTaskSource,
    TaskSource,
    TaskSpec,
    WorkflowGraph,
)

__all__ = [
    "TaskSpec",
    "WorkflowGraph",
    "TaskSource",
    "StaticTaskSource",
]
