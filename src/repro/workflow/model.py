"""The engine-facing workflow model.

Hi-WAY's execution model (Sec. 3.3) deals in *tasks* — black boxes with
input files, output files and a command — discovered either all at once
(static languages like DAX and Galaxy exports) or incrementally as
results arrive (Cuneiform). Two abstractions capture this:

* :class:`TaskSpec` — one task instance;
* :class:`TaskSource` — the driver-facing protocol: hand out initial
  tasks, react to completed tasks with newly discovered ones, say when
  the workflow is finished. :class:`StaticTaskSource` adapts a
  :class:`WorkflowGraph`; the Cuneiform interpreter implements the
  protocol dynamically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import WorkflowError

__all__ = ["TaskSpec", "WorkflowGraph", "TaskSource", "StaticTaskSource"]

_task_ids = itertools.count(1)


@dataclass
class TaskSpec:
    """One invocation of a black-box tool.

    ``signature`` identifies "tasks invoking the same tools" for the
    provenance-fed runtime estimates (Sec. 3.4); it defaults to the tool
    name. ``output_size_hints`` lets languages that know exact file sizes
    (DAX) override the tool profile's output model.
    """

    tool: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    signature: Optional[str] = None
    task_id: str = field(default_factory=lambda: f"task-{next(_task_ids):06d}")
    #: Free-form invocation description, recorded in provenance.
    command: str = ""
    #: Explicit output sizes in MB, keyed by output path.
    output_size_hints: dict[str, float] = field(default_factory=dict)
    #: Thread override; None defers to the tool profile.
    threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.signature is None:
            self.signature = self.tool
        if not self.command:
            self.command = f"{self.tool} {' '.join(self.inputs)}"
        duplicates = set(self.inputs) & set(self.outputs)
        if duplicates:
            raise WorkflowError(
                f"{self.task_id}: files both read and written: {sorted(duplicates)}"
            )

    def hinted_size(self, path: str) -> Optional[float]:
        """Explicit size for ``path`` if the language supplied one."""
        return self.output_size_hints.get(path)


class WorkflowGraph:
    """A static DAG of tasks connected by file dependencies."""

    def __init__(self, name: str = "workflow"):
        self.name = name
        self.tasks: dict[str, TaskSpec] = {}
        self._producers: dict[str, str] = {}

    def add_task(self, task: TaskSpec) -> TaskSpec:
        """Add a task; each file may have at most one producer."""
        if task.task_id in self.tasks:
            raise WorkflowError(f"duplicate task id {task.task_id!r}")
        for path in task.outputs:
            if path in self._producers:
                raise WorkflowError(
                    f"file {path!r} produced by both "
                    f"{self._producers[path]!r} and {task.task_id!r}"
                )
        self.tasks[task.task_id] = task
        for path in task.outputs:
            self._producers[path] = task.task_id
        return task

    def input_files(self) -> list[str]:
        """Files consumed but never produced: the workflow's inputs."""
        consumed = {p for task in self.tasks.values() for p in task.inputs}
        return sorted(consumed - set(self._producers))

    def output_files(self) -> list[str]:
        """Files produced but never consumed: the workflow's results."""
        consumed = {p for task in self.tasks.values() for p in task.inputs}
        return sorted(set(self._producers) - consumed)

    def dependencies_of(self, task: TaskSpec) -> set[str]:
        """Ids of tasks producing this task's inputs."""
        deps = set()
        for path in task.inputs:
            producer = self._producers.get(path)
            if producer is not None:
                deps.add(producer)
        return deps

    def topological_order(self) -> list[TaskSpec]:
        """Tasks in a dependency-respecting order; raises on cycles."""
        in_degree = {
            task_id: len(self.dependencies_of(task))
            for task_id, task in self.tasks.items()
        }
        dependents: dict[str, list[str]] = {task_id: [] for task_id in self.tasks}
        for task_id, task in self.tasks.items():
            for dep in self.dependencies_of(task):
                dependents[dep].append(task_id)
        ready = sorted(t for t, degree in in_degree.items() if degree == 0)
        order: list[TaskSpec] = []
        while ready:
            task_id = ready.pop(0)
            order.append(self.tasks[task_id])
            for dependent in dependents[task_id]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self.tasks):
            raise WorkflowError(f"workflow {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check the graph is executable (acyclic, inputs well-formed)."""
        self.topological_order()

    def critical_path_length(self, runtime=lambda task: 1.0) -> float:
        """Length of the longest chain under the given runtime model."""
        longest: dict[str, float] = {}
        for task in self.topological_order():
            deps = self.dependencies_of(task)
            start = max((longest[d] for d in deps), default=0.0)
            longest[task.task_id] = start + runtime(task)
        return max(longest.values(), default=0.0)

    def to_dot(self) -> str:
        """Graphviz rendering of the DAG (tasks as boxes, files as edges).

        Handy for eyeballing generated workflows::

            python -c "..." | dot -Tpng > workflow.png
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;",
                 "  node [shape=box, fontsize=10];"]
        for task in self.tasks.values():
            lines.append(
                f'  "{task.task_id}" [label="{task.tool}\\n{task.task_id}"];'
            )
        for task in self.tasks.values():
            for path in task.inputs:
                producer = self._producers.get(path)
                if producer is not None:
                    lines.append(
                        f'  "{producer}" -> "{task.task_id}" '
                        f'[label="{path}", fontsize=8];'
                    )
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.tasks)


class TaskSource:
    """Driver-facing protocol for task discovery (Sec. 3.3).

    The Workflow Driver calls :meth:`initial_tasks` once, then
    :meth:`on_task_completed` after every task; both return newly
    discovered tasks. A source is exhausted when :meth:`is_done` reports
    True *and* no emitted task is still outstanding.
    """

    name = "workflow"

    def initial_tasks(self) -> list[TaskSpec]:  # pragma: no cover - interface
        raise NotImplementedError

    def on_task_completed(
        self, task: TaskSpec, output_sizes: dict[str, float]
    ) -> list[TaskSpec]:
        """React to a completed task; static workflows discover nothing new."""
        return []

    def is_done(self) -> bool:
        """Whether no further tasks will ever be discovered."""
        return True

    def input_files(self) -> list[str]:
        """Pre-existing files the workflow expects in storage."""
        return []

    def target_files(self) -> list[str]:
        """Files that constitute the workflow's final results."""
        return []


class StaticTaskSource(TaskSource):
    """Adapts a fully known :class:`WorkflowGraph` to the driver protocol."""

    def __init__(self, graph: WorkflowGraph):
        graph.validate()
        self.graph = graph
        self.name = graph.name

    def initial_tasks(self) -> list[TaskSpec]:
        return list(self.graph.topological_order())

    def input_files(self) -> list[str]:
        return self.graph.input_files()

    def target_files(self) -> list[str]:
        return self.graph.output_files()


def linear_chain(
    name: str, tools: Iterable[str], first_input: str = "/in/data"
) -> WorkflowGraph:
    """Convenience builder: a chain of tasks, each feeding the next.

    Useful in tests and docs; not part of the paper's surface.
    """
    graph = WorkflowGraph(name)
    current = first_input
    for index, tool in enumerate(tools):
        output = f"/{name}/stage-{index}.out"
        graph.add_task(TaskSpec(tool=tool, inputs=[current], outputs=[output]))
        current = output
    return graph
