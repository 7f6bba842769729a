"""Provenance event records (Sec. 3.5).

The Provenance Manager registers events at three granularities —
workflow, task, and file — each timestamped and carrying a unique id,
serialised as JSON objects. The records double as the lingua franca of
the re-executable trace language (``repro.langs.tracelang``).

``to_dict`` runs once per recorded event, so it copies the fields (in
declaration order, as ``dataclasses.asdict`` would) and only the mutable
containers, rather than deep-copying recursively like ``asdict``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "WORKFLOW_EVENT",
    "TASK_EVENT",
    "FILE_EVENT",
    "WorkflowEvent",
    "TaskEvent",
    "FileEvent",
    "event_from_dict",
]

WORKFLOW_EVENT = "workflow"
TASK_EVENT = "task"
FILE_EVENT = "file"

#: Process-global fallback counter, used only when an event is built
#: without an explicit ``event_id`` (e.g. directly in tests). The
#: :class:`~repro.core.provenance.manager.ProvenanceManager` passes ids
#: from its own per-instance counter so that two runs in one process
#: produce identical, re-executable traces.
_event_ids = itertools.count(1)


def _next_event_id() -> str:
    return f"event-{next(_event_ids):08d}"


@dataclass
class WorkflowEvent:
    """Start/end record for one workflow execution."""

    workflow_id: str
    workflow_name: str
    timestamp: float
    phase: str  # "start" or "end"
    runtime_seconds: Optional[float] = None
    success: bool = True
    kind: str = WORKFLOW_EVENT
    event_id: str = field(default_factory=_next_event_id)

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class TaskEvent:
    """Completion (or failure) record for one task attempt."""

    workflow_id: str
    task_id: str
    signature: str
    tool: str
    command: str
    node_id: str
    timestamp: float
    makespan_seconds: float
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    output_sizes: dict[str, float] = field(default_factory=dict)
    success: bool = True
    attempt: int = 1
    stdout: str = ""
    stderr: str = ""
    kind: str = TASK_EVENT
    event_id: str = field(default_factory=_next_event_id)

    def to_dict(self) -> dict:
        record = dict(vars(self))
        record["inputs"] = list(self.inputs)
        record["outputs"] = list(self.outputs)
        record["output_sizes"] = dict(self.output_sizes)
        return record


@dataclass
class FileEvent:
    """Stage-in / stage-out record for one file of one task."""

    workflow_id: str
    task_id: str
    path: str
    size_mb: float
    transfer_seconds: float
    direction: str  # "in" or "out"
    node_id: str
    timestamp: float
    local_fraction: float = 0.0
    kind: str = FILE_EVENT
    event_id: str = field(default_factory=_next_event_id)

    def to_dict(self) -> dict:
        return dict(vars(self))


_KIND_TO_CLASS = {
    WORKFLOW_EVENT: WorkflowEvent,
    TASK_EVENT: TaskEvent,
    FILE_EVENT: FileEvent,
}


def event_from_dict(record: dict):
    """Rehydrate an event object from its JSON dictionary."""
    kind = record.get("kind")
    cls = _KIND_TO_CLASS.get(kind)
    if cls is None:
        raise ValueError(f"unknown provenance event kind {kind!r}")
    return cls(**record)
