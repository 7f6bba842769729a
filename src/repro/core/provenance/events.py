"""The provenance record schema (Sec. 3.5).

The Provenance Manager registers records at three granularities —
workflow, task and file — each a JSON object with a timestamp and an id
unique within its trace. :data:`FIELDS` names every kind's fields: the
manager's handlers write exactly these, a trace line loads only if it
carries exactly its kind's fields, and the re-executable trace language
(``repro.langs.tracelang``) reads them back.
"""

from __future__ import annotations

import json
from typing import Iterable

__all__ = ["WORKFLOW_EVENT", "TASK_EVENT", "FILE_EVENT", "FIELDS", "encode",
           "to_jsonl"]

WORKFLOW_EVENT = "workflow"
TASK_EVENT = "task"
FILE_EVENT = "file"

#: The fields of each record kind, in the order the manager writes them.
FIELDS: dict[str, tuple[str, ...]] = {
    WORKFLOW_EVENT: (
        "workflow_id", "workflow_name", "timestamp", "phase",
        "runtime_seconds", "success", "kind", "event_id",
    ),
    TASK_EVENT: (
        "workflow_id", "task_id", "signature", "tool", "command", "node_id",
        "timestamp", "makespan_seconds", "inputs", "outputs", "output_sizes",
        "success", "attempt", "stdout", "stderr", "kind", "event_id",
    ),
    FILE_EVENT: (
        "workflow_id", "task_id", "path", "size_mb", "transfer_seconds",
        "direction", "node_id", "timestamp", "local_fraction", "kind",
        "event_id",
    ),
}

#: One record as one JSON line, keys sorted: every trace line and SQL payload.
encode = json.JSONEncoder(sort_keys=True).encode


def to_jsonl(records: Iterable[dict]) -> str:
    """Records as JSON-lines text: a trace ready to be re-executed."""
    return "\n".join(map(encode, records))
