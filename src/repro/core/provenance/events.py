"""The provenance record schema (Sec. 3.5) and its in-memory row layout.

The Provenance Manager registers records at three granularities —
workflow, task and file — each a JSON object with a timestamp and an id
unique within its trace. :data:`FIELDS` names every kind's fields: the
manager's handlers write exactly these, a trace line loads only if it
carries exactly its kind's fields, and the re-executable trace language
(``repro.langs.tracelang``) reads them back.

In memory a record is a *row*: one tuple of its values in :data:`FIELDS`
order. Every kind's row starts with the workflow id and ends with the
kind and the event id, so :data:`WORKFLOW_ID`, :data:`KIND` and
:data:`EVENT_ID` index any row. A task row holds ``inputs`` and
``outputs`` as tuples and ``output_sizes`` as a tuple of ``(path, MB)``
pairs, so no row shares a mutable container with anyone. An event id is
its counter value when the manager made the row (``7`` for
``"event-00000007"``) and the loaded text otherwise. :func:`record`
builds the JSON-ready dict of a row afresh on every read; :func:`row` is
its inverse.
"""

from __future__ import annotations

import json
from typing import Iterable

__all__ = ["WORKFLOW_EVENT", "TASK_EVENT", "FILE_EVENT", "FIELDS", "WORKFLOW_ID",
           "KIND", "EVENT_ID", "event_id_text", "record", "row", "encode",
           "to_jsonl"]

WORKFLOW_EVENT = "workflow"
TASK_EVENT = "task"
FILE_EVENT = "file"

#: The fields of each record kind, in the order of its row.
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


def _shared_position(name: str, from_end: bool = False) -> int:
    """The one position ``name`` takes in the row of every kind."""
    positions = {fields.index(name) - (len(fields) if from_end else 0)
                 for fields in FIELDS.values()}
    if len(positions) != 1:
        raise AssertionError(f"{name!r} sits at {sorted(positions)} across kinds")
    return positions.pop()


WORKFLOW_ID = _shared_position("workflow_id")
KIND = _shared_position("kind", from_end=True)
EVENT_ID = _shared_position("event_id", from_end=True)

_INPUTS, _OUTPUTS, _OUTPUT_SIZES = (FIELDS[TASK_EVENT].index(name) for name in
                                    ("inputs", "outputs", "output_sizes"))


def event_id_text(event_id) -> str:
    """The trace text of a row's event id."""
    return f"event-{event_id:08d}" if type(event_id) is int else event_id


def record(row: tuple) -> dict:
    """A fresh record dict of ``row``: its fields in :data:`FIELDS` order,
    lists and an ``output_sizes`` dict where the row holds tuples."""
    result = dict(zip(FIELDS[row[KIND]], row))
    result["event_id"] = event_id_text(row[EVENT_ID])
    if row[KIND] == TASK_EVENT:
        result["inputs"] = list(row[_INPUTS])
        result["outputs"] = list(row[_OUTPUTS])
        result["output_sizes"] = dict(row[_OUTPUT_SIZES])
    return result


def row(fields: dict) -> tuple:
    """The row of a record dict that carries exactly its kind's fields."""
    values = [fields[name] for name in FIELDS[fields["kind"]]]
    if fields["kind"] == TASK_EVENT:
        values[_INPUTS] = tuple(values[_INPUTS])
        values[_OUTPUTS] = tuple(values[_OUTPUTS])
        values[_OUTPUT_SIZES] = tuple(values[_OUTPUT_SIZES].items())
    return tuple(values)


#: One record as one JSON line, keys sorted: every trace line and SQL payload.
encode = json.JSONEncoder(sort_keys=True).encode


def to_jsonl(records: Iterable[dict]) -> str:
    """Records as JSON-lines text: a trace ready to be re-executed."""
    return "\n".join(map(encode, records))
