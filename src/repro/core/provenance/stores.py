"""Provenance storage backends (Sec. 3.5).

Hi-WAY stores traces as JSON files in HDFS by default and offers MySQL
and Couchbase backends for installations with many runs. The three
backends here mirror that line-up with offline equivalents:

* :class:`TraceFileStore` — JSON-lines, exportable to a real file, and
  the basis of the re-executable trace language;
* :class:`SqlProvenanceStore` — stdlib ``sqlite3`` standing in for
  MySQL, with real SQL queries;
* :class:`DocumentProvenanceStore` — an in-memory document store
  standing in for Couchbase.

Every backend takes records as rows (:mod:`repro.core.provenance.events`:
one tuple of values in ``FIELDS`` order) and hands them out as fresh
dicts, built on every :meth:`~ProvenanceStore.records` call, so no
caller can change what a store holds. The two in-memory backends keep
the rows themselves; the SQL backend keeps each row's JSON payload. The
trace loader turns each validated line into a row.

All three serve the query the adaptive scheduler needs: the *latest*
observed runtime per (task signature, node) pair.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.provenance.events import (
    EVENT_ID, FIELDS, KIND, TASK_EVENT, WORKFLOW_ID, encode, event_id_text,
    record, row, to_jsonl,
)
from repro.errors import ProvenanceError

__all__ = [
    "ProvenanceStore",
    "TraceFileStore",
    "SqlProvenanceStore",
    "DocumentProvenanceStore",
]


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _paths(value) -> bool:
    return isinstance(value, list) and all(isinstance(p, str) for p in value)


def _sizes(value) -> bool:
    return isinstance(value, dict) and all(map(_number, value.values()))


#: What a loaded trace must give the fields the runtime index and the row
#: layout read: a JSON string, boolean, number (not a boolean), list of
#: paths, or object of sizes.
_FIELD_CHECKS = {
    "signature": lambda value: isinstance(value, str),
    "node_id": lambda value: isinstance(value, str),
    "event_id": lambda value: isinstance(value, str),
    "success": lambda value: isinstance(value, bool),
    "timestamp": _number,
    "makespan_seconds": _number,
    "inputs": _paths,
    "outputs": _paths,
    "output_sizes": _sizes,
}


def _parse_row(line: str, line_number: int) -> tuple:
    """The row of one line of a JSON-lines trace: the line must be a
    record carrying exactly its kind's :data:`FIELDS`, with the types
    :data:`_FIELD_CHECKS` asks for."""
    try:
        fields = json.loads(line)
        if not isinstance(fields, dict):
            raise ValueError(f"expected an event object, got {fields!r}")
        kind = fields.get("kind")
        if not isinstance(kind, str) or kind not in FIELDS:
            raise ValueError(f"unknown provenance event kind {kind!r}")
        missing, extra = FIELDS[kind] - fields.keys(), fields.keys() - FIELDS[kind]
        if missing or extra:
            raise ValueError(f"{kind} record missing fields {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, check in _FIELD_CHECKS.items():
            if name in fields and not check(fields[name]):
                raise ValueError(f"field {name!r} has the wrong type")
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise ProvenanceError(f"trace line {line_number}: {exc}") from exc
    return row(fields)


def _select(rows, kind: Optional[str], workflow_id: Optional[str]) -> list[dict]:
    """Fresh record dicts of the ``rows`` of ``kind`` in ``workflow_id``."""
    return [record(r) for r in rows
            if (kind is None or r[KIND] == kind)
            and (workflow_id is None or r[WORKFLOW_ID] == workflow_id)]


class ProvenanceStore:
    """Interface of every provenance backend."""

    def append(self, row: tuple) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def records(
        self, kind: Optional[str] = None, workflow_id: Optional[str] = None
    ) -> list[dict]:  # pragma: no cover - interface
        raise NotImplementedError

    def latest_task_runtime(
        self, signature: str, node_id: str
    ) -> Optional[float]:  # pragma: no cover - interface
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


_SIGNATURE, _NODE_ID, _TIMESTAMP, _MAKESPAN, _SUCCESS = (
    FIELDS[TASK_EVENT].index(name) for name in
    ("signature", "node_id", "timestamp", "makespan_seconds", "success"))


class _IndexedStore(ProvenanceStore):
    """An in-memory store (rows kept by the subclass's ``_store``) that
    answers :meth:`latest_task_runtime` from a ``(signature, node) ->
    (timestamp, makespan)`` index updated on every append. A successful
    task row wins unless its timestamp is older, so on equal timestamps
    the last one appended wins; failures never enter the index.
    """

    def __init__(self):
        self._latest_runtime: dict[tuple[str, str], tuple[float, float]] = {}

    def append(self, row: tuple) -> None:
        self._store(row)
        if row[KIND] == TASK_EVENT and row[_SUCCESS]:
            key = (row[_SIGNATURE], row[_NODE_ID])
            timestamp = row[_TIMESTAMP]
            current = self._latest_runtime.get(key)
            if current is None or timestamp >= current[0]:
                self._latest_runtime[key] = (timestamp, row[_MAKESPAN])

    def latest_task_runtime(self, signature, node_id):
        entry = self._latest_runtime.get((signature, node_id))
        return entry[1] if entry else None

    def clear(self) -> None:
        self._latest_runtime.clear()


class TraceFileStore(_IndexedStore):
    """JSON-lines trace, Hi-WAY's default backend: its rows in append order."""

    def __init__(self):
        super().__init__()
        self._rows: list[tuple] = []

    def _store(self, row: tuple) -> None:
        self._rows.append(row)

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        return _select(self._rows, kind, workflow_id)

    def clear(self) -> None:
        super().clear()
        self._rows.clear()

    # -- (de)serialisation -----------------------------------------------------

    def to_jsonl(self) -> str:
        """The trace as JSON-lines text, ready to be re-executed."""
        return to_jsonl(map(record, self._rows))

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceFileStore":
        """Parse a JSON-lines trace back into a store; a line that is not
        an event record raises :class:`ProvenanceError` naming it."""
        store = cls()
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line:
                store.append(_parse_row(line, line_number))
        return store

    def save(self, path: str) -> None:
        """Write the trace to a real file on disk."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "TraceFileStore":
        """Read a trace from a real file on disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())


class SqlProvenanceStore(ProvenanceStore):
    """SQL backend (sqlite3 standing in for the paper's MySQL).

    Events land in one table with the scheduler-relevant columns lifted
    out of the JSON payload, which makes ad-hoc aggregation queries easy —
    the "added benefit" the paper notes for database-backed provenance.
    """

    def __init__(self, path: str = ":memory:"):
        import sqlite3

        self._conn = sqlite3.connect(path)
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS events (
                event_id TEXT PRIMARY KEY,
                kind TEXT NOT NULL,
                workflow_id TEXT,
                signature TEXT,
                node_id TEXT,
                timestamp REAL,
                makespan REAL,
                success INTEGER,
                payload TEXT NOT NULL
            )
            """
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_sig_node"
            " ON events (signature, node_id, timestamp)"
        )
        self._conn.commit()

    def append(self, row: tuple) -> None:
        fields = record(row)
        self._conn.execute(
            "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                fields["event_id"],
                fields["kind"],
                fields["workflow_id"],
                fields.get("signature"),
                fields.get("node_id"),
                fields["timestamp"],
                fields.get("makespan_seconds"),
                1 if fields.get("success", True) else 0,
                encode(fields),
            ),
        )
        self._conn.commit()

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        query = "SELECT payload FROM events WHERE 1=1"
        params: list = []
        if kind is not None:
            query += " AND kind = ?"
            params.append(kind)
        if workflow_id is not None:
            query += " AND workflow_id = ?"
            params.append(workflow_id)
        query += " ORDER BY rowid"
        return [json.loads(row[0]) for row in self._conn.execute(query, params)]

    def latest_task_runtime(self, signature, node_id):
        row = self._conn.execute(
            """
            SELECT makespan FROM events
            WHERE kind = ? AND signature = ? AND node_id = ? AND success = 1
            ORDER BY timestamp DESC, rowid DESC LIMIT 1
            """,
            (TASK_EVENT, signature, node_id),
        ).fetchone()
        return row[0] if row else None

    def clear(self) -> None:
        self._conn.execute("DELETE FROM events")
        self._conn.commit()


class DocumentProvenanceStore(_IndexedStore):
    """Document-oriented backend (in-memory Couchbase stand-in).

    Rows are keyed by event id and grouped into per-kind buckets;
    a simple map-style index keeps the latest runtime per
    (signature, node) pair current on write.
    """

    def __init__(self):
        super().__init__()
        self._buckets: dict[str, dict[str, tuple]] = {kind: {} for kind in FIELDS}

    def _store(self, row: tuple) -> None:
        bucket = self._buckets.get(row[KIND])
        if bucket is None:
            raise ProvenanceError(f"unknown event kind {row[KIND]!r}")
        bucket[event_id_text(row[EVENT_ID])] = row

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        buckets = self._buckets.values() if kind is None else [self._buckets[kind]]
        keyed = sorted((item for bucket in buckets for item in bucket.items()),
                       key=lambda item: item[0])
        return _select((row for _, row in keyed), None, workflow_id)

    def clear(self) -> None:
        super().clear()
        for bucket in self._buckets.values():
            bucket.clear()
