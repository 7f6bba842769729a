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

All three serve the query the adaptive scheduler needs: the *latest*
observed runtime per (task signature, node) pair.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Optional

from repro.core.provenance.events import FIELDS, TASK_EVENT, encode, to_jsonl
from repro.errors import ProvenanceError

__all__ = [
    "ProvenanceStore",
    "TraceFileStore",
    "SqlProvenanceStore",
    "DocumentProvenanceStore",
]


#: The JSON types a loaded trace must give the fields the runtime index reads.
_INDEXED_FIELD_TYPES = {"signature": str, "node_id": str,
                        "timestamp": (int, float), "makespan_seconds": (int, float)}


def _parse_record(line: str, line_number: int) -> dict:
    """One validated record from one line of a JSON-lines trace: it must
    carry exactly its kind's :data:`FIELDS`."""
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"expected an event object, got {record!r}")
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in FIELDS:
            raise ValueError(f"unknown provenance event kind {kind!r}")
        missing, extra = FIELDS[kind] - record.keys(), record.keys() - FIELDS[kind]
        if missing or extra:
            raise ValueError(f"{kind} record missing fields {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, types in _INDEXED_FIELD_TYPES.items():
            if name in record and not isinstance(record[name], types):
                raise ValueError(f"field {name!r} has the wrong type")
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise ProvenanceError(f"trace line {line_number}: {exc}") from exc
    return record


class ProvenanceStore:
    """Interface of every provenance backend."""

    def append(self, record: dict) -> None:  # pragma: no cover - interface
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


class _IndexedStore(ProvenanceStore):
    """An in-memory store (records kept by the subclass's ``_store``)
    that answers :meth:`latest_task_runtime` from a ``(signature, node)
    -> (timestamp, makespan)`` index updated on every add. A successful
    task record wins unless its timestamp is older, so on equal
    timestamps the last one added wins; failures never enter the index.
    """

    def __init__(self):
        self._latest_runtime: dict[tuple[str, str], tuple[float, float]] = {}

    def append(self, record: dict) -> None:
        self._store(record)
        if record["kind"] == TASK_EVENT and record["success"]:
            key = (record["signature"], record["node_id"])
            timestamp = record["timestamp"]
            current = self._latest_runtime.get(key)
            if current is None or timestamp >= current[0]:
                self._latest_runtime[key] = (timestamp, record["makespan_seconds"])

    def latest_task_runtime(self, signature, node_id):
        entry = self._latest_runtime.get((signature, node_id))
        return entry[1] if entry else None

    def clear(self) -> None:
        self._latest_runtime.clear()


class TraceFileStore(_IndexedStore):
    """JSON-lines trace, Hi-WAY's default backend."""

    def __init__(self):
        super().__init__()
        self._records: list[dict] = []

    def _store(self, record: dict) -> None:
        self._records.append(record)

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        result = self._records
        if kind is not None:
            result = [r for r in result if r["kind"] == kind]
        if workflow_id is not None:
            result = [r for r in result if r.get("workflow_id") == workflow_id]
        return list(result)

    def clear(self) -> None:
        super().clear()
        self._records.clear()

    # -- (de)serialisation -----------------------------------------------------

    def to_jsonl(self) -> str:
        """The trace as JSON-lines text, ready to be re-executed."""
        return to_jsonl(self._records)

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceFileStore":
        """Parse a JSON-lines trace back into a store; a line that is not
        an event record raises :class:`ProvenanceError` naming it."""
        store = cls()
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line:
                store.append(_parse_record(line, line_number))
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

    def append(self, record: dict) -> None:
        self._conn.execute(
            "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record["event_id"],
                record["kind"],
                record.get("workflow_id"),
                record.get("signature"),
                record.get("node_id"),
                record.get("timestamp"),
                record.get("makespan_seconds"),
                1 if record.get("success", True) else 0,
                encode(record),
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

    Documents are keyed by event id and grouped into per-kind buckets;
    a simple map-style index keeps the latest runtime per
    (signature, node) pair current on write.
    """

    def __init__(self):
        super().__init__()
        self._buckets: dict[str, dict[str, dict]] = {kind: {} for kind in FIELDS}

    def _store(self, record: dict) -> None:
        bucket = self._buckets.get(record["kind"])
        if bucket is None:
            raise ProvenanceError(f"unknown event kind {record['kind']!r}")
        bucket[record["event_id"]] = record

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        buckets = self._buckets.values() if kind is None else [self._buckets[kind]]
        result = [record for bucket in buckets for record in bucket.values()]
        if workflow_id is not None:
            result = [r for r in result if r.get("workflow_id") == workflow_id]
        result.sort(key=lambda r: r["event_id"])
        return result

    def clear(self) -> None:
        super().clear()
        for bucket in self._buckets.values():
            bucket.clear()
