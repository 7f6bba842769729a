"""Durable event journal: append-only JSONL over the observability bus.

The bus makes a run observable *while it happens*; this module makes it
observable *afterwards*. An :class:`EventJournal`'s handler table maps
every event class of :data:`EVENT_TYPES` to :meth:`EventJournal.record`,
which appends one JSON line per event to a file, preceded by a
schema-versioned header line carrying run metadata. The resulting
journal is the durable record the provenance literature asks of
workflow systems — a totally ordered, replayable stream — and the
substrate for the offline tooling:

* :func:`read_journal` / :func:`iter_events` — decode the stream back
  into the original ``repro.obs.events`` dataclasses (``t``/``seq``
  preserved). Replay needs no bus: a stateful observer
  (:class:`~repro.obs.registry.MetricsRegistry`,
  :class:`~repro.obs.live.LiveMonitor`) is fed by looking each decoded
  event's handler up in the table it subscribes live, and the folds
  over an event list (:func:`~repro.obs.analysis.analyze`,
  :func:`~repro.obs.tracer.trace_records`,
  :func:`~repro.obs.decisions.explain`,
  :func:`~repro.obs.timeline.render_timeline`) take the decoded list
  as is;
* :func:`load_registry` / :func:`replay_registry` — rebuild a metrics
  registry from a journal;
* :func:`load_service_report` — rebuild the ``serve-sim`` report with
  the live run's own fold,
  :meth:`~repro.service.slo.ServiceReport.from_events`, so report and
  registry are byte-identical to the live ones.

File format (``hiway-journal/1``): UTF-8 JSONL. The first line is
``{"schema": "hiway-journal/1", "meta": {...}}``; every further line is
``{"e": <event class>, "t": <sim s>, "seq": <n>, ...payload}``.
Unknown event names are skipped on read (forward compatibility), and a
``schema`` mismatch is an error (the version exists to be checked).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Iterator, Optional, TextIO, Union

from repro.obs import events as ev

__all__ = [
    "SCHEMA",
    "EventJournal",
    "JournalError",
    "event_to_dict",
    "event_from_dict",
    "iter_events",
    "read_journal",
    "read_meta",
    "replay_registry",
    "load_registry",
    "load_service_report",
]

SCHEMA = "hiway-journal/1"

#: Every concrete event class, by name (the ``"e"`` field of a line).
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in vars(ev).values()
    if isinstance(cls, type)
    and issubclass(cls, ev.ObsEvent)
    and cls is not ev.ObsEvent
}

#: Fields holding nested structures that need their own codec.
_TASK_FIELDS = {"task"}
_REPORT_FIELDS = {"report"}
#: Tuple-of-tuples fields that JSON flattens to lists of lists.
_PAIR_TUPLE_FIELDS = {"candidates", "placements"}


class JournalError(Exception):
    """A journal file is malformed or has an unsupported schema."""


# -- codecs -------------------------------------------------------------------


def _task_to_dict(task) -> dict:
    return {
        "tool": task.tool,
        "inputs": list(task.inputs),
        "outputs": list(task.outputs),
        "signature": task.signature,
        "task_id": task.task_id,
        "command": task.command,
        "output_size_hints": dict(task.output_size_hints),
        "threads": task.threads,
    }


def _task_from_dict(payload: dict):
    from repro.workflow.model import TaskSpec

    return TaskSpec(**payload)


def _report_to_dict(report) -> dict:
    return {
        "path": report.path,
        "node_id": report.node_id,
        "size_mb": report.size_mb,
        "local_mb": report.local_mb,
        "remote_mb": report.remote_mb,
        "seconds": report.seconds,
        "direction": report.direction,
    }


def _report_from_dict(payload: dict):
    from repro.hdfs.filesystem import FileTransferReport

    return FileTransferReport(**payload)


def event_to_dict(event: ev.ObsEvent) -> dict:
    """One event as a JSON-ready dict (``e``, ``t``, ``seq``, payload)."""
    record: dict = {"e": type(event).__name__, "t": event.t, "seq": event.seq}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if value is None:
            record[field.name] = None
        elif field.name in _TASK_FIELDS:
            record[field.name] = _task_to_dict(value)
        elif field.name in _REPORT_FIELDS:
            record[field.name] = _report_to_dict(value)
        elif isinstance(value, tuple):
            record[field.name] = [
                list(item) if isinstance(item, tuple) else item
                for item in value
            ]
        else:
            record[field.name] = value
    return record


def event_from_dict(record: dict) -> Optional[ev.ObsEvent]:
    """Rebuild the event a :func:`event_to_dict` line describes.

    Returns ``None`` for event names this build does not know (journals
    written by newer versions stay readable).
    """
    cls = EVENT_TYPES.get(record.get("e", ""))
    if cls is None:
        return None
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in record:
            continue  # field added after the journal was written
        value = record[field.name]
        if value is None:
            kwargs[field.name] = None
        elif field.name in _TASK_FIELDS:
            kwargs[field.name] = _task_from_dict(value)
        elif field.name in _REPORT_FIELDS:
            kwargs[field.name] = _report_from_dict(value)
        elif field.name in _PAIR_TUPLE_FIELDS:
            kwargs[field.name] = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
        else:
            kwargs[field.name] = value
    event = cls(**kwargs)
    event.t = float(record.get("t", 0.0))
    event.seq = int(record.get("seq", -1))
    return event


# -- writer -------------------------------------------------------------------


class EventJournal:
    """Event sink appending every event to a JSONL stream.

    The header line is written on :meth:`write_header` (explicit
    metadata) or lazily before the first event (empty metadata). The
    journal flushes on :meth:`close`, not per event — a run writes one
    line per event and the cost is the JSON encode, not a syscall.
    """

    def __init__(self, destination: Union[str, TextIO]):
        if isinstance(destination, str):
            self._handle: TextIO = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self._header_written = False
        self.events_written = 0

    def write_header(self, meta: Optional[dict] = None) -> None:
        """Write the schema/meta header line (at most once)."""
        if self._header_written:
            raise JournalError("journal header already written")
        self._handle.write(json.dumps(
            {"schema": SCHEMA, "meta": meta or {}}, sort_keys=True
        ))
        self._handle.write("\n")
        self._header_written = True

    def handlers(self) -> dict:
        """Handler table journalling every event class."""
        return dict.fromkeys(EVENT_TYPES.values(), self.record)

    def record(self, event: ev.ObsEvent) -> None:
        """Append one event."""
        if not self._header_written:
            self.write_header()
        self._handle.write(json.dumps(event_to_dict(event), sort_keys=True))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close an owned file handle (idempotent)."""
        if not self._header_written:
            self.write_header()
        self._handle.flush()
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- readers ------------------------------------------------------------------


def _open_for_read(source: Union[str, TextIO]) -> tuple[TextIO, bool]:
    if isinstance(source, str):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _check_header(line: str) -> dict:
    if not line:
        raise JournalError("journal is empty (no header line)")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as error:
        raise JournalError(f"journal header is not JSON: {error}") from None
    schema = header.get("schema")
    if schema != SCHEMA:
        raise JournalError(
            f"unsupported journal schema {schema!r} (expected {SCHEMA!r})"
        )
    return header.get("meta", {})


def _decode(handle: TextIO) -> Iterator[ev.ObsEvent]:
    """The events of the lines after the header line."""
    for number, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise JournalError(
                f"journal line {number} is not JSON: {error}"
            ) from None
        event = event_from_dict(record)
        if event is not None:
            yield event


def read_meta(source: Union[str, TextIO]) -> dict:
    """The header metadata of a journal (without decoding events)."""
    handle, owned = _open_for_read(source)
    try:
        return _check_header(handle.readline())
    finally:
        if owned:
            handle.close()


def iter_events(source: Union[str, TextIO]) -> Iterator[ev.ObsEvent]:
    """Decode a journal's events in recorded order (header checked)."""
    handle, owned = _open_for_read(source)
    try:
        _check_header(handle.readline())
        yield from _decode(handle)
    finally:
        if owned:
            handle.close()


def read_journal(source: Union[str, TextIO]) -> tuple[dict, list[ev.ObsEvent]]:
    """(meta, events) of a whole journal, read once and loaded eagerly."""
    handle, owned = _open_for_read(source)
    try:
        meta = _check_header(handle.readline())
        return meta, list(_decode(handle))
    finally:
        if owned:
            handle.close()


# -- offline rebuilds ---------------------------------------------------------


def replay_registry(meta: dict, events: Iterable[ev.ObsEvent]):
    """Rebuild the :class:`~repro.obs.registry.MetricsRegistry` a run with
    header ``meta`` fed from ``events``; a ``serve-sim`` header's
    ``max_series_points`` bounds the service series as it did live."""
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    service = meta.get("service")
    if service:
        registry.service_series(service.get("max_series_points"))
    handlers = registry.handlers()
    for event in events:
        handler = handlers.get(type(event))
        if handler is not None:
            handler(event)
    return registry


def load_registry(source: Union[str, TextIO]):
    """Rebuild the metrics registry of the run that wrote a journal."""
    return replay_registry(*read_journal(source))


def load_service_report(source: Union[str, TextIO]):
    """Rebuild the ``serve-sim`` :class:`ServiceReport` from a journal.

    Requires a journal written by the service runner (its header meta
    carries the schedule, deployment line and SLO targets). The
    rebuilt report renders byte-identically to the live one — the
    replay-determinism contract guarded in CI.
    """
    from repro.service.slo import ServiceReport

    meta, events = read_journal(source)
    service = meta.get("service")
    if not service:
        raise JournalError(
            "journal has no 'service' metadata; only serve-sim journals "
            "(--events-out) can rebuild a service report"
        )
    return ServiceReport.from_events(
        service, events, replay_registry(meta, events)
    )
