"""Span recording and Chrome ``trace_event`` export.

The :class:`Tracer` subscribes to the observability bus and condenses
the raw event stream into *spans* — intervals with a start, a duration
and a home thread:

* RM allocate latency (container request → allocation),
* container lifecycle (allocation → release) per node,
* task attempts per node (from the recorded makespan),
* HDFS stage-in/stage-out per node,
* whole workflows.

Point-in-time occurrences (task dispatch/retry, fault injections, node
crashes) become instant events. The result exports as Chrome
``trace_event`` JSON — loadable in ``chrome://tracing`` or Perfetto.
Counts and latency aggregates are not kept here: they live in the
:class:`~repro.obs.registry.MetricsRegistry` attached to the same bus.

:func:`chrome_trace_records` and :func:`dump_chrome_trace` are the one
Chrome formatter of the package; the per-submission span trees of
:mod:`repro.obs.spans` export through them too.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.obs import events as ev
from repro.obs.bus import EventBus, Subscription

__all__ = ["Tracer", "chrome_trace_records", "dump_chrome_trace"]

#: Simulated seconds → trace microseconds.
_US = 1e6


def chrome_trace_records(
    processes: Iterable[tuple[int, str]],
    threads: Iterable[tuple[int, int, str]],
    spans: Iterable[tuple],
    instants: Iterable[tuple] = (),
) -> list[dict]:
    """Chrome ``trace_event`` dictionaries, metadata first.

    ``processes`` are ``(pid, name)`` and ``threads`` ``(pid, tid,
    name)``, emitted as ``M`` records in the given order. ``spans`` are
    ``(ts, dur, name, category, pid, tid, args)`` and ``instants``
    ``(ts, name, category, pid, tid, args)`` with times in simulated
    seconds; they become ``X`` and ``i`` records in microseconds
    (clamped at zero, rounded to nanoseconds), sorted by
    ``(ts, pid, tid)``. Empty ``args`` are omitted.
    """
    out: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": name}}
        for pid, name in processes
    ]
    out += [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": name}}
        for pid, tid, name in threads
    ]
    timed: list[dict] = []
    for ts, dur, name, cat, pid, tid, args in spans:
        record = {"name": name, "cat": cat, "ph": "X",
                  "ts": round(max(ts, 0.0) * _US, 3),
                  "dur": round(max(dur, 0.0) * _US, 3),
                  "pid": pid, "tid": tid}
        if args:
            record["args"] = args
        timed.append(record)
    for ts, name, cat, pid, tid, args in instants:
        record = {"name": name, "cat": cat, "ph": "i", "s": "g",
                  "ts": round(max(ts, 0.0) * _US, 3),
                  "pid": pid, "tid": tid}
        if args:
            record["args"] = args
        timed.append(record)
    timed.sort(key=lambda record: (record["ts"], record["pid"], record["tid"]))
    return out + timed


def dump_chrome_trace(records: list[dict]) -> str:
    """Serialise records as a Chrome/Perfetto-loadable JSON object."""
    return json.dumps(
        {"traceEvents": records, "displayTimeUnit": "ms"}, sort_keys=True
    )


class Tracer:
    """Bus subscriber turning the event stream into spans."""

    def __init__(self, bus: EventBus, include_hdfs: bool = True):
        self.bus = bus
        self.include_hdfs = include_hdfs
        #: Closed spans: (ts_seconds, dur_seconds, name, category, pid, tid, args).
        self.spans: list[tuple] = []
        #: Instant marks: (ts_seconds, name, category, pid, tid, args).
        self.instants: list[tuple] = []
        self._request_t: dict[int, float] = {}
        self._container_open: dict[str, tuple[float, str, str]] = {}
        self._workflow_open: dict[str, tuple[float, str]] = {}
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}
        self._subscriptions: list[Subscription] = []
        handlers = [
            (ev.ContainerRequested, self._on_container_requested),
            (ev.ContainerAllocated, self._on_container_allocated),
            (ev.ContainerReleased, self._on_container_released),
            (ev.NodeCrashed, self._on_node_crashed),
            (ev.TaskDispatched, self._on_task_dispatched),
            (ev.TaskRetried, self._on_task_retried),
            (ev.TaskAttemptFinished, self._on_task_attempt_finished),
            (ev.WorkflowStarted, self._on_workflow_started),
            (ev.WorkflowFinished, self._on_workflow_finished),
            (ev.FaultInjected, self._on_fault_injected),
        ]
        if include_hdfs:
            handlers += [
                (ev.HdfsRead, self._on_hdfs_read),
                (ev.HdfsWrite, self._on_hdfs_write),
            ]
        for event_type, handler in handlers:
            self._subscriptions.append(bus.subscribe(event_type, handler))

    def detach(self) -> None:
        """Unsubscribe from the bus (recorded data stays available)."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()

    # -- bookkeeping helpers ------------------------------------------------------

    def _pid(self, name: str) -> int:
        pid = self._pids.get(name)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[name] = pid
        return pid

    def _tid(self, pid: int, name: str) -> int:
        key = (pid, name)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for existing, _ in self._tids if existing == pid) + 1
            self._tids[key] = tid
        return tid

    def _span(self, ts: float, dur: float, name: str, cat: str,
              process: str, thread: str, args: Optional[dict] = None) -> None:
        pid = self._pid(process)
        self.spans.append((ts, dur, name, cat, pid, self._tid(pid, thread), args))

    def _instant(self, ts: float, name: str, cat: str,
                 process: str, thread: str, args: Optional[dict] = None) -> None:
        pid = self._pid(process)
        self.instants.append((ts, name, cat, pid, self._tid(pid, thread), args))

    # -- yarn ---------------------------------------------------------------------

    def _on_container_requested(self, event: ev.ContainerRequested) -> None:
        self._request_t[event.request_id] = event.t

    def _on_container_allocated(self, event: ev.ContainerAllocated) -> None:
        requested_at = self._request_t.pop(event.request_id, event.t)
        self._span(requested_at, event.t - requested_at, "allocate", "yarn",
                   "yarn-rm", event.app_id,
                   {"container": event.container_id, "node": event.node_id})
        self._container_open[event.container_id] = (
            event.t, event.node_id, event.app_id
        )

    def _on_container_released(self, event: ev.ContainerReleased) -> None:
        opened = self._container_open.pop(event.container_id, None)
        if opened is None:
            return
        start, node_id, app_id = opened
        self._span(start, event.t - start, event.container_id, "container",
                   "containers", node_id, {"app": app_id})

    def _on_node_crashed(self, event: ev.NodeCrashed) -> None:
        self._instant(event.t, f"crash:{event.node_id}", "yarn",
                      "cluster", event.node_id,
                      {"containers_lost": event.containers_lost})

    # -- workflow / task / file ---------------------------------------------------

    def _on_workflow_started(self, event: ev.WorkflowStarted) -> None:
        self._workflow_open[event.workflow_id] = (event.t, event.name)

    def _on_workflow_finished(self, event: ev.WorkflowFinished) -> None:
        opened = self._workflow_open.pop(event.workflow_id, None)
        start = opened[0] if opened else event.t - event.runtime_seconds
        self._span(start, event.t - start, event.name or event.workflow_id,
                   "workflow", "workflows", event.workflow_id,
                   {"success": event.success})

    def _on_task_dispatched(self, event: ev.TaskDispatched) -> None:
        self._instant(event.t, f"dispatch:{event.task_id}", "task",
                      "am", event.workflow_id, {"tool": event.tool})

    def _on_task_retried(self, event: ev.TaskRetried) -> None:
        self._instant(event.t, f"retry:{event.task_id}", "task",
                      "am", event.workflow_id,
                      {"attempt": event.attempt,
                       "excluded_node": event.excluded_node})

    def _on_task_attempt_finished(self, event: ev.TaskAttemptFinished) -> None:
        task = event.task
        name = f"{task.tool}:{task.task_id}" if task is not None else "task"
        self._span(event.t - event.makespan_seconds, event.makespan_seconds,
                   name, "task", "tasks", event.node_id,
                   {"workflow": event.workflow_id,
                    "attempt": event.attempt,
                    "success": event.success})

    # -- hdfs ---------------------------------------------------------------------

    def _on_hdfs_read(self, event: ev.HdfsRead) -> None:
        self._span(event.t - event.seconds, event.seconds,
                   f"read:{event.path}", "hdfs", "hdfs", event.node_id,
                   {"mb": event.size_mb, "local_mb": event.local_mb})

    def _on_hdfs_write(self, event: ev.HdfsWrite) -> None:
        self._span(event.t - event.seconds, event.seconds,
                   f"write:{event.path}", "hdfs", "hdfs", event.node_id,
                   {"mb": event.size_mb, "remote_mb": event.remote_mb})

    # -- cluster ------------------------------------------------------------------

    def _on_fault_injected(self, event: ev.FaultInjected) -> None:
        self._instant(event.t, f"fault:{event.node_id}", "cluster",
                      "cluster", event.node_id,
                      {"planned_at": event.planned_at})

    # -- export -------------------------------------------------------------------

    def _incomplete_spans(self) -> list[tuple]:
        """Still-open container/workflow intervals as explicit spans.

        A node crash kills containers without a release, and an aborted
        workflow may never publish ``WorkflowFinished`` — without this,
        those intervals would silently vanish from the export. They are
        closed at the current simulated clock and marked
        ``incomplete: true`` so the viewer shows them as truncated, not
        finished. The recording state is left untouched, so exporting
        twice (or after a late release) stays consistent.
        """
        now = self.bus.env.now if self.bus.env is not None else 0.0
        spans: list[tuple] = []
        for container_id in sorted(self._container_open):
            start, node_id, app_id = self._container_open[container_id]
            pid = self._pid("containers")
            spans.append((
                start, max(now - start, 0.0), container_id, "container",
                pid, self._tid(pid, node_id),
                {"app": app_id, "incomplete": True},
            ))
        for workflow_id in sorted(self._workflow_open):
            start, name = self._workflow_open[workflow_id]
            pid = self._pid("workflows")
            spans.append((
                start, max(now - start, 0.0), name or workflow_id,
                "workflow", pid, self._tid(pid, workflow_id),
                {"incomplete": True},
            ))
        return spans

    def chrome_trace_events(self) -> list[dict]:
        """The recorded data as Chrome ``trace_event`` dictionaries.

        Metadata events naming each process/thread come first, then
        spans and instants in ``(ts, pid, tid)`` order (see
        :func:`chrome_trace_records`). Intervals still open at export
        time (crashed containers, aborted workflows) appear as spans
        marked ``incomplete``.
        """
        incomplete = self._incomplete_spans()
        return chrome_trace_records(
            ((pid, name) for name, pid in self._pids.items()),
            ((pid, tid, name) for (pid, name), tid
             in sorted(self._tids.items(), key=lambda kv: kv[1])),
            self.spans + incomplete,
            self.instants,
        )

    def to_chrome_trace(self) -> str:
        """Serialise as a Chrome/Perfetto-loadable JSON object."""
        return dump_chrome_trace(self.chrome_trace_events())

    def save(self, path: str) -> None:
        """Write the Chrome trace JSON to a real file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_trace())
            handle.write("\n")
