"""Chrome ``trace_event`` export: one fold from events to spans.

:func:`trace_records` folds a recorded event list — the live run's or
one decoded from a journal — into *spans*, intervals with a start, a
duration and a home thread:

* RM allocate latency (container request → allocation),
* container lifecycle (allocation → release) per node,
* task attempts per node (from the recorded makespan),
* HDFS stage-in/stage-out per node, from the attempts' transfers and
  the set-up staging,
* whole workflows.

Point-in-time occurrences (task dispatch/retry, fault injections, node
crashes) become instant events. The result exports as Chrome
``trace_event`` JSON — loadable in ``chrome://tracing`` or Perfetto.
Counts and latency aggregates are not kept here: they live in the
:class:`~repro.obs.registry.MetricsRegistry` subscribed to the same bus.

:func:`chrome_trace_records` and :func:`dump_chrome_trace` are the one
Chrome formatter of the package; the per-submission span trees of
:mod:`repro.obs.spans` export through them too.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs import events as ev

__all__ = [
    "TRACE_EVENTS",
    "trace_records",
    "chrome_trace_records",
    "dump_chrome_trace",
]

#: Simulated seconds → trace microseconds.
_US = 1e6

#: The events :func:`trace_records` reads.
TRACE_EVENTS = (
    ev.ContainerRequested,
    ev.ContainerAllocated,
    ev.ContainerReleased,
    ev.NodeCrashed,
    ev.TaskDispatched,
    ev.TaskRetried,
    ev.TaskAttemptFinished,
    ev.WorkflowStarted,
    ev.WorkflowFinished,
    ev.FaultInjected,
    ev.InputsStaged,
)


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


def trace_records(
    events: Iterable[ev.ObsEvent], now: float, include_hdfs: bool = True
) -> list[dict]:
    """The spans and instants of ``events`` as Chrome records.

    Processes and threads are numbered in order of first use. A node
    crash kills containers without a release, and an aborted workflow
    may never publish ``WorkflowFinished``: intervals still open after
    the last event are closed at ``now`` and marked ``incomplete``, so
    the viewer shows them as truncated rather than dropping them.
    ``include_hdfs=False`` skips the per-file HDFS spans.
    """
    spans: list[tuple] = []
    instants: list[tuple] = []
    request_t: dict[int, float] = {}
    container_open: dict[str, tuple[float, str, str]] = {}
    workflow_open: dict[str, tuple[float, str]] = {}
    pids: dict[str, int] = {}
    tids: dict[tuple[int, str], int] = {}

    def thread(process: str, name: str) -> tuple[int, int]:
        pid = pids.setdefault(process, len(pids) + 1)
        tid = tids.get((pid, name))
        if tid is None:
            tid = sum(1 for existing, _ in tids if existing == pid) + 1
            tids[(pid, name)] = tid
        return pid, tid

    def span(ts, dur, name, cat, process, thread_name, args) -> None:
        spans.append((ts, dur, name, cat, *thread(process, thread_name), args))

    def instant(ts, name, cat, process, thread_name, args) -> None:
        instants.append((ts, name, cat, *thread(process, thread_name), args))

    def transfer_spans(started: float, ended: float, transfers) -> None:
        # A container starts all of an attempt's stage-ins at its start
        # and all of its stage-outs together, so that the longest ends at
        # its end; a failed attempt's at the failure, the latest it can.
        outs_start = ended - max((report.seconds for report in transfers
                                  if report.direction == "out"), default=0.0)
        for report in transfers:
            if report.direction == "in":
                span(started, report.seconds, f"read:{report.path}", "hdfs",
                     "hdfs", report.node_id,
                     {"mb": report.size_mb, "local_mb": report.local_mb})
            else:
                span(outs_start, report.seconds, f"write:{report.path}",
                     "hdfs", "hdfs", report.node_id,
                     {"mb": report.size_mb, "remote_mb": report.remote_mb})

    for event in events:
        kind = type(event)
        if kind is ev.ContainerRequested:
            request_t[event.request_id] = event.t
        elif kind is ev.ContainerAllocated:
            requested_at = request_t.pop(event.request_id, event.t)
            span(requested_at, event.t - requested_at, "allocate", "yarn",
                 "yarn-rm", event.app_id,
                 {"container": event.container_id, "node": event.node_id})
            container_open[event.container_id] = (
                event.t, event.node_id, event.app_id
            )
        elif kind is ev.ContainerReleased:
            opened = container_open.pop(event.container_id, None)
            if opened is not None:
                start, node_id, app_id = opened
                span(start, event.t - start, event.container_id, "container",
                     "containers", node_id, {"app": app_id})
        elif kind is ev.NodeCrashed:
            instant(event.t, f"crash:{event.node_id}", "yarn",
                    "cluster", event.node_id,
                    {"containers_lost": event.containers_lost})
        elif kind is ev.WorkflowStarted:
            workflow_open[event.workflow_id] = (event.t, event.name)
        elif kind is ev.WorkflowFinished:
            opened = workflow_open.pop(event.workflow_id, None)
            start = opened[0] if opened else event.t - event.runtime_seconds
            span(start, event.t - start, event.name or event.workflow_id,
                 "workflow", "workflows", event.workflow_id,
                 {"success": event.success})
        elif kind is ev.TaskDispatched:
            instant(event.t, f"dispatch:{event.task_id}", "task",
                    "am", event.workflow_id, {"tool": event.tool})
        elif kind is ev.TaskRetried:
            instant(event.t, f"retry:{event.task_id}", "task",
                    "am", event.workflow_id,
                    {"attempt": event.attempt,
                     "excluded_node": event.excluded_node})
        elif kind is ev.TaskAttemptFinished:
            if include_hdfs:
                transfer_spans(event.t - event.makespan_seconds, event.t,
                               event.transfers)
            task = event.task
            name = f"{task.tool}:{task.task_id}" if task is not None else "task"
            span(event.t - event.makespan_seconds, event.makespan_seconds,
                 name, "task", "tasks", event.node_id,
                 {"workflow": event.workflow_id,
                  "attempt": event.attempt,
                  "success": event.success})
        elif kind is ev.FaultInjected:
            instant(event.t, f"fault:{event.node_id}", "cluster",
                    "cluster", event.node_id,
                    {"planned_at": event.planned_at})
        elif kind is ev.InputsStaged and include_hdfs:
            transfer_spans(event.t, event.t, event.transfers)

    for container_id in sorted(container_open):
        start, node_id, app_id = container_open[container_id]
        span(start, max(now - start, 0.0), container_id, "container",
             "containers", node_id, {"app": app_id, "incomplete": True})
    for workflow_id in sorted(workflow_open):
        start, name = workflow_open[workflow_id]
        span(start, max(now - start, 0.0), name or workflow_id, "workflow",
             "workflows", workflow_id, {"incomplete": True})
    return chrome_trace_records(
        ((pid, name) for name, pid in pids.items()),
        ((pid, tid, name) for (pid, name), tid
         in sorted(tids.items(), key=lambda kv: kv[1])),
        spans,
        instants,
    )
