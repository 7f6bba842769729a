"""repro.obs — the unified observability spine.

One typed :class:`EventBus` per cluster carries every workflow, task,
file, YARN, HDFS and failure event. A subscriber is a handler table, a
mapping from event class to handler, subscribed in one call whose
:class:`Subscription` cancels the whole table. The stateful observers
each declare theirs as ``handlers()``: the
:class:`~repro.core.provenance.manager.ProvenanceManager` (whose
provenance trace is a fold over the workflow and task-attempt events,
whose ``transfers`` carry its file records, so it replays from a
journal too), the
:class:`MetricsRegistry` held by the cluster's
:class:`~repro.sim.metrics.MetricRecorder` (subscribed by whoever builds
the installation), a :class:`~repro.obs.journal.EventJournal` and a
:class:`~repro.obs.live.LiveMonitor`. Replaying a journal
is a plain loop that looks each decoded event's handler up in the same
table. Every single-workflow view is a pure fold over a recorded event
list, identical live or decoded from a journal:
:func:`repro.obs.tracer.trace_records` (Chrome trace),
:func:`repro.obs.analysis.analyze` (critical path),
:func:`repro.obs.decisions.explain` (decision audit) and
:func:`repro.obs.timeline.render_timeline` (text Gantt chart). Each
module declares the event types its view reads (``TRACE_EVENTS``,
``ANALYSIS_EVENTS``, ``DECISION_EVENTS``, ``TIMELINE_EVENTS``); record
them with ``bus.subscribe(dict.fromkeys(TRACE_EVENTS, events.append))``.

This package exports only what every run loads: the bus, the event
classes and the metrics registry. Import the journal, the live monitor,
the span trees and the offline views from their own modules. See the
README "Observability" section for CLI usage.
"""

from repro.obs.bus import EventBus, Subscription
from repro.obs.events import (
    ApplicationRegistered,
    ApplicationUnregistered,
    BlocksPlaced,
    ContainerAllocated,
    ContainerFinished,
    ContainerLaunched,
    ContainerReleased,
    ContainerRequested,
    FaultInjected,
    InputsStaged,
    NodeCrashed,
    ObsEvent,
    SchedulingDecision,
    ServiceSample,
    SubmissionFinished,
    TaskAttemptFinished,
    TaskDispatched,
    TaskRetried,
    WorkflowFinished,
    WorkflowStarted,
    WorkflowSubmitted,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, Series

__all__ = [
    "EventBus",
    "Subscription",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "ObsEvent",
    "SchedulingDecision",
    "ServiceSample",
    "SubmissionFinished",
    "WorkflowSubmitted",
    "WorkflowStarted",
    "WorkflowFinished",
    "TaskDispatched",
    "TaskRetried",
    "TaskAttemptFinished",
    "ApplicationRegistered",
    "ApplicationUnregistered",
    "ContainerRequested",
    "ContainerAllocated",
    "ContainerLaunched",
    "ContainerFinished",
    "ContainerReleased",
    "NodeCrashed",
    "BlocksPlaced",
    "InputsStaged",
    "FaultInjected",
]
