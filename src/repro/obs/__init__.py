"""repro.obs — the unified observability spine.

One typed :class:`EventBus` per cluster carries every workflow, task,
file, YARN, HDFS and failure event. A subscriber is a handler table, a
mapping from event class to handler, subscribed in one call whose
:class:`Subscription` cancels the whole table. The stateful observers
each declare theirs as ``handlers()``: the
:class:`~repro.core.provenance.manager.ProvenanceManager`, the
:class:`MetricsRegistry` held by the cluster's
:class:`~repro.sim.metrics.MetricRecorder` (subscribed by whoever builds
the installation), an
:class:`EventJournal` and a :class:`LiveMonitor`. Replaying a journal
is a plain loop that looks each decoded event's handler up in the same
table. Every single-workflow view is a pure fold over a recorded event
list, identical live or decoded from a journal: :func:`trace_records`
(Chrome trace), :func:`analyze` (critical path),
:func:`repro.obs.decisions.explain` (decision audit) and
:func:`render_timeline` (text Gantt chart). Each declares the event
types it reads (``TRACE_EVENTS``, ``ANALYSIS_EVENTS``,
``DECISION_EVENTS``, ``TIMELINE_EVENTS``); record them with
``bus.subscribe(dict.fromkeys(TRACE_EVENTS, events.append))``. See the
README "Observability" section for CLI usage.
"""

from repro.obs.analysis import (
    ANALYSIS_EVENTS,
    WorkflowAnalysis,
    analyze,
    latest_finished,
    render_report,
)
from repro.obs.bus import EventBus, Subscription
from repro.obs.decisions import DECISION_EVENTS
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
    FileStaged,
    HdfsRead,
    HdfsWrite,
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
from repro.obs.journal import (
    EventJournal,
    JournalError,
    iter_events,
    load_registry,
    load_service_report,
    read_journal,
)
from repro.obs.live import (
    Alert,
    BurnRateRule,
    DEFAULT_RULES,
    LiveMonitor,
    StragglerAlert,
    WindowStats,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, Series
from repro.obs.spans import (
    AttemptSpan,
    SubmissionSpan,
    build_submission_spans,
    render_submission,
    to_chrome_trace,
)
from repro.obs.timeline import TIMELINE_EVENTS, render_timeline
from repro.obs.tracer import TRACE_EVENTS, trace_records

__all__ = [
    "EventBus",
    "Subscription",
    "TRACE_EVENTS",
    "trace_records",
    "TIMELINE_EVENTS",
    "render_timeline",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "DECISION_EVENTS",
    "ANALYSIS_EVENTS",
    "analyze",
    "latest_finished",
    "WorkflowAnalysis",
    "render_report",
    "EventJournal",
    "JournalError",
    "iter_events",
    "read_journal",
    "load_registry",
    "load_service_report",
    "LiveMonitor",
    "BurnRateRule",
    "DEFAULT_RULES",
    "WindowStats",
    "Alert",
    "StragglerAlert",
    "AttemptSpan",
    "SubmissionSpan",
    "build_submission_spans",
    "render_submission",
    "to_chrome_trace",
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
    "FileStaged",
    "ApplicationRegistered",
    "ApplicationUnregistered",
    "ContainerRequested",
    "ContainerAllocated",
    "ContainerLaunched",
    "ContainerFinished",
    "ContainerReleased",
    "NodeCrashed",
    "BlocksPlaced",
    "HdfsRead",
    "HdfsWrite",
    "FaultInjected",
]
