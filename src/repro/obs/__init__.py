"""repro.obs — the unified observability spine.

One typed :class:`EventBus` per cluster carries every workflow, task,
file, YARN, HDFS and failure event. The
:class:`~repro.core.provenance.manager.ProvenanceManager`,
:class:`~repro.sim.metrics.MetricRecorder` (and its
:class:`MetricsRegistry`) are always subscribed; an
:class:`EventJournal` or a :class:`LiveMonitor` attaches the same way,
by passing it the bus. Every single-workflow view is a pure fold over
a recorded event list, identical live or decoded from a journal:
:func:`trace_records` (Chrome trace), :func:`analyze` (critical path)
and :func:`repro.obs.decisions.explain` (decision audit). Each declares
the event types it reads (``TRACE_EVENTS``, ``ANALYSIS_EVENTS``,
``DECISION_EVENTS``). See the README "Observability" section for the
topic map and CLI usage.
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
    TOPICS,
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
    replay,
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
from repro.obs.tracer import TRACE_EVENTS, trace_records

__all__ = [
    "EventBus",
    "Subscription",
    "TRACE_EVENTS",
    "trace_records",
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
    "replay",
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
    "TOPICS",
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
