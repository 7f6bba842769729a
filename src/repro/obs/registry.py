"""A typed metrics registry fed by the observability bus.

Three instrument kinds in the Prometheus mould — monotonic
:class:`Counter`, settable :class:`Gauge`, fixed-bucket
:class:`Histogram` — live in a :class:`MetricsRegistry` whose handler
table (:meth:`MetricsRegistry.handlers`) folds the event stream, live
on a cluster's :class:`~repro.obs.bus.EventBus` or replayed from a
journal, into the standard Hi-WAY execution metrics: task runtimes
and scheduler waits, container allocate latency and lifetime, HDFS
bytes split local/remote, retries, crashes and fault injections.
Exports are deterministic (names and label sets sorted) in two
formats: a JSON document and the Prometheus text exposition format.

Instruments support labels via :meth:`_Instrument.labels`, e.g.::

    reads = registry.counter("hdfs_read_mb_total", labelnames=("locality",))
    reads.labels(locality="local").inc(64.0)

The registry holds plain python floats and is cheap enough to stay
subscribed for every run. The cluster's
:class:`~repro.sim.metrics.MetricRecorder` holds it next to the
resource integrals, which it reads off the flows and not off the bus.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.obs import events as ev

__all__ = ["Counter", "Gauge", "Histogram", "Series", "MetricsRegistry",
           "RUNTIME_BUCKETS", "LATENCY_BUCKETS", "SERVICE_SERIES"]

#: Task-runtime histogram bounds (seconds); tasks range from sub-second
#: utilities to multi-hour aligners.
RUNTIME_BUCKETS = (1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 7200.0)
#: Allocation/wait latency bounds (seconds).
LATENCY_BUCKETS = (0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)

#: The service-level time series fed by ``ServiceSample`` events:
#: ``(metric name, help text, ServiceSample attribute)``. One shared
#: definition, created through :meth:`MetricsRegistry.service_series`
#: by the live ``ServiceRunner`` and the offline journal replay alike,
#: so both register identical instruments.
SERVICE_SERIES = (
    ("hiway_service_backlog_depth",
     "Submissions in the system (arrived, not yet final)", "backlog"),
    ("hiway_service_admission_queue_depth",
     "Submissions waiting for an admission slot", "queue_depth"),
    ("hiway_service_running_apps",
     "Applications registered at the RM", "running_apps"),
    ("hiway_service_pending_containers",
     "Container requests waiting for capacity", "pending_containers"),
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Instrument:
    """Shared naming/labelling machinery of all three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        #: label tuple -> child instrument (the unlabelled series is
        #: keyed by the empty tuple and only exists once touched).
        self._children: dict[tuple, "_Instrument"] = {}
        self._parent: Optional["_Instrument"] = None

    def labels(self, **labels) -> "_Instrument":
        """The child series for this label combination (created lazily)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            child._parent = self
            self._children[key] = child
        return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError  # pragma: no cover - interface

    def series(self) -> list[tuple[tuple, "_Instrument"]]:
        """All (label-key, series) pairs, deterministically ordered."""
        if self.labelnames:
            return sorted(self._children.items())
        return [((), self)]


class Counter(_Instrument):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        self.value += amount


class Gauge(_Instrument):
    """A value that can go up and down (queue depths, live containers)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name)

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(_Instrument):
    """Fixed-bucket distribution with cumulative counts, sum and count."""

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS,
                 help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"{self.name}: a histogram needs >= 1 bucket")
        self.bounds = bounds
        #: Per-bound counts, non-cumulative; the +Inf bucket is implicit
        #: (``count`` minus the sum of these).
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.bounds)

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                break

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs incl. +Inf."""
        out, running = [], 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Series(_Instrument):
    """A timestamped sample sequence (backlog depths, queue lengths).

    Unlike the point-in-time :class:`Gauge`, a series keeps every
    recorded ``(t, value)`` pair, which is what open-loop service runs
    need: the *shape* of the backlog over simulated time, not just its
    final value. JSON export carries the full sample list; the
    Prometheus text format (which has no native series type) exports the
    latest sample as a gauge.

    ``max_points`` (optional) bounds memory for long service runs by
    stride decimation: when the sample list would exceed the bound,
    every second retained sample is dropped and the keep-stride
    doubles, so the series always holds <= ``max_points`` evenly
    spaced samples starting at the first record. Decimation is a pure
    function of the record *count*, hence deterministic; the default
    (``None``) keeps every sample, byte-identical to prior behaviour.
    """

    kind = "series"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                 max_points: Optional[int] = None):
        super().__init__(name, help, labelnames)
        if max_points is not None and max_points < 2:
            raise ValueError(
                f"{name}: max_points must be >= 2, got {max_points}"
            )
        #: Recorded ``(t, value)`` pairs in record order.
        self.samples: list[tuple[float, float]] = []
        self.max_points = max_points
        self._stride = 1
        self._record_count = 0

    def _make_child(self) -> "Series":
        return Series(self.name, max_points=self.max_points)

    def record(self, t: float, value: float) -> None:
        keep = self._record_count % self._stride == 0
        self._record_count += 1
        if not keep:
            return
        if self.max_points is not None and len(self.samples) >= self.max_points:
            # Thin to every second sample; retained samples stay the
            # multiples of the (doubled) stride, so future keeps align.
            self.samples = self.samples[::2]
            self._stride *= 2
        self.samples.append((float(t), float(value)))

    @property
    def value(self) -> float:
        """The most recent sample (0 before the first record)."""
        return self.samples[-1][1] if self.samples else 0.0

    def max(self) -> float:
        return max((v for _, v in self.samples), default=0.0)

    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(v for _, v in self.samples) / len(self.samples)


class MetricsRegistry:
    """Named instruments plus the standard bus-fed aggregations."""

    def __init__(self):
        self._instruments: dict[str, _Instrument] = {}
        #: container_id -> allocation time (for lifetime histograms).
        self._container_alloc_t: dict[str, float] = {}
        #: (workflow_id, task_id) -> dispatch time (for scheduler wait).
        self._dispatch_t: dict[tuple[str, str], float] = {}

    # -- instrument management --------------------------------------------------

    def _register(self, instrument: _Instrument) -> _Instrument:
        existing = self._instruments.get(instrument.name)
        if existing is not None:
            if type(existing) is not type(instrument):
                raise ValueError(
                    f"metric {instrument.name!r} already registered as "
                    f"{existing.kind}, not {instrument.kind}"
                )
            return existing
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create the counter ``name`` (idempotent)."""
        return self._register(Counter(name, help, labelnames))

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create the gauge ``name`` (idempotent)."""
        return self._register(Gauge(name, help, labelnames))

    def histogram(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS,
                  help: str = "", labelnames: Sequence[str] = ()) -> Histogram:
        """Get or create the histogram ``name`` (idempotent)."""
        return self._register(Histogram(name, buckets, help, labelnames))

    def series(self, name: str, help: str = "",
               labelnames: Sequence[str] = (),
               max_points: Optional[int] = None) -> Series:
        """Get or create the timestamped series ``name`` (idempotent)."""
        return self._register(Series(name, help, labelnames, max_points))

    def service_series(self, max_points: Optional[int] = None) -> dict[str, Series]:
        """Get or create the :data:`SERVICE_SERIES`, keyed by their
        ``ServiceSample`` attribute (existing series keep their bound)."""
        return {
            attr: self.series(name, help_text, max_points=max_points)
            for name, help_text, attr in SERVICE_SERIES
        }

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge series (0 if never touched)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return 0.0
        if labels:
            child = instrument._children.get(_label_key(labels))
            return child.value if child is not None else 0.0
        return getattr(instrument, "value", 0.0)

    # -- standard event aggregation -------------------------------------------

    def handlers(self) -> dict:
        """The standard Hi-WAY aggregations as an event handler table.

        Registers the instruments and returns ``event class -> handler``
        for ``bus.subscribe`` or a replay loop; subscribe it once.
        Everything the paper's evaluation quotes per-run lands here:
        task attempts/runtimes (per tool), scheduler wait (dispatch ->
        attempt start), container allocate latency and lifetime, HDFS
        read/write MB split local/remote, retries, crashes, injected
        faults and workflow outcomes.
        """
        tasks = self.counter("hiway_task_attempts_total",
                             "Task attempts by outcome", ("outcome",))
        runtimes = self.histogram("hiway_task_runtime_seconds", RUNTIME_BUCKETS,
                                  "Successful task attempt makespans", ("tool",))
        waits = self.histogram("hiway_task_wait_seconds", LATENCY_BUCKETS,
                               "Dispatch-to-start scheduler/allocation wait")
        retries = self.counter("hiway_task_retries_total",
                               "Attempts re-tried on another node")
        alloc_wait = self.histogram("hiway_container_allocate_wait_seconds",
                                    LATENCY_BUCKETS,
                                    "Container request-to-allocation latency")
        lifetime = self.histogram("hiway_container_lifetime_seconds",
                                  RUNTIME_BUCKETS,
                                  "Container allocation-to-release lifetime")
        launched = self.counter("hiway_containers_launched_total",
                                "Containers launched on NodeManagers")
        finished = self.counter("hiway_containers_finished_total",
                                "Containers finished by outcome", ("outcome",))
        live = self.gauge("hiway_containers_live",
                          "Currently allocated, unreleased containers")
        read_mb = self.counter("hiway_hdfs_read_mb_total",
                               "MB staged in, by locality", ("locality",))
        write_mb = self.counter("hiway_hdfs_write_mb_total",
                                "MB staged out, by locality", ("locality",))
        stage_seconds = self.histogram("hiway_hdfs_stage_seconds",
                                       LATENCY_BUCKETS,
                                       "Per-file transfer durations",
                                       ("direction",))
        crashes = self.counter("hiway_node_crashes_total", "Worker nodes lost")
        lost = self.counter("hiway_containers_lost_total",
                            "Containers killed by node crashes")
        faults = self.counter("hiway_faults_injected_total",
                              "Planned failure injections executed")
        workflows = self.counter("hiway_workflows_total",
                                 "Workflows finished by outcome", ("outcome",))
        wf_tasks = self.counter("hiway_workflow_tasks_total",
                                "Task attempts by workflow and outcome",
                                ("workflow", "outcome"))
        wf_runtime = self.gauge("hiway_workflow_runtime_seconds",
                                "Per-workflow wall-clock runtime",
                                ("workflow",))
        tenant_containers = self.counter(
            "hiway_tenant_containers_total",
            "Containers allocated per tenant (YARN queue)", ("tenant",))
        tenant_wait = self.histogram(
            "hiway_tenant_container_wait_seconds", LATENCY_BUCKETS,
            "Container allocation latency per tenant", ("tenant",))
        admissions = self.counter(
            "hiway_admission_total",
            "Application admission decisions by outcome", ("outcome",))
        submissions = self.counter(
            "hiway_workflow_submissions_total",
            "Workflow arrivals at the service, per tenant", ("tenant",))

        def on_submitted(event: ev.WorkflowSubmitted) -> None:
            submissions.labels(tenant=event.tenant or "unknown").inc()

        def on_dispatched(event: ev.TaskDispatched) -> None:
            self._dispatch_t[(event.workflow_id, event.task_id)] = event.t

        def on_task(event: ev.TaskAttemptFinished) -> None:
            outcome = "success" if event.success else "failure"
            tasks.labels(outcome=outcome).inc()
            wf_tasks.labels(
                workflow=event.workflow_id or "unknown", outcome=outcome
            ).inc()
            if event.success and event.task is not None:
                runtimes.labels(tool=event.task.tool).observe(
                    event.makespan_seconds
                )
                dispatched = self._dispatch_t.pop(
                    (event.workflow_id, event.task.task_id), None
                )
                if dispatched is not None:
                    started = event.t - event.makespan_seconds
                    waits.observe(max(started - dispatched, 0.0))

        def on_retry(event: ev.TaskRetried) -> None:
            retries.inc()

        def on_allocated(event: ev.ContainerAllocated) -> None:
            alloc_wait.observe(event.wait_seconds)
            self._container_alloc_t[event.container_id] = event.t
            live.inc()
            if event.tenant:
                tenant_containers.labels(tenant=event.tenant).inc()
                tenant_wait.labels(tenant=event.tenant).observe(
                    event.wait_seconds
                )

        def on_admission(event: ev.AdmissionDecision) -> None:
            admissions.labels(outcome=event.outcome or "unknown").inc()

        def on_released(event: ev.ContainerReleased) -> None:
            allocated = self._container_alloc_t.pop(event.container_id, None)
            if allocated is not None:
                lifetime.observe(event.t - allocated)
                live.dec()

        def on_launched(event: ev.ContainerLaunched) -> None:
            launched.inc()

        def on_finished(event: ev.ContainerFinished) -> None:
            finished.labels(
                outcome="success" if event.success else "failure"
            ).inc()

        def on_hdfs(event) -> None:
            mb = read_mb if isinstance(event, ev.HdfsRead) else write_mb
            direction = "in" if isinstance(event, ev.HdfsRead) else "out"
            if event.local_mb:
                mb.labels(locality="local").inc(event.local_mb)
            if event.remote_mb:
                locality = "external" if event.external else "remote"
                mb.labels(locality=locality).inc(event.remote_mb)
            stage_seconds.labels(direction=direction).observe(event.seconds)

        def on_crash(event: ev.NodeCrashed) -> None:
            crashes.inc()
            lost.inc(event.containers_lost)

        def on_fault(event: ev.FaultInjected) -> None:
            faults.inc()

        def on_workflow(event: ev.WorkflowFinished) -> None:
            workflows.labels(
                outcome="success" if event.success else "failure"
            ).inc()
            wf_runtime.labels(
                workflow=event.workflow_id or "unknown"
            ).set(event.runtime_seconds)

        def on_service_sample(event: ev.ServiceSample) -> None:
            # Get-or-create: pre-created series keep their max_points.
            for attr, series in self.service_series().items():
                series.record(event.rel_t, getattr(event, attr))

        return {
            ev.WorkflowSubmitted: on_submitted,
            ev.TaskDispatched: on_dispatched,
            ev.TaskAttemptFinished: on_task,
            ev.TaskRetried: on_retry,
            ev.ContainerAllocated: on_allocated,
            ev.AdmissionDecision: on_admission,
            ev.ContainerReleased: on_released,
            ev.ContainerLaunched: on_launched,
            ev.ContainerFinished: on_finished,
            ev.HdfsRead: on_hdfs,
            ev.HdfsWrite: on_hdfs,
            ev.NodeCrashed: on_crash,
            ev.FaultInjected: on_fault,
            ev.WorkflowFinished: on_workflow,
            ev.ServiceSample: on_service_sample,
        }

    # -- derived quantities -------------------------------------------------------

    def read_locality(self) -> float:
        """Fraction of staged-in HDFS bytes served from the local node."""
        local = self.value("hiway_hdfs_read_mb_total", locality="local")
        remote = self.value("hiway_hdfs_read_mb_total", locality="remote")
        external = self.value("hiway_hdfs_read_mb_total", locality="external")
        total = local + remote + external
        return local / total if total > 0 else 1.0

    # -- export -------------------------------------------------------------------

    @staticmethod
    def _escape_label_value(value) -> str:
        """Prometheus label-value escaping: backslash, quote, newline."""
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    @staticmethod
    def _escape_help(text: str) -> str:
        """HELP-line escaping: backslash and newline (quotes stay)."""
        return text.replace("\\", "\\\\").replace("\n", "\\n")

    @classmethod
    def _labels_text(cls, key: tuple, extra: str = "") -> str:
        parts = [
            f'{name}="{cls._escape_label_value(value)}"' for name, value in key
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    @staticmethod
    def _fmt(value: float) -> str:
        if value == float("inf"):
            return "+Inf"
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))

    def to_dict(self) -> dict:
        """All instruments as one deterministic JSON-ready dictionary."""
        out: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            entry: dict = {"type": instrument.kind, "help": instrument.help}
            values: dict = {}
            for key, child in instrument.series():
                label = ",".join(f"{k}={v}" for k, v in key)
                if isinstance(child, Histogram):
                    values[label] = {
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            self._fmt(le): count
                            for le, count in child.cumulative_counts()
                        },
                    }
                elif isinstance(child, Series):
                    values[label] = {
                        "samples": [[t, v] for t, v in child.samples],
                    }
                else:
                    values[label] = child.value
            entry["values"] = values
            out[name] = entry
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (deterministic ordering)."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(
                    f"# HELP {name} {self._escape_help(instrument.help)}"
                )
            # Prometheus has no series type; a series degrades to a
            # gauge carrying its most recent sample.
            kind = "gauge" if instrument.kind == "series" else instrument.kind
            lines.append(f"# TYPE {name} {kind}")
            for key, child in instrument.series():
                if isinstance(child, Histogram):
                    for le, count in child.cumulative_counts():
                        labels = self._labels_text(
                            key, f'le="{self._fmt(le)}"'
                        )
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = self._labels_text(key)
                    lines.append(f"{name}_sum{labels} {self._fmt(child.sum)}")
                    lines.append(f"{name}_count{labels} {child.count}")
                else:
                    labels = self._labels_text(key)
                    lines.append(f"{name}{labels} {self._fmt(child.value)}")
        return "\n".join(lines) + "\n"
