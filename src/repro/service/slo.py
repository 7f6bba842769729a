"""SLO evaluation: percentiles, throughput, backlog, verdicts.

A batch harness reports a makespan; a service reports a latency
*distribution* against declared targets. :class:`ServiceReport` turns
one open-loop run's per-submission spans and time series into p50/p95/p99
end-to-end latency, admission queue wait, throughput, backlog depth and
rejection rate, and grades them against :class:`SloTargets`.

:meth:`ServiceReport.from_events` is the one fold from a run's events
to its report; the live ``serve-sim`` run and the offline
``report --from-journal`` both call it, so the two match byte for byte.

Rendering is strictly a function of simulated quantities — no wall
clock, no ordering dependent on dict iteration of unsorted inputs — so
a seeded run's report is byte-identical across invocations (the
``serve-sim`` determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.obs import events as ev
from repro.obs.spans import SubmissionSpan, build_submission_spans
from repro.stats import mean, percentile

__all__ = ["REPORT_EVENTS", "SloTargets", "ServiceReport", "run_epoch",
           "slo_targets"]

#: The events a service report folds; every other event is ignored.
REPORT_EVENTS = (
    ev.WorkflowSubmitted, ev.WorkflowStarted, ev.SubmissionFinished,
    ev.ServiceSample,
)


@dataclass(frozen=True)
class SloTargets:
    """Declared service-level objectives for one run.

    ``None`` fields are not graded. ``max_rejection_rate`` is a
    fraction in [0, 1].
    """

    p50_s: Optional[float] = None
    p95_s: Optional[float] = None
    p99_s: Optional[float] = None
    max_rejection_rate: Optional[float] = None

    def is_empty(self) -> bool:
        return all(
            target is None
            for target in (
                self.p50_s, self.p95_s, self.p99_s, self.max_rejection_rate
            )
        )


def run_epoch(events: Iterable[ev.ObsEvent]) -> float:
    """The run's epoch ``t0``, at which its first ``ServiceSample`` fires."""
    samples = (e for e in events if isinstance(e, ev.ServiceSample))
    return next((e.t - e.rel_t for e in samples), 0.0)


def slo_targets(service_meta: dict) -> Optional[SloTargets]:
    """The targets a ``service`` header declares (``None`` if none)."""
    targets = service_meta.get("targets")
    return SloTargets(**targets) if targets is not None else None


def _series_stats(samples: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """(max, mean, final) of a time series' values."""
    values = [value for _, value in samples]
    if not values:
        return 0.0, 0.0, 0.0
    return max(values), mean(values), values[-1]


def _dist_line(label: str, values: Sequence[float]) -> str:
    return (
        f"{label:<26}  p50 {percentile(values, 50):9.1f}   "
        f"p95 {percentile(values, 95):9.1f}   "
        f"p99 {percentile(values, 99):9.1f}   "
        f"max {max(values, default=0.0):9.1f}"
    )


@dataclass
class ServiceReport:
    """Everything one open-loop run produced, with an SLO verdict."""

    traffic: str
    setup: str
    horizon_s: float
    #: One span per scheduled submission, in schedule order.
    records: list[SubmissionSpan]
    #: (sim time, value) samples recorded every ``sample_period_s``.
    backlog: list[tuple[float, float]] = field(default_factory=list)
    queue_depth: list[tuple[float, float]] = field(default_factory=list)
    running_apps: list[tuple[float, float]] = field(default_factory=list)
    targets: Optional[SloTargets] = None

    @classmethod
    def from_events(cls, service_meta: dict, events, registry) -> "ServiceReport":
        """Fold one run into its report: ``service_meta`` is the runner's
        ``service`` header, ``events`` the run's stream (only
        :data:`REPORT_EVENTS` count) and ``registry`` the one those
        events fed, read for the time series. A scheduled submission
        that never arrived is submitted at ``t0 + at``, in flight."""
        events = [e for e in events if isinstance(e, REPORT_EVENTS)]
        spans = {span.name: span for span in build_submission_spans(events)}
        samples = [e for e in events if isinstance(e, ev.ServiceSample)]
        t0 = run_epoch(samples)
        records = [
            spans.get(spec["name"]) or SubmissionSpan(
                spec["name"], tenant=spec["tenant"], workload=spec["kind"],
                submitted_at=t0 + float(spec["at"]),
            )
            for spec in service_meta["schedule"]
        ]
        series = registry.service_series()
        return cls(
            traffic=service_meta["traffic"],
            setup=service_meta["setup"],
            horizon_s=max(samples[-1].rel_t if samples else 0.0,
                          float(service_meta["horizon_s"])),
            records=records,
            backlog=list(series["backlog"].samples),
            queue_depth=list(series["queue_depth"].samples),
            running_apps=list(series["running_apps"].samples),
            targets=slo_targets(service_meta),
        )

    # -- scalar aggregates ------------------------------------------------------

    @property
    def submitted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> list[SubmissionSpan]:
        return [r for r in self.records if r.completed]

    @property
    def rejected(self) -> list[SubmissionSpan]:
        return [r for r in self.records if r.rejected]

    @property
    def unfinished(self) -> list[SubmissionSpan]:
        return [
            r for r in self.records
            if not r.rejected and r.finished_at is None
        ]

    @property
    def failed(self) -> list[SubmissionSpan]:
        return [r for r in self.completed if not r.success]

    @property
    def latencies_s(self) -> list[float]:
        return [r.latency_s for r in self.completed]

    @property
    def queue_waits_s(self) -> list[float]:
        return [
            r.queue_wait_s for r in self.records
            if r.queue_wait_s is not None
        ]

    @property
    def makespans_s(self) -> list[float]:
        return [
            r.makespan_s for r in self.completed
            if r.makespan_s is not None
        ]

    @property
    def rejection_rate(self) -> float:
        return len(self.rejected) / self.submitted if self.submitted else 0.0

    @property
    def throughput_per_h(self) -> float:
        """Completed workflows per simulated hour."""
        if self.horizon_s <= 0:
            return 0.0
        return len(self.completed) * 3600.0 / self.horizon_s

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies_s, q)

    # -- verdict ----------------------------------------------------------------

    def verdicts(self) -> list[tuple[str, bool, float, float]]:
        """(criterion, passed, observed, target) per graded objective."""
        if self.targets is None or self.targets.is_empty():
            return []
        out: list[tuple[str, bool, float, float]] = []
        for q, target in (
            (50, self.targets.p50_s),
            (95, self.targets.p95_s),
            (99, self.targets.p99_s),
        ):
            if target is None:
                continue
            observed = self.latency_percentile(q)
            out.append((f"p{q} latency <= {target:.0f} s",
                        observed <= target, observed, target))
        if self.targets.max_rejection_rate is not None:
            observed = self.rejection_rate
            target = self.targets.max_rejection_rate
            out.append((f"rejection rate <= {target * 100:.1f}%",
                        observed <= target, observed * 100, target * 100))
        return out

    def passed(self) -> bool:
        """True when every graded objective holds (vacuously true)."""
        return all(ok for _, ok, _, _ in self.verdicts())

    # -- rendering --------------------------------------------------------------

    def per_tenant_rows(self) -> list[tuple[str, int, int, int, float, float]]:
        """(tenant, submitted, completed, rejected, p50, p99), sorted."""
        tenants = sorted({r.tenant for r in self.records})
        rows = []
        for tenant in tenants:
            mine = [r for r in self.records if r.tenant == tenant]
            done = [r.latency_s for r in mine if r.completed]
            rows.append((
                tenant,
                len(mine),
                sum(1 for r in mine if r.completed),
                sum(1 for r in mine if r.rejected),
                percentile(done, 50),
                percentile(done, 99),
            ))
        return rows

    def render(self) -> str:
        """The full fixed-width report (deterministic under a seed)."""
        lines = [
            "open-loop service report",
            "========================",
            f"traffic   : {self.traffic}",
            f"setup     : {self.setup}",
            f"horizon   : {self.horizon_s:.0f} s",
            (
                f"submitted : {self.submitted}   "
                f"completed: {len(self.completed)}   "
                f"rejected: {len(self.rejected)}   "
                f"failed: {len(self.failed)}   "
                f"in flight at horizon: {len(self.unfinished)}"
            ),
            "",
            _dist_line("end-to-end latency (s)", self.latencies_s),
            _dist_line("admission wait (s)", self.queue_waits_s),
            _dist_line("makespan (s)", self.makespans_s),
            "",
            f"throughput     : {self.throughput_per_h:.2f} workflows/hour",
            f"rejection rate : {self.rejection_rate * 100:.1f}% "
            f"({len(self.rejected)}/{self.submitted})",
        ]
        for label, samples in (
            ("backlog depth", self.backlog),
            ("admission queue", self.queue_depth),
            ("running apps", self.running_apps),
        ):
            peak, average, final = _series_stats(samples)
            lines.append(
                f"{label:<15}: max {peak:.0f}   mean {average:.2f}   "
                f"final {final:.0f}   ({len(samples)} samples)"
            )
        lines.append("")
        lines.append("per-tenant:")
        lines.append(
            f"  {'tenant':<12} {'sub':>5} {'done':>5} {'rej':>5} "
            f"{'p50(s)':>9} {'p99(s)':>9}"
        )
        for tenant, sub, done, rej, p50, p99 in self.per_tenant_rows():
            lines.append(
                f"  {tenant:<12} {sub:>5} {done:>5} {rej:>5} "
                f"{p50:>9.1f} {p99:>9.1f}"
            )
        verdicts = self.verdicts()
        if verdicts:
            lines.append("")
            lines.append("SLO verdict:")
            for criterion, ok, observed, _ in verdicts:
                status = "PASS" if ok else "FAIL"
                lines.append(
                    f"  {status}  {criterion}  (observed {observed:.1f})"
                )
            lines.append(
                f"  overall: {'PASS' if self.passed() else 'FAIL'}"
            )
        return "\n".join(lines) + "\n"
