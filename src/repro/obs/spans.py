"""Per-submission span trees built from the event stream.

The Chrome trace (:func:`~repro.obs.tracer.trace_records`) groups
spans by *infrastructure* (containers per node, workflows in one
process); an operator debugging one slow submission wants the opposite
grouping — everything that happened to *this* submission, in causal
order:

::

    submission wf-0007 (tenant genomics)
    ├─ admission wait        WorkflowSubmitted → WorkflowStarted
    └─ execution             WorkflowStarted  → WorkflowFinished
       ├─ attempt bwa-0 #1   (start → finish, per task attempt)
       ├─ attempt bwa-1 #1
       └─ ...

:func:`build_submission_spans` folds a chronological event stream (live
or from a journal) into one :class:`SubmissionSpan` per submission.
Two exports consume the trees: :func:`render_submission` (the
``explain-submission`` CLI) and :func:`to_chrome_trace` — one trace
*process* per tenant, one *thread* per submission, so Perfetto shows
the service run grouped exactly like the per-tenant SLO report. The
Chrome export goes through the same formatter as that trace
(:func:`~repro.obs.tracer.chrome_trace_records`).

Workflows that never passed through the service harness (plain ``run``
invocations, Tez or CloudMan engines) still produce a tree: the
submission span is synthesised at ``WorkflowStarted`` and the tenant
comes from ``ApplicationRegistered`` when available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs import events as ev

__all__ = [
    "AttemptSpan",
    "SubmissionSpan",
    "build_submission_spans",
    "render_submission",
    "to_chrome_trace",
]


@dataclass
class AttemptSpan:
    """One task attempt inside a submission's execution span."""

    task_id: str
    tool: str
    node_id: str
    attempt: int
    start: float
    end: float
    success: bool
    #: Dispatch time of the task (for queue-wait attribution); None
    #: when the dispatch event predates the collector.
    dispatched_at: Optional[float] = None

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def wait_s(self) -> Optional[float]:
        """Dispatch-to-start scheduler/allocation wait."""
        if self.dispatched_at is None:
            return None
        return max(self.start - self.dispatched_at, 0.0)


@dataclass
class SubmissionSpan:
    """The full life of one submission, as nested intervals.

    ``submitted_at`` opens the tree; ``admitted_at`` (when present)
    splits it into the admission-queue span and the execution span;
    ``finished_at`` closes it. Times are absolute simulated seconds.
    """

    name: str
    tenant: str = ""
    workload: str = ""
    workflow_id: str = ""
    submitted_at: float = 0.0
    admitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    success: bool = False
    rejected: bool = False
    attempts: list[AttemptSpan] = field(default_factory=list)
    retries: int = 0

    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def makespan_s(self) -> Optional[float]:
        if self.admitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.admitted_at

    @property
    def completed(self) -> bool:
        return self.finished_at is not None and not self.rejected

    @property
    def outcome(self) -> str:
        if self.rejected:
            return "REJECTED"
        if self.finished_at is None:
            return "IN FLIGHT"
        return "SUCCEEDED" if self.success else "FAILED"


def build_submission_spans(
    events: Iterable[ev.ObsEvent],
) -> list[SubmissionSpan]:
    """Fold a chronological event stream into per-submission trees.

    Returns submissions in first-seen order. Robust to partial streams:
    a horizon-truncated journal yields trees with ``finished_at=None``
    and the renderers mark them in flight.
    """
    by_name: dict[str, SubmissionSpan] = {}
    by_workflow: dict[str, SubmissionSpan] = {}
    tenants: dict[str, str] = {}
    dispatched: dict[tuple[str, str], float] = {}
    order: list[SubmissionSpan] = []

    def _submission(name: str, start: float) -> SubmissionSpan:
        span = by_name.get(name)
        if span is None:
            span = SubmissionSpan(name=name, submitted_at=start)
            by_name[name] = span
            order.append(span)
        return span

    for event in events:
        if isinstance(event, ev.WorkflowSubmitted):
            span = _submission(event.name, event.t)
            span.tenant = event.tenant or span.tenant
            span.workload = event.workload or span.workload
        elif isinstance(event, ev.ApplicationRegistered):
            if event.name and event.tenant:
                tenants[event.name] = event.tenant
        elif isinstance(event, ev.WorkflowStarted):
            span = _submission(event.name or event.workflow_id, event.t)
            if span.admitted_at is None:
                span.admitted_at = event.t
            span.workflow_id = event.workflow_id
            by_workflow[event.workflow_id] = span
        elif isinstance(event, ev.TaskDispatched):
            dispatched[(event.workflow_id, event.task_id)] = event.t
        elif isinstance(event, ev.TaskRetried):
            span = by_workflow.get(event.workflow_id)
            if span is not None:
                span.retries += 1
        elif isinstance(event, ev.TaskAttemptFinished):
            span = by_workflow.get(event.workflow_id)
            if span is None or event.task is None:
                continue
            span.attempts.append(AttemptSpan(
                task_id=event.task.task_id,
                tool=event.task.tool,
                node_id=event.node_id,
                attempt=event.attempt,
                start=event.t - event.makespan_seconds,
                end=event.t,
                success=event.success,
                dispatched_at=dispatched.get(
                    (event.workflow_id, event.task.task_id)
                ),
            ))
        elif isinstance(event, ev.WorkflowFinished):
            span = by_workflow.get(event.workflow_id)
            if span is not None:
                span.finished_at = event.t
                span.success = event.success
        elif isinstance(event, ev.SubmissionFinished):
            span = _submission(event.name, event.t)
            span.finished_at = event.t
            span.success = event.success
            span.rejected = event.rejected
    for span in order:
        if not span.tenant:
            span.tenant = tenants.get(span.name, "")
    return order


def render_submission(span: SubmissionSpan, max_attempts: int = 30) -> str:
    """One submission's tree as fixed-width text (explain-submission)."""
    t0 = span.submitted_at
    header = f"submission {span.name}"
    detail = ", ".join(
        part for part in (
            f"tenant {span.tenant}" if span.tenant else "",
            span.workload,
        ) if part
    )
    if detail:
        header += f" ({detail})"
    lines = [f"{header}: {span.outcome}"]
    if span.latency_s is not None:
        lines.append(
            f"  submitted at {t0:.1f}s, finished at {span.finished_at:.1f}s "
            f"(end-to-end {span.latency_s:.1f}s)"
        )
    else:
        lines.append(f"  submitted at {t0:.1f}s, not finished")
    if span.queue_wait_s is not None:
        lines.append(f"  admission wait: {span.queue_wait_s:.1f}s")
    if span.rejected:
        lines.append("  rejected by admission control (no execution span)")
        return "\n".join(lines)
    if span.makespan_s is not None:
        lines.append(
            f"  execution ({span.workflow_id}): "
            f"{span.makespan_s:.1f}s, "
            f"{len(span.attempts)} attempts "
            f"({sum(1 for a in span.attempts if not a.success)} failed, "
            f"{span.retries} retries)"
        )
    attempts = sorted(span.attempts, key=lambda a: (a.start, a.task_id))
    shown = attempts[:max_attempts]
    for attempt in shown:
        wait = (
            f"  wait {attempt.wait_s:7.1f}s"
            if attempt.wait_s is not None else ""
        )
        status = "" if attempt.success else "  FAILED"
        lines.append(
            f"    +{attempt.start - t0:8.1f}s  {attempt.duration_s:8.1f}s  "
            f"{attempt.task_id} ({attempt.tool}) on {attempt.node_id} "
            f"#{attempt.attempt}{wait}{status}"
        )
    if len(attempts) > len(shown):
        lines.append(f"    ... {len(attempts) - len(shown)} more attempts")
    return "\n".join(lines)


def chrome_trace_events(spans: Iterable[SubmissionSpan]) -> list[dict]:
    """Chrome ``trace_event`` dicts: tenant = process, submission = thread."""
    from repro.obs.tracer import chrome_trace_records

    spans = list(spans)
    tenant_names = sorted({span.tenant or "untenanted" for span in spans})
    pids = {tenant: index + 1 for index, tenant in enumerate(tenant_names)}
    threads: list[tuple[int, int, str]] = []
    timed: list[tuple] = []
    tids: dict[str, int] = {}
    for span in spans:
        tenant = span.tenant or "untenanted"
        pid = pids[tenant]
        tid = tids[tenant] = tids.get(tenant, 0) + 1
        threads.append((pid, tid, span.name))
        end = span.finished_at
        incomplete = end is None
        if incomplete:
            end = max(
                [a.end for a in span.attempts] + [span.submitted_at]
            )
        args = {"tenant": span.tenant, "workload": span.workload,
                "outcome": span.outcome}
        if incomplete:
            args["incomplete"] = True
        timed.append((span.submitted_at, end - span.submitted_at,
                      span.name, "submission", pid, tid, args))
        if span.admitted_at is not None:
            timed.append((span.submitted_at, span.queue_wait_s,
                          "admission wait", "admission", pid, tid, None))
            timed.append((span.admitted_at, end - span.admitted_at,
                          "execution", "execution", pid, tid,
                          {"workflow_id": span.workflow_id}))
        for attempt in sorted(
            span.attempts, key=lambda a: (a.start, a.task_id)
        ):
            timed.append((attempt.start, attempt.duration_s,
                          f"{attempt.task_id} ({attempt.tool})", "attempt",
                          pid, tid,
                          {"node": attempt.node_id,
                           "attempt": attempt.attempt,
                           "success": attempt.success}))
    return chrome_trace_records(
        ((pid, f"tenant {tenant}") for tenant, pid in pids.items()),
        threads,
        timed,
    )


def to_chrome_trace(spans: Iterable[SubmissionSpan]) -> str:
    """Serialise span trees as Chrome/Perfetto-loadable JSON."""
    from repro.obs.tracer import dump_chrome_trace

    return dump_chrome_trace(chrome_trace_events(spans))
