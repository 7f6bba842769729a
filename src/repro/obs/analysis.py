"""Critical-path and bottleneck analysis over the event stream.

:func:`analyze` folds a recorded event list — the live run's or one
decoded from a journal — and reconstructs, per workflow:

* a **task span** per completed task — dispatch, start, finish, split
  into scheduler/allocation wait, stage-in, compute and stage-out;
* the dependency DAG, recovered from each task's input/output files;
* the **critical path** — walking back from the last-finishing task,
  always to the parent whose output arrived last;
* per-task **slack** — how much later a task could have finished
  without moving the workflow's end (backward pass over the DAG with
  observed durations);
* per-node utilisation (task-busy seconds over the workflow window).

:func:`render_report` turns one workflow's analysis into the text
report behind ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs import events as ev

__all__ = ["ANALYSIS_EVENTS", "TaskSpan", "WorkflowAnalysis", "analyze",
           "latest_finished", "render_report"]


@dataclass
class TaskSpan:
    """Reconstructed timeline of one completed task."""

    task_id: str
    tool: str
    node_id: str
    dispatched_at: float
    started_at: float
    finished_at: float
    attempts: int = 1
    inputs: tuple = ()
    outputs: tuple = ()
    stage_in_seconds: float = 0.0
    stage_out_seconds: float = 0.0
    #: Filled by the backward pass: latest finish that would not have
    #: delayed the workflow, minus the actual finish.
    slack_seconds: float = 0.0
    on_critical_path: bool = False

    @property
    def makespan_seconds(self) -> float:
        return self.finished_at - self.started_at

    @property
    def wait_seconds(self) -> float:
        """Dispatch-to-start: scheduler queueing plus allocation wait."""
        return max(self.started_at - self.dispatched_at, 0.0)

    @property
    def compute_seconds(self) -> float:
        """Makespan not spent moving files (tool work + scratch I/O)."""
        return max(
            self.makespan_seconds
            - self.stage_in_seconds
            - self.stage_out_seconds,
            0.0,
        )


@dataclass
class WorkflowAnalysis:
    """One workflow's reconstructed execution structure."""

    workflow_id: str
    name: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    success: bool = True
    complete: bool = False
    spans: dict[str, TaskSpan] = field(default_factory=dict)
    #: task_id -> parent task ids (file producer/consumer edges).
    parents: dict[str, list[str]] = field(default_factory=dict)
    #: Task ids along the critical path, in execution order.
    critical_path: list[str] = field(default_factory=list)

    @property
    def makespan_seconds(self) -> float:
        return self.finished_at - self.started_at

    def critical_path_seconds(self) -> float:
        """Wall-clock covered by the critical path (incl. its waits)."""
        if not self.critical_path:
            return 0.0
        first = self.spans[self.critical_path[0]]
        last = self.spans[self.critical_path[-1]]
        return last.finished_at - first.dispatched_at

    def breakdown(self) -> dict[str, float]:
        """Total seconds per phase, summed over all completed tasks."""
        out = {"wait": 0.0, "stage_in": 0.0, "compute": 0.0, "stage_out": 0.0}
        for span in self.spans.values():
            out["wait"] += span.wait_seconds
            out["stage_in"] += span.stage_in_seconds
            out["compute"] += span.compute_seconds
            out["stage_out"] += span.stage_out_seconds
        return out

    def node_utilization(self) -> dict[str, dict[str, float]]:
        """Per node: task-busy seconds, busy fraction and task count."""
        duration = self.makespan_seconds
        by_node: dict[str, dict[str, float]] = {}
        for span in self.spans.values():
            entry = by_node.setdefault(
                span.node_id, {"busy_seconds": 0.0, "tasks": 0.0}
            )
            entry["busy_seconds"] += span.makespan_seconds
            entry["tasks"] += 1
        for entry in by_node.values():
            entry["busy_fraction"] = (
                entry["busy_seconds"] / duration if duration > 0 else 0.0
            )
        return by_node


#: The events :func:`analyze` reads.
ANALYSIS_EVENTS = (
    ev.WorkflowStarted,
    ev.WorkflowFinished,
    ev.TaskDispatched,
    ev.TaskAttemptFinished,
)


def analyze(events: Iterable[ev.ObsEvent]) -> dict[str, WorkflowAnalysis]:
    """Every workflow of ``events`` by id, in start order.

    A workflow whose ``WorkflowFinished`` is among the events is
    finalised (``complete``): its DAG, critical path and slacks are
    filled in.
    """
    workflows: dict[str, WorkflowAnalysis] = {}
    dispatch_t: dict[tuple[str, str], float] = {}
    for event in events:
        if isinstance(event, ev.WorkflowStarted):
            workflows[event.workflow_id] = WorkflowAnalysis(
                workflow_id=event.workflow_id,
                name=event.name,
                started_at=event.t,
            )
        elif isinstance(event, ev.TaskDispatched):
            dispatch_t[(event.workflow_id, event.task_id)] = event.t
        elif isinstance(event, ev.TaskAttemptFinished):
            _on_attempt(workflows.get(event.workflow_id), dispatch_t, event)
        elif isinstance(event, ev.WorkflowFinished):
            analysis = workflows.get(event.workflow_id)
            if analysis is not None:
                analysis.finished_at = event.t
                analysis.success = event.success
                _finalise(analysis)
    return workflows


def latest_finished(workflows: dict[str, WorkflowAnalysis]) -> WorkflowAnalysis:
    """The last workflow to finish, else the last to start."""
    if not workflows:
        raise KeyError("no workflows observed")
    finished = [w for w in workflows.values() if w.complete]
    return (finished or list(workflows.values()))[-1]


def _on_attempt(
    analysis: Optional[WorkflowAnalysis],
    dispatch_t: dict[tuple[str, str], float],
    event: ev.TaskAttemptFinished,
) -> None:
    if analysis is None or event.task is None:
        return
    task = event.task
    existing = analysis.spans.get(task.task_id)
    attempts = (existing.attempts + 1) if existing is not None else 1
    if not event.success:
        # Keep a failed attempt only as an attempt count; spans
        # describe the attempt that actually produced the outputs.
        if existing is not None:
            existing.attempts = attempts
        else:
            analysis.spans[task.task_id] = TaskSpan(
                task_id=task.task_id, tool=task.tool,
                node_id=event.node_id,
                dispatched_at=dispatch_t.get(
                    (event.workflow_id, task.task_id), event.t
                ),
                started_at=event.t, finished_at=event.t,
            )
        return
    dispatched = dispatch_t.get(
        (event.workflow_id, task.task_id),
        event.t - event.makespan_seconds,
    )
    # Inputs (and outputs) move in parallel, so a phase's wall clock
    # is its slowest transfer, not the sum.
    staged = {"in": 0.0, "out": 0.0}
    for report in event.transfers:
        staged[report.direction] = max(staged[report.direction], report.seconds)
    analysis.spans[task.task_id] = TaskSpan(
        task_id=task.task_id,
        tool=task.tool,
        node_id=event.node_id,
        dispatched_at=dispatched,
        started_at=event.t - event.makespan_seconds,
        finished_at=event.t,
        attempts=attempts,
        inputs=tuple(task.inputs),
        outputs=tuple(task.outputs),
        stage_in_seconds=staged["in"],
        stage_out_seconds=staged["out"],
    )


def _finalise(analysis: WorkflowAnalysis) -> None:
    """Recover the DAG, critical path and slacks for one workflow."""
    spans = analysis.spans
    producer: dict[str, str] = {}
    for span in spans.values():
        for path in span.outputs:
            producer[path] = span.task_id
    parents: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {task_id: [] for task_id in spans}
    for span in spans.values():
        seen: list[str] = []
        for path in span.inputs:
            parent = producer.get(path)
            if parent is not None and parent != span.task_id and parent not in seen:
                seen.append(parent)
                children[parent].append(span.task_id)
        parents[span.task_id] = seen
    analysis.parents = parents

    if spans:
        # Critical path: from the last finisher, walk back through
        # the parent whose output arrived last (ties: first in
        # input order, which is deterministic).
        end_task = max(
            spans.values(), key=lambda s: (s.finished_at, s.task_id)
        ).task_id
        path = [end_task]
        while parents[path[-1]]:
            path.append(max(
                parents[path[-1]],
                key=lambda task_id: spans[task_id].finished_at,
            ))
        path.reverse()
        analysis.critical_path = path
        for task_id in path:
            spans[task_id].on_critical_path = True

        # Slack: latest finish keeping the observed workflow end,
        # assuming each task needs its observed start->finish span
        # and children could start the instant their parents finish.
        end_at = max(span.finished_at for span in spans.values())
        latest_finish: dict[str, float] = {}
        for span in sorted(
            spans.values(), key=lambda s: -s.finished_at
        ):
            bounds = [
                latest_finish[child] - spans[child].makespan_seconds
                for child in children[span.task_id]
            ]
            latest_finish[span.task_id] = min(bounds) if bounds else end_at
            span.slack_seconds = max(
                latest_finish[span.task_id] - span.finished_at, 0.0
            )
    analysis.complete = True


def render_report(
    analysis: WorkflowAnalysis,
    registry=None,
    max_tasks: int = 20,
) -> str:
    """Text report: critical path, slack, phase breakdown, utilisation.

    ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`) adds
    the HDFS locality hit rate and retry totals when provided. At most
    ``max_tasks`` rows appear in the slack table (longest tasks first).
    """
    lines: list[str] = []
    title = analysis.name or analysis.workflow_id
    outcome = "succeeded" if analysis.success else "FAILED"
    lines.append(
        f"workflow {title!r} ({analysis.workflow_id}) {outcome} in "
        f"{analysis.makespan_seconds:.1f}s, {len(analysis.spans)} task(s)"
    )

    if analysis.critical_path:
        covered = analysis.critical_path_seconds()
        share = (
            covered / analysis.makespan_seconds * 100
            if analysis.makespan_seconds > 0 else 0.0
        )
        lines.append("")
        lines.append(
            f"critical path: {len(analysis.critical_path)} task(s), "
            f"{covered:.1f}s ({share:.0f}% of makespan)"
        )
        for task_id in analysis.critical_path:
            span = analysis.spans[task_id]
            lines.append(
                f"  {span.task_id} [{span.tool}] on {span.node_id}: "
                f"{span.started_at:.1f} -> {span.finished_at:.1f}s "
                f"(wait {span.wait_seconds:.1f}, "
                f"stage-in {span.stage_in_seconds:.1f}, "
                f"compute {span.compute_seconds:.1f}, "
                f"stage-out {span.stage_out_seconds:.1f})"
            )

    if analysis.spans:
        lines.append("")
        lines.append("per-task slack (longest makespans first):")
        header = (
            f"  {'task':<24} {'tool':<12} {'node':<12} "
            f"{'makespan':>9} {'wait':>7} {'slack':>8}  crit"
        )
        lines.append(header)
        by_length = sorted(
            analysis.spans.values(),
            key=lambda s: (-s.makespan_seconds, s.task_id),
        )
        for span in by_length[:max_tasks]:
            lines.append(
                f"  {span.task_id:<24} {span.tool:<12} {span.node_id:<12} "
                f"{span.makespan_seconds:>8.1f}s {span.wait_seconds:>6.1f}s "
                f"{span.slack_seconds:>7.1f}s  "
                f"{'*' if span.on_critical_path else ''}"
            )
        if len(by_length) > max_tasks:
            lines.append(f"  ... {len(by_length) - max_tasks} more task(s)")

        breakdown = analysis.breakdown()
        total = sum(breakdown.values()) or 1.0
        lines.append("")
        lines.append("time breakdown (task-seconds across all tasks):")
        for phase in ("wait", "stage_in", "compute", "stage_out"):
            seconds = breakdown[phase]
            lines.append(
                f"  {phase.replace('_', '-'):<10} {seconds:>9.1f}s "
                f"({seconds / total * 100:5.1f}%)"
            )

        lines.append("")
        lines.append("per-node utilisation (task-busy share of makespan):")
        utilization = analysis.node_utilization()
        for node_id in sorted(utilization):
            entry = utilization[node_id]
            lines.append(
                f"  {node_id:<12} {entry['busy_fraction'] * 100:5.1f}% busy, "
                f"{int(entry['tasks'])} task(s), "
                f"{entry['busy_seconds']:.1f}s"
            )

    if registry is not None:
        lines.append("")
        lines.append(
            f"hdfs read locality hit rate: {registry.read_locality():.3f}"
        )
        retries = registry.value("hiway_task_retries_total")
        if retries:
            lines.append(f"task retries: {int(retries)}")
    return "\n".join(lines)
