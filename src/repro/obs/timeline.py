"""A run's task attempts as a text timeline: one fold over recorded events.

One line per task attempt, bars proportional to wall-clock makespan,
grouped the way the run actually interleaved. Useful when eyeballing
scheduler behaviour (e.g. Fig. 9's stragglers) without leaving the
terminal. Like the other single-workflow views it reads a recorded
event list, the live run's or one decoded from a journal.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs import events as ev

__all__ = ["TIMELINE_EVENTS", "render_timeline"]

#: The events :func:`render_timeline` reads.
TIMELINE_EVENTS = (ev.TaskAttemptFinished,)

#: Columns the whole chart span maps onto.
WIDTH = 60


def render_timeline(
    events: Iterable[ev.ObsEvent], workflow_id: Optional[str] = None
) -> str:
    """Build an ASCII Gantt chart of the task attempts in ``events``.

    Failed attempts render with ``x`` bars. ``workflow_id`` keeps only
    that workflow's attempts.
    """
    rows = [
        (event.t - event.makespan_seconds, event.t, event)
        for event in events
        if isinstance(event, ev.TaskAttemptFinished)
        and (workflow_id is None or event.workflow_id == workflow_id)
    ]
    if not rows:
        return "(no task events recorded)"
    rows.sort(key=lambda row: (row[0], row[2].task.task_id))
    t0 = min(start for start, _end, _event in rows)
    t1 = max(end for _start, end, _event in rows)
    span = max(t1 - t0, 1e-9)
    scale = WIDTH / span

    labels = [f"{event.task.signature}@{event.node_id}" for *_, event in rows]
    label_width = max(len(label) for label in labels)
    lines = [
        f"timeline: {len(rows)} task attempt(s), "
        f"{span:.1f}s span, one column ~ {span / WIDTH:.2f}s"
    ]
    for (start, end, event), label in zip(rows, labels):
        offset = int((start - t0) * scale)
        length = max(1, int((end - start) * scale))
        glyph = "#" if event.success else "x"
        bar = " " * offset + glyph * length
        lines.append(
            f"{label:<{label_width}} |{bar:<{WIDTH}}| "
            f"{end - start:7.1f}s"
        )
    return "\n".join(lines)
