"""Render a workflow run's provenance as a text timeline.

A small analysis utility over the Sec. 3.5 provenance records: one line
per task, bars proportional to wall-clock makespan, grouped the way the
run actually interleaved. Useful when eyeballing scheduler behaviour
(e.g. Fig. 9's stragglers) without leaving the terminal.

The provenance store is itself filled from the observability bus (the
provenance manager subscribes to task events), so this chart is a fold
over the same event stream every other view reads.
"""

from __future__ import annotations

from typing import Optional

from repro.core.provenance.stores import ProvenanceStore

__all__ = ["render_timeline"]


def render_timeline(
    store: ProvenanceStore,
    workflow_id: Optional[str] = None,
    width: int = 60,
    include_failures: bool = True,
) -> str:
    """Build an ASCII Gantt chart from task provenance records.

    ``width`` is the number of columns the busiest instant maps onto.
    Failed attempts render with ``x`` bars when ``include_failures``.
    """
    rows = []
    for record in store.records(kind="task", workflow_id=workflow_id):
        end = record["timestamp"]
        rows.append((end - record["makespan_seconds"], end, record))
    # Drop skipped rows up front so label alignment and the chart span
    # are computed over exactly the rows that will be printed.
    if not include_failures:
        rows = [row for row in rows if row[2]["success"]]
    if not rows:
        return "(no task events recorded)"
    rows = sorted(rows, key=lambda row: (row[0], row[2]["task_id"]))
    t0 = min(start for start, _end, _r in rows)
    t1 = max(end for _start, end, _r in rows)
    span = max(t1 - t0, 1e-9)
    scale = width / span

    label_width = max(
        len(f"{r['signature']}@{r['node_id']}") for _s, _e, r in rows
    )
    lines = [
        f"timeline: {len(rows)} task attempt(s), "
        f"{span:.1f}s span, one column ~ {span / width:.2f}s"
    ]
    for start, end, record in rows:
        offset = int((start - t0) * scale)
        length = max(1, int((end - start) * scale))
        glyph = "#" if record["success"] else "x"
        bar = " " * offset + glyph * length
        label = f"{record['signature']}@{record['node_id']}"
        lines.append(
            f"{label:<{label_width}} |{bar:<{width}}| "
            f"{end - start:7.1f}s"
        )
    return "\n".join(lines)
