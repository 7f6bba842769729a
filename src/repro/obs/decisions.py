"""Scheduler decision audit: record *why* each task landed where it did.

Every scheduling policy publishes a
:class:`~repro.obs.events.SchedulingDecision` for each placement it
makes — the chosen pairing plus the scored candidate set it weighed.
The audit is the list of those events, live or decoded from a journal;
:func:`explain` accounts for any placement after the fact, which is what
provenance-centric related work asks of execution traces: enough
infrastructure context to justify and reproduce decisions, not just
outcomes. The functions take any event list and read only its
decisions.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.events import ObsEvent, SchedulingDecision

__all__ = ["DECISION_EVENTS", "decisions_for", "explain", "task_ids"]

#: The events the audit reads. Policies score the rejected candidates
#: only while someone subscribes to these.
DECISION_EVENTS = (SchedulingDecision,)


def _fmt_score(score: float) -> str:
    return f"{score:.6g}"


def task_ids(
    events: Iterable[ObsEvent], workflow_id: Optional[str] = None
) -> list[str]:
    """Distinct task ids with at least one decision, in event order.

    With ``workflow_id`` only that workflow's decisions count — needed
    once several AMs share one installation (``run_many``).
    """
    return list(dict.fromkeys(
        d.task_id for d in events
        if isinstance(d, SchedulingDecision)
        and (workflow_id is None or d.workflow_id == workflow_id)
    ))


def decisions_for(
    events: Iterable[ObsEvent], task_id: str, workflow_id: Optional[str] = None
) -> list[SchedulingDecision]:
    """All decisions about ``task_id``, in event order."""
    return [
        d
        for d in events
        if isinstance(d, SchedulingDecision)
        and d.task_id == task_id
        and (workflow_id is None or d.workflow_id == workflow_id)
    ]


def explain(
    events: Iterable[ObsEvent], task_id: str, workflow_id: Optional[str] = None
) -> str:
    """Human-readable account of every decision about ``task_id``.

    Names the policy, the chosen node and the full scored candidate
    set; raises ``KeyError`` when the task was never decided on.
    ``workflow_id`` restricts the account to one concurrent
    workflow's decisions.
    """
    decisions = decisions_for(events, task_id, workflow_id=workflow_id)
    if not decisions:
        raise KeyError(task_id)
    lines: list[str] = []
    for decision in decisions:
        lines.append(
            f"task {decision.task_id}: {decision.policy} [{decision.kind}]"
            f" chose node {decision.node_id} at t={decision.t:.3f}s"
            + (f" ({decision.reason})" if decision.reason else "")
        )
        if not decision.candidates:
            continue
        chosen_key = (
            decision.task_id if decision.candidate_kind == "task"
            else decision.node_id
        )
        lines.append(
            f"  candidates ({decision.candidate_kind}s scored by "
            f"{decision.score_name}, {decision.better} wins):"
        )
        for key, score in decision.candidates:
            marker = "*" if key == chosen_key else " "
            lines.append(f"   {marker} {key:<24} {_fmt_score(score)}")
    return "\n".join(lines)
