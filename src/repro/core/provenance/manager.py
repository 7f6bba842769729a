"""The Provenance Manager (Sec. 3.5).

Surveys workflow execution, registers records at workflow, task and file
granularity in a pluggable store, and serves the Workflow Scheduler with
up-to-date runtime statistics. The recorded trace holds everything
needed to re-run the workflow, which is why Hi-WAY counts its own traces
as a fourth workflow language.

The trace is a fold over the observability bus (:mod:`repro.obs`): the
handler table of :meth:`ProvenanceManager.handlers` is the only producer
of records, each built from one bus event and stamped with the event's
time. Feeding the events of a decoded journal through a fresh manager's
handlers therefore rebuilds the live trace record for record.

A handler builds each record as a row — one tuple of its values in
:data:`~repro.core.provenance.events.FIELDS` order — and makes no dict:
the store builds record dicts only when they are read. A row's event id
is its counter value, and every successful attempt of one tool shares
one ``stdout`` text, so neither costs a string per record.

Workflow and event ids are allocated from per-manager counters, so two
runs in one process produce identical, re-executable traces.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.provenance.events import (
    FILE_EVENT, TASK_EVENT, WORKFLOW_EVENT, to_jsonl,
)
from repro.core.provenance.stores import ProvenanceStore, TraceFileStore
from repro.obs import events as obs_events

__all__ = ["ProvenanceManager"]


class ProvenanceManager:
    """Records execution events and answers runtime-estimate queries."""

    def __init__(self, store: Optional[ProvenanceStore] = None):
        self.store = store if store is not None else TraceFileStore()
        self._event_ids = itertools.count(1)
        self._workflow_ids = itertools.count(1)
        #: tool -> the ``stdout`` text of its successful attempts.
        self._ok_texts: dict[str, str] = {}

    def allocate_workflow_id(self) -> str:
        """Reserve a fresh workflow id for the AM to stamp on its events."""
        return f"workflow-{next(self._workflow_ids):06d}"

    # -- recording: records from bus events ------------------------------------------

    def handlers(self) -> dict:
        """The handler table to subscribe live or to feed decoded events:
        each handler appends the records its AM event describes, a task
        attempt's record followed by one file record per transfer."""
        return {
            obs_events.WorkflowStarted: self._on_workflow_started,
            obs_events.WorkflowFinished: self._on_workflow_finished,
            obs_events.TaskAttemptFinished: self._on_task_finished,
        }

    def _on_workflow_started(self, event: obs_events.WorkflowStarted) -> None:
        self.store.append((
            event.workflow_id, event.name, event.t, "start", None, True,
            WORKFLOW_EVENT, next(self._event_ids),
        ))

    def _on_workflow_finished(self, event: obs_events.WorkflowFinished) -> None:
        self.store.append((
            event.workflow_id, event.name, event.t, "end",
            event.runtime_seconds, event.success, WORKFLOW_EVENT,
            next(self._event_ids),
        ))

    def _on_task_finished(self, event: obs_events.TaskAttemptFinished) -> None:
        task = event.task
        if event.success:
            stdout = self._ok_texts.get(task.tool)
            if stdout is None:
                stdout = self._ok_texts[task.tool] = f"{task.tool}: ok"
        else:
            stdout = ""
        self.store.append((
            event.workflow_id, task.task_id, task.signature, task.tool,
            task.command, event.node_id, event.t, event.makespan_seconds,
            tuple(task.inputs), tuple(task.outputs),
            tuple(event.output_sizes.items()), event.success, event.attempt,
            stdout, event.stderr, TASK_EVENT, next(self._event_ids),
        ))
        for report in event.transfers:
            self.store.append((
                event.workflow_id, task.task_id, report.path, report.size_mb,
                report.seconds, report.direction, report.node_id, event.t,
                report.local_fraction, FILE_EVENT, next(self._event_ids),
            ))

    # -- scheduler queries (Sec. 3.4) --------------------------------------------

    def runtime_estimate(self, signature: str, node_id: str) -> float:
        """Expected runtime of ``signature`` on ``node_id``.

        The paper's strategy: always use the latest observed runtime; if
        the pair has never been observed, assume zero "to encourage
        trying out new assignments".
        """
        latest = self.store.latest_task_runtime(signature, node_id)
        return 0.0 if latest is None else latest

    def has_observation(self, signature: str, node_id: str) -> bool:
        """Whether the (signature, node) pair has been observed at all."""
        return self.store.latest_task_runtime(signature, node_id) is not None

    def mean_runtime(self, signature: str, node_ids: list[str]) -> float:
        """Mean estimate across ``node_ids`` (used for HEFT ranks)."""
        if not node_ids:
            return 0.0
        estimates = [self.runtime_estimate(signature, n) for n in node_ids]
        return sum(estimates) / len(node_ids)

    # -- trace export ---------------------------------------------------------------

    def trace_jsonl(self) -> str:
        """The full trace as JSON lines (re-executable, Sec. 3.5)."""
        return to_jsonl(self.store.records())
