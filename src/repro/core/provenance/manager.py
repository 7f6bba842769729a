"""The Provenance Manager (Sec. 3.5).

Surveys workflow execution, registers events at workflow, task and file
granularity in a pluggable store, and serves the Workflow Scheduler with
up-to-date runtime statistics. The recorded trace holds everything
needed to re-run the workflow, which is why Hi-WAY counts its own traces
as a fourth workflow language.

Since the observability refactor the manager is a *subscriber* of the
cluster-wide event bus (:mod:`repro.obs`): the AM publishes typed
workflow/task/file events and the handler table of
:meth:`ProvenanceManager.handlers` bridges them into the store. The
direct recording methods remain the public API (and are what the
bridge calls), so stores see byte-identical records.

Workflow and event ids are allocated from per-manager counters, so two
runs in one process produce identical, re-executable traces.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.provenance.events import FileEvent, TaskEvent, WorkflowEvent
from repro.core.provenance.stores import ProvenanceStore, TraceFileStore
from repro.hdfs.filesystem import FileTransferReport
from repro.obs import events as obs_events
from repro.sim.engine import Environment
from repro.workflow.model import TaskSpec

__all__ = ["ProvenanceManager"]


class ProvenanceManager:
    """Records execution events and answers runtime-estimate queries."""

    def __init__(self, env: Environment, store: Optional[ProvenanceStore] = None):
        self.env = env
        self.store = store if store is not None else TraceFileStore()
        self._event_ids = itertools.count(1)
        self._workflow_ids = itertools.count(1)
        #: Workflow ids this manager allocated; bus events for other
        #: managers' workflows (possible when two installations share a
        #: cluster) are ignored by the bridge handlers.
        self._known_workflows: set[str] = set()

    def _next_event_id(self) -> str:
        return f"event-{next(self._event_ids):08d}"

    # -- bus bridge (the observability spine) --------------------------------------

    def handlers(self) -> dict:
        """The bridge's handler table, for the installation to subscribe.

        The AM publishes
        :class:`~repro.obs.events.WorkflowStarted` /
        :class:`~repro.obs.events.WorkflowFinished` /
        :class:`~repro.obs.events.TaskAttemptFinished` /
        :class:`~repro.obs.events.FileStaged` and this bridge persists
        them through the unchanged recording methods below.
        """
        return {
            obs_events.WorkflowStarted: self._on_workflow_started,
            obs_events.WorkflowFinished: self._on_workflow_finished,
            obs_events.TaskAttemptFinished: self._on_task_finished,
            obs_events.FileStaged: self._on_file_staged,
        }

    def _on_workflow_started(self, event: obs_events.WorkflowStarted) -> None:
        if event.workflow_id in self._known_workflows:
            self.workflow_started(event.name, workflow_id=event.workflow_id)

    def _on_workflow_finished(self, event: obs_events.WorkflowFinished) -> None:
        if event.workflow_id in self._known_workflows:
            self.workflow_finished(
                event.workflow_id, event.name, event.runtime_seconds, event.success
            )

    def _on_task_finished(self, event: obs_events.TaskAttemptFinished) -> None:
        if event.workflow_id in self._known_workflows:
            self.task_finished(
                event.workflow_id,
                event.task,
                event.node_id,
                event.makespan_seconds,
                event.output_sizes,
                success=event.success,
                attempt=event.attempt,
                stderr=event.stderr,
            )

    def _on_file_staged(self, event: obs_events.FileStaged) -> None:
        if event.workflow_id in self._known_workflows:
            self.file_moved(event.workflow_id, event.task, event.report)

    # -- recording -------------------------------------------------------------

    def allocate_workflow_id(self) -> str:
        """Reserve a fresh workflow id without opening its record.

        The AM allocates the id first so it can embed it in the bus
        events whose bridge (above) then writes the actual records.
        """
        workflow_id = f"workflow-{next(self._workflow_ids):06d}"
        self._known_workflows.add(workflow_id)
        return workflow_id

    def workflow_started(
        self, name: str, workflow_id: Optional[str] = None
    ) -> str:
        """Open a workflow record; returns the workflow id."""
        if workflow_id is None:
            workflow_id = self.allocate_workflow_id()
        self._known_workflows.add(workflow_id)
        self.store.append(
            WorkflowEvent(
                workflow_id=workflow_id,
                workflow_name=name,
                timestamp=self.env.now,
                phase="start",
                event_id=self._next_event_id(),
            )
        )
        return workflow_id

    def workflow_finished(
        self, workflow_id: str, name: str, runtime_seconds: float, success: bool
    ) -> None:
        """Close a workflow record with its total execution time."""
        self.store.append(
            WorkflowEvent(
                workflow_id=workflow_id,
                workflow_name=name,
                timestamp=self.env.now,
                phase="end",
                runtime_seconds=runtime_seconds,
                success=success,
                event_id=self._next_event_id(),
            )
        )

    def task_finished(
        self,
        workflow_id: str,
        task: TaskSpec,
        node_id: str,
        makespan_seconds: float,
        output_sizes: dict[str, float],
        success: bool,
        attempt: int,
        stderr: str = "",
    ) -> None:
        """Record one task attempt's outcome."""
        self.store.append(
            TaskEvent(
                workflow_id=workflow_id,
                task_id=task.task_id,
                signature=task.signature,
                tool=task.tool,
                command=task.command,
                node_id=node_id,
                timestamp=self.env.now,
                makespan_seconds=makespan_seconds,
                inputs=list(task.inputs),
                outputs=list(task.outputs),
                output_sizes=dict(output_sizes),
                success=success,
                attempt=attempt,
                stdout="" if not success else f"{task.tool}: ok",
                stderr=stderr,
                event_id=self._next_event_id(),
            )
        )

    def file_moved(
        self, workflow_id: str, task: TaskSpec, report: FileTransferReport
    ) -> None:
        """Record a stage-in or stage-out of one file."""
        self.store.append(
            FileEvent(
                workflow_id=workflow_id,
                task_id=task.task_id,
                path=report.path,
                size_mb=report.size_mb,
                transfer_seconds=report.seconds,
                direction=report.direction,
                node_id=report.node_id,
                timestamp=self.env.now,
                local_fraction=report.local_fraction,
                event_id=self._next_event_id(),
            )
        )

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
        return sum(self.runtime_estimate(signature, n) for n in node_ids) / len(
            node_ids
        )

    def workflow_summary(self, workflow_id: str) -> dict:
        """Aggregate one run's provenance into a report dictionary.

        Per task signature: invocation count, mean/max makespan, nodes
        used; plus the run's total data moved in and out of HDFS. The
        kind of query the paper highlights database-backed provenance
        stores for.
        """
        tasks = self.store.records(kind="task", workflow_id=workflow_id)
        files = self.store.records(kind="file", workflow_id=workflow_id)
        by_signature: dict[str, dict] = {}
        for record in tasks:
            if not record["success"]:
                continue
            entry = by_signature.setdefault(record["signature"], {
                "count": 0, "total_seconds": 0.0, "max_seconds": 0.0,
                "nodes": set(),
            })
            entry["count"] += 1
            entry["total_seconds"] += record["makespan_seconds"]
            entry["max_seconds"] = max(
                entry["max_seconds"], record["makespan_seconds"]
            )
            entry["nodes"].add(record["node_id"])
        for entry in by_signature.values():
            entry["mean_seconds"] = entry["total_seconds"] / entry["count"]
            entry["nodes"] = sorted(entry["nodes"])
        return {
            "workflow_id": workflow_id,
            "tasks_succeeded": sum(1 for r in tasks if r["success"]),
            "tasks_failed": sum(1 for r in tasks if not r["success"]),
            "signatures": by_signature,
            "stage_in_mb": sum(
                r["size_mb"] for r in files if r["direction"] == "in"
            ),
            "stage_out_mb": sum(
                r["size_mb"] for r in files if r["direction"] == "out"
            ),
            "remote_in_mb": sum(
                r["size_mb"] * (1 - r["local_fraction"])
                for r in files
                if r["direction"] == "in"
            ),
        }

    # -- trace export ---------------------------------------------------------------

    def trace_jsonl(self) -> str:
        """The full trace as JSON lines (re-executable, Sec. 3.5).

        Only available for stores that retain raw records; all built-in
        stores do.
        """
        records = self.store.records()
        import json

        return "\n".join(json.dumps(record, sort_keys=True) for record in records)
