"""Workflow scheduler interface (Sec. 3.4).

The Workflow Scheduler receives ready tasks from the Workflow Driver and
answers one question whenever YARN has allocated a container: *which task
should run in this container?* Two families exist:

* **queue schedulers** (FCFS, data-aware) bind tasks to nodes late — any
  allocated container will do, the scheduler picks the best waiting task
  for the container's node;
* **static schedulers** (round-robin, HEFT) pre-compute a full
  task-to-node assignment at workflow onset and enforce it through
  node-strict container requests. They require the complete invocation
  graph up front and are therefore incompatible with iterative workflow
  languages such as Cuneiform (enforced by the AM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.errors import SchedulingError
from repro.obs.events import SchedulingDecision
from repro.workflow.model import TaskSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.provenance.manager import ProvenanceManager
    from repro.hdfs.filesystem import HdfsClient
    from repro.obs.bus import EventBus

__all__ = ["SchedulerContext", "WorkflowScheduler", "QueueScheduler"]


@dataclass
class SchedulerContext:
    """Everything a scheduling policy may consult.

    ``bus`` and ``workflow_id`` exist for the decision audit: while
    anything subscribes to :class:`~repro.obs.events.SchedulingDecision`
    (``python -m repro explain`` does), policies publish every placement
    with its scored candidate set. The AM fills ``workflow_id`` once it is allocated.
    """

    worker_ids: list[str]
    hdfs: Optional["HdfsClient"] = None
    provenance: Optional["ProvenanceManager"] = None
    bus: Optional["EventBus"] = None
    workflow_id: str = ""
    #: Tenant (YARN queue) the workflow runs under; the AM fills it once
    #: the RM admits the application.
    tenant: str = ""


@dataclass
class _QueuedTask:
    """A ready task plus the nodes it must avoid (failed attempts)."""

    task: TaskSpec
    excluded_nodes: frozenset[str] = field(default_factory=frozenset)
    #: How many allocations have passed this task over (aging).
    skipped: int = 0


class WorkflowScheduler:
    """Base class of all scheduling policies."""

    #: Static policies need the full DAG and enforce fixed placements.
    is_static = False
    #: Human-readable policy name (used in provenance and reports).
    name = "base"

    def __init__(self):
        self.context: Optional[SchedulerContext] = None

    def bind(self, context: SchedulerContext) -> None:
        """Attach cluster/HDFS/provenance handles before use."""
        self.context = context

    def unbind(self) -> None:
        """Release context resources (bus subscriptions, caches).

        Called by the AM when a workflow finishes; policies that
        subscribe to bus events in :meth:`bind` override this to cancel
        them so a finished workflow's scheduler no longer reacts to
        cluster events.
        """
        self.context = None

    def _require_context(self) -> SchedulerContext:
        if self.context is None:
            raise SchedulingError(f"{self.name}: scheduler not bound to a context")
        return self.context

    # -- decision audit ---------------------------------------------------------

    def _decisions_wanted(self) -> bool:
        """Whether anyone subscribed to scheduling decisions.

        Policies check this before doing audit-only work (scoring the
        rejected candidates), keeping the un-audited hot path unchanged.
        """
        context = self.context
        return (
            context is not None
            and context.bus is not None
            and context.bus.wants(SchedulingDecision)
        )

    def _emit_decision(
        self,
        task_id: str,
        node_id: str,
        kind: str,
        candidate_kind: str,
        candidates: list[tuple[str, float]],
        score_name: str,
        better: str = "min",
        reason: str = "",
    ) -> None:
        """Publish one placement with its scored candidate set."""
        context = self.context
        if context is None or context.bus is None:
            return
        context.bus.emit(SchedulingDecision(
            workflow_id=context.workflow_id,
            policy=self.name,
            kind=kind,
            task_id=task_id,
            node_id=node_id,
            candidate_kind=candidate_kind,
            candidates=tuple(candidates),
            score_name=score_name,
            better=better,
            reason=reason,
            tenant=context.tenant,
        ))

    # -- static planning -------------------------------------------------------

    def plan(self, tasks: list[TaskSpec]) -> None:
        """Receive the complete task list (static schedulers only)."""

    def placement_for(self, task: TaskSpec) -> Optional[str]:
        """Fixed node for ``task`` under a static policy, else None."""
        return None

    # -- queue protocol -----------------------------------------------------------

    def enqueue(self, task: TaskSpec, excluded_nodes: frozenset[str] = frozenset()) -> None:
        """Offer a ready task for execution."""
        raise NotImplementedError  # pragma: no cover - interface

    def pending_count(self) -> int:
        """Number of ready tasks not yet handed to a container."""
        raise NotImplementedError  # pragma: no cover - interface

    def select_task(self, node_id: str) -> Optional[TaskSpec]:
        """Choose a waiting task for a container on ``node_id``."""
        raise NotImplementedError  # pragma: no cover - interface

    def on_task_finished(
        self, task: TaskSpec, node_id: str, runtime_seconds: float, success: bool
    ) -> None:
        """Observe a finished attempt (statistics live in provenance)."""


class QueueScheduler(WorkflowScheduler):
    """Shared machinery of the late-binding (queue) policies."""

    def __init__(self):
        super().__init__()
        self._queue: list[_QueuedTask] = []

    def enqueue(self, task, excluded_nodes=frozenset()) -> None:
        self._queue.append(_QueuedTask(task, frozenset(excluded_nodes)))

    def pending_count(self) -> int:
        return len(self._queue)

    def _eligible_indices(self, node_id: str) -> list[int]:
        """Queue positions of tasks allowed to run on ``node_id``."""
        return [
            index
            for index, entry in enumerate(self._queue)
            if node_id not in entry.excluded_nodes
        ]

    def _take(self, index: int) -> TaskSpec:
        return self._queue.pop(index).task
