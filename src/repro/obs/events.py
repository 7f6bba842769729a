"""Typed events published on the observability bus.

Subscribers select events by class (see :mod:`repro.obs.bus`). The bus
stamps ``t`` (simulated time, ``env.now``) and ``seq`` (a global,
strictly increasing sequence number) at emit time, which is what makes
the recorded stream totally ordered and reproducible under identical
seeds.

For orientation only, the classes group onto the paper's Sec. 3.5
granularities and extend them to the infrastructure below the AM (the
grouping is documentation; nothing dispatches on it):

=========  =============================================================
group      events
=========  =============================================================
workflow   :class:`WorkflowSubmitted`, :class:`WorkflowStarted`,
           :class:`WorkflowFinished`, :class:`SubmissionFinished`,
           :class:`ServiceSample`
task       :class:`TaskDispatched`, :class:`TaskRetried`,
           :class:`TaskAttemptFinished`
file       ``TaskAttemptFinished.transfers`` (one report per file an
           attempt moved) and ``InputsStaged.transfers`` (set-up writes)
scheduler  :class:`SchedulingDecision`
yarn       admission, application registration, container request/
           allocate/launch/finish/release, :class:`NodeCrashed`
hdfs       :class:`BlocksPlaced`, :class:`InputsStaged`
cluster    :class:`FaultInjected`
=========  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.model import TaskSpec

__all__ = [
    "ObsEvent",
    "WorkflowSubmitted",
    "WorkflowStarted",
    "WorkflowFinished",
    "SubmissionFinished",
    "ServiceSample",
    "TaskDispatched",
    "TaskRetried",
    "TaskAttemptFinished",
    "SchedulingDecision",
    "AdmissionDecision",
    "ApplicationRegistered",
    "ApplicationUnregistered",
    "ContainerRequested",
    "ContainerAllocated",
    "ContainerLaunched",
    "ContainerFinished",
    "ContainerReleased",
    "NodeCrashed",
    "BlocksPlaced",
    "InputsStaged",
    "FaultInjected",
]


class ObsEvent:
    """Base class of every bus event.

    ``t`` and ``seq`` are class-level defaults overwritten per instance
    by :meth:`repro.obs.bus.EventBus.emit`; they are deliberately not
    dataclass fields so subclasses keep positional constructors for
    their own payload.
    """

    t: float = 0.0
    seq: int = -1


# -- workflow events (Sec. 3.5 workflow granularity) --------------------------


@dataclass
class WorkflowSubmitted(ObsEvent):
    """A workflow arrived at the service (before admission/registration).

    Published by the open-loop traffic harness
    (:class:`~repro.service.ServiceRunner`) at each arrival-process
    firing, one step upstream of :class:`WorkflowStarted`: the gap
    between the two is the admission queue wait.
    """

    name: str = ""
    tenant: str = ""
    #: Workload family the submission was drawn from (e.g. "snv").
    workload: str = ""


@dataclass
class WorkflowStarted(ObsEvent):
    workflow_id: str = ""
    name: str = ""


@dataclass
class WorkflowFinished(ObsEvent):
    workflow_id: str = ""
    name: str = ""
    runtime_seconds: float = 0.0
    success: bool = True


@dataclass
class SubmissionFinished(ObsEvent):
    """A service submission reached its final state.

    Published by the open-loop traffic harness when a submission's
    result comes back, closing the interval opened by
    :class:`WorkflowSubmitted`. Exactly one of three outcomes holds:
    ``rejected`` (admission refused it), success, or failure.
    """

    name: str = ""
    tenant: str = ""
    workload: str = ""
    success: bool = True
    rejected: bool = False


@dataclass
class ServiceSample(ObsEvent):
    """One sampler tick of the service-level time series.

    Published by the traffic harness every ``sample_period_s`` so a
    journal replay can rebuild the backlog/queue-depth/running-apps
    series byte-for-byte. ``rel_t`` is seconds since the service run's
    epoch (``t`` stays absolute simulated time).
    """

    rel_t: float = 0.0
    backlog: float = 0.0
    queue_depth: float = 0.0
    running_apps: float = 0.0
    pending_containers: float = 0.0


# -- task events (Sec. 3.5 task granularity) ----------------------------------


@dataclass
class TaskDispatched(ObsEvent):
    """The AM released a task whose inputs became available."""

    workflow_id: str = ""
    task_id: str = ""
    tool: str = ""
    attempt: int = 1


@dataclass
class TaskRetried(ObsEvent):
    """A failed attempt is being re-tried on a different node (Sec. 3.1)."""

    workflow_id: str = ""
    task_id: str = ""
    attempt: int = 1
    excluded_node: str = ""


@dataclass
class TaskAttemptFinished(ObsEvent):
    """One task attempt ended (successfully or not).

    Carries the full :class:`~repro.workflow.model.TaskSpec` so
    provenance subscribers can persist the re-executable record, and in
    ``transfers`` the files the attempt moved (Sec. 3.5 file
    granularity): one :class:`~repro.hdfs.filesystem.FileTransferReport`
    per file, stage-in reports first, then stage-out reports. A failed
    attempt carries those it finished before failing, and its
    ``makespan_seconds`` is the time it ran. All stage-ins start at the
    attempt's start, all stage-outs together later.
    """

    workflow_id: str = ""
    task: Optional["TaskSpec"] = None
    node_id: str = ""
    makespan_seconds: float = 0.0
    output_sizes: dict = field(default_factory=dict)
    success: bool = True
    attempt: int = 1
    stderr: str = ""
    transfers: tuple = ()


# -- scheduler events (Sec. 3.4 placement decisions) --------------------------


@dataclass
class SchedulingDecision(ObsEvent):
    """One placement decision of a workflow scheduling policy.

    Captures not just the outcome (``task_id`` ran on ``node_id``) but
    the *alternatives* the policy weighed: ``candidates`` is the scored
    candidate set as ``(key, score)`` pairs, where keys are task ids for
    late-binding queue policies (which pick a task for a fixed node) and
    node ids for static policies (which pick a node for a fixed task, at
    plan time). ``score_name`` says what the scores mean — queue
    position for FCFS, locality fraction for data-aware, relative
    suitability for adaptive-queue, rotation offset for round-robin,
    estimated finish time for HEFT — and ``better`` whether lower or
    higher scores win. This is the record
    :func:`~repro.obs.decisions.explain` reads to account for any
    placement after the fact.
    """

    workflow_id: str = ""
    policy: str = ""
    #: Decision flavour: "queue-bind" (task chosen for an allocated
    #: container), "static-plan" (node chosen at workflow onset) or
    #: "retry-fallback" (static reassignment after a failed attempt).
    kind: str = "queue-bind"
    task_id: str = ""
    node_id: str = ""
    #: Whether ``candidates`` keys are task ids or node ids.
    candidate_kind: str = "task"
    #: Scored alternatives as ``(key, score)`` pairs, in evaluation order.
    candidates: tuple = ()
    score_name: str = ""
    #: "min" if lower scores win, "max" if higher scores win.
    better: str = "min"
    reason: str = ""
    #: Tenant the deciding workflow runs under ("" when not threaded).
    tenant: str = ""


# -- yarn events (RM / NM infrastructure) -------------------------------------


@dataclass
class AdmissionDecision(ObsEvent):
    """The RM's admission controller ruled on one application submission."""

    name: str = ""
    tenant: str = ""
    #: "admit", "queue" or "reject".
    outcome: str = ""


@dataclass
class ApplicationRegistered(ObsEvent):
    app_id: str = ""
    name: str = ""
    #: YARN-queue identity the application submits under.
    tenant: str = ""


@dataclass
class ApplicationUnregistered(ObsEvent):
    app_id: str = ""


@dataclass
class ContainerRequested(ObsEvent):
    app_id: str = ""
    request_id: int = -1
    vcores: int = 1
    memory_mb: float = 0.0
    preferred_node: Optional[str] = None
    strict: bool = False
    tenant: str = ""


@dataclass
class ContainerAllocated(ObsEvent):
    app_id: str = ""
    request_id: int = -1
    container_id: str = ""
    node_id: str = ""
    #: Allocation latency (request submission -> this allocation),
    #: stamped by the RM so subscribers need no request-time bookkeeping.
    wait_seconds: float = 0.0
    tenant: str = ""


@dataclass
class ContainerLaunched(ObsEvent):
    app_id: str = ""
    container_id: str = ""
    node_id: str = ""


@dataclass
class ContainerFinished(ObsEvent):
    app_id: str = ""
    container_id: str = ""
    node_id: str = ""
    success: bool = True
    state: str = ""


@dataclass
class ContainerReleased(ObsEvent):
    app_id: str = ""
    container_id: str = ""
    node_id: str = ""


@dataclass
class NodeCrashed(ObsEvent):
    """A worker died; its containers were reported failed to the AMs."""

    node_id: str = ""
    containers_lost: int = 0


# -- hdfs events --------------------------------------------------------------


@dataclass
class BlocksPlaced(ObsEvent):
    """The NameNode placed the replicas of a newly created file."""

    path: str = ""
    size_mb: float = 0.0
    #: One tuple of replica node ids per block, in block order.
    placements: tuple = ()


@dataclass
class InputsStaged(ObsEvent):
    """Set-up staging (:meth:`~repro.hdfs.filesystem.HdfsClient.stage_many`)
    wrote ``transfers``, one report per file, all started at ``t`` minus
    the longest."""

    transfers: tuple = ()


# -- cluster events -----------------------------------------------------------


@dataclass
class FaultInjected(ObsEvent):
    """The failure injector executed one planned crash."""

    node_id: str = ""
    planned_at: float = 0.0
