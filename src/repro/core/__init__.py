"""Hi-WAY core: client, application master, schedulers, provenance."""

from repro.core.am import HiWayApplicationMaster, WorkflowResult
from repro.core.client import HiWay
from repro.core.config import HiWayConfig
from repro.core.engine import (
    AttemptState,
    ExecutionBackend,
    ExecutionCore,
    ExecutionResult,
    ReadySetTracker,
    RetryPolicy,
    TaskAttempt,
)
from repro.core.execution import TaskResult, run_task_in_container
from repro.core.provenance import (
    DocumentProvenanceStore,
    ProvenanceManager,
    SqlProvenanceStore,
    TraceFileStore,
)
from repro.core.schedulers import (
    AdaptiveQueueScheduler,
    DataAwareScheduler,
    FcfsScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    SCHEDULER_NAMES,
    make_scheduler,
)

__all__ = [
    "HiWay",
    "HiWayConfig",
    "HiWayApplicationMaster",
    "WorkflowResult",
    "ExecutionResult",
    "ExecutionCore",
    "ExecutionBackend",
    "AttemptState",
    "TaskAttempt",
    "ReadySetTracker",
    "RetryPolicy",
    "TaskResult",
    "run_task_in_container",
    "ProvenanceManager",
    "TraceFileStore",
    "SqlProvenanceStore",
    "DocumentProvenanceStore",
    "FcfsScheduler",
    "AdaptiveQueueScheduler",
    "DataAwareScheduler",
    "RoundRobinScheduler",
    "HeftScheduler",
    "make_scheduler",
    "SCHEDULER_NAMES",
]
