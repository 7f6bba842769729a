"""Hi-WAY configuration (the simulated ``hiway-site.xml``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.yarn.allocation import POLICY_NAMES

__all__ = ["HiWayConfig"]


@dataclass(frozen=True)
class HiWayConfig:
    """Tunables of one Hi-WAY installation.

    The container capability is fixed per installation, as in the paper
    (Sec. 3.1: containers "encapsulate a fixed amount of virtual
    processor cores and memory which can be specified in Hi-WAY's
    configuration"; Sec. 5 notes custom-tailored containers as future
    work — implemented here behind ``adaptive_container_sizing``).
    """

    #: vcores per worker container.
    container_vcores: int = 1
    #: memory per worker container in MB.
    container_memory_mb: float = 1024.0
    #: Default scheduling policy.
    scheduler: str = "data-aware"
    #: How often a failed task is re-tried on another node (Sec. 3.1).
    max_retries: int = 2
    #: Node hosting the AM. None picks the last master node, modelling
    #: the dedicated-AM setup of the Sec. 4.1 scalability experiment.
    am_node: Optional[str] = None
    #: CPU work (reference core-seconds) the AM burns per scheduling
    #: decision and per provenance record — the source of the Hi-WAY
    #: master load curve in Figure 6.
    am_work_per_decision: float = 0.004
    am_work_per_event: float = 0.001
    #: Future-work feature (Sec. 5): size each container to its task's
    #: tool profile instead of the fixed installation-wide capability.
    adaptive_container_sizing: bool = False
    #: Attach a :class:`~repro.obs.tracer.Tracer` to the installation's
    #: event bus, recording spans for Chrome ``about:tracing`` export.
    #: Off by default: with no subscriber the bus's fast path keeps the
    #: hot loops event-free.
    tracing: bool = False
    #: Whether an attached tracer also records per-file HDFS reads and
    #: writes — the chattiest topic; disable for long runs where only
    #: container/task lifecycle matters.
    trace_hdfs_events: bool = True
    #: Attach a :class:`~repro.obs.decisions.DecisionAuditor` to the
    #: installation's bus, making every scheduler publish its placements
    #: with the full scored candidate set. Off by default: without a
    #: ``SchedulingDecision`` subscriber the policies skip all
    #: audit-only scoring work.
    decision_audit: bool = False
    #: Cross-application allocation policy of the installation's default
    #: RM: "fifo" (arrival order), "fair" (fewest weighted containers
    #: first) or "drf" (smallest weighted dominant share first).
    rm_policy: str = "fifo"
    #: Cap on concurrently registered applications (None = unbounded);
    #: the substrate of the workflow-as-a-service admission control.
    max_concurrent_apps: Optional[int] = None
    #: What happens to submissions beyond the cap: "queue" waits for a
    #: slot, "reject" refuses outright.
    admission_overflow: str = "queue"
    #: How the admission queue drains when slots free up: "fifo"
    #: (strict queue order — the default, matching YARN's accepted-apps
    #: queue) or "tenant-fair" (least-admitted tenant first, preventing
    #: a re-submitting tenant from starving queued ones).
    admission_drain: str = "fifo"

    def __post_init__(self) -> None:
        if self.container_vcores < 1:
            raise ValueError("container_vcores must be >= 1")
        if self.container_memory_mb <= 0:
            raise ValueError("container_memory_mb must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.rm_policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown rm_policy {self.rm_policy!r}; "
                f"choose one of {POLICY_NAMES}"
            )
        if self.max_concurrent_apps is not None and self.max_concurrent_apps < 1:
            raise ValueError("max_concurrent_apps must be >= 1")
        if self.admission_overflow not in ("queue", "reject"):
            raise ValueError(
                f"unknown admission_overflow {self.admission_overflow!r}; "
                f"choose 'queue' or 'reject'"
            )
        if self.admission_drain not in ("fifo", "tenant-fair"):
            raise ValueError(
                f"unknown admission_drain {self.admission_drain!r}; "
                f"choose 'fifo' or 'tenant-fair'"
            )
