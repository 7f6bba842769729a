"""Per-tenant pending queues with weights, quotas and usage accounting.

The RM used to keep one global pending deque and re-sort it wholesale on
every capacity change. Here every *tenant* (a YARN queue: one or more
applications submitting under a shared identity) owns its own
arrival-ordered deque plus the usage counters the policies rank on.
A serve pass scans each queue through a cursor — requests the pass
could not place are kept aside in arrival order and spliced back at the
end — so ordering is maintained incrementally: the pass costs
O(requests visited x log tenants) instead of re-sorting every pending
request on every callback.

Quota caps (``max_containers`` / ``max_vcores``) bound what one tenant
may hold concurrently; a tenant at its cap simply sits out the rest of
the pass, exactly like a YARN queue at capacity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Event
    from repro.yarn.records import ContainerRequest, ContainerResource

__all__ = ["TenantSpec", "TenantQueue", "PendingPool"]


@dataclass(frozen=True)
class TenantSpec:
    """Declarative per-tenant policy inputs: weight and quota caps."""

    #: Fair-share weight; a tenant of weight 2 tolerates holding twice
    #: as much as a weight-1 tenant before losing priority.
    weight: float = 1.0
    #: Hard cap on concurrently held containers (None = unbounded).
    max_containers: Optional[int] = None
    #: Hard cap on concurrently held vcores (None = unbounded).
    max_vcores: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.max_containers is not None and self.max_containers < 1:
            raise ValueError("max_containers must be >= 1")
        if self.max_vcores is not None and self.max_vcores < 1:
            raise ValueError("max_vcores must be >= 1")


class TenantQueue:
    """One tenant's pending requests plus its live-usage counters."""

    __slots__ = (
        "tenant",
        "spec",
        "containers_held",
        "vcores_held",
        "memory_mb_held",
        "_items",
        "_passed",
    )

    def __init__(self, tenant: str, spec: Optional[TenantSpec] = None):
        self.tenant = tenant
        self.spec = spec if spec is not None else TenantSpec()
        self.containers_held = 0
        self.vcores_held = 0
        self.memory_mb_held = 0.0
        self._items: deque[tuple["ContainerRequest", "Event"]] = deque()
        #: Requests visited but not placed during the current serve pass,
        #: in arrival order; spliced back in front at :meth:`end_scan`.
        self._passed: list[tuple["ContainerRequest", "Event"]] = []

    @property
    def weight(self) -> float:
        return self.spec.weight

    # -- intake / usage -----------------------------------------------------------

    def append(self, request: "ContainerRequest", event: "Event") -> None:
        self._items.append((request, event))

    def charge(self, resource: "ContainerResource") -> None:
        """Account one allocated container against this tenant."""
        self.containers_held += 1
        self.vcores_held += resource.vcores
        self.memory_mb_held += resource.memory_mb

    def credit(self, resource: "ContainerResource") -> None:
        """Return one released container's usage."""
        self.containers_held = max(0, self.containers_held - 1)
        self.vcores_held = max(0, self.vcores_held - resource.vcores)
        self.memory_mb_held = max(0.0, self.memory_mb_held - resource.memory_mb)

    def quota_blocks(self, resource: "ContainerResource") -> bool:
        """Whether granting ``resource`` would push the tenant past a cap."""
        spec = self.spec
        if (
            spec.max_containers is not None
            and self.containers_held + 1 > spec.max_containers
        ):
            return True
        return (
            spec.max_vcores is not None
            and self.vcores_held + resource.vcores > spec.max_vcores
        )

    # -- one serve pass -----------------------------------------------------------

    def current(self) -> Optional[tuple["ContainerRequest", "Event"]]:
        """The candidate at the scan cursor; drains cancelled requests."""
        items = self._items
        while items:
            entry = items[0]
            if entry[0].cancelled:
                items.popleft()
                continue
            return entry
        return None

    def advance(self) -> None:
        """Skip the candidate (unplaceable this pass); keep it pending."""
        self._passed.append(self._items.popleft())

    def take(self) -> tuple["ContainerRequest", "Event"]:
        """Remove and return the candidate (it is being granted)."""
        return self._items.popleft()

    def end_scan(self) -> None:
        """Splice skipped requests back in front, restoring arrival order."""
        if self._passed:
            self._items.extendleft(reversed(self._passed))
            self._passed.clear()

    # -- bookkeeping --------------------------------------------------------------

    def cancel_app(self, app_id: str) -> None:
        """Cancel every pending request of ``app_id`` (drained lazily)."""
        for request, _event in self._items:
            if request.app_id == app_id:
                request.cancel()

    def pending_count(self) -> int:
        return sum(1 for request, _ in self._items if not request.cancelled)

    def has_pending(self) -> bool:
        return bool(self._items)


class PendingPool:
    """All tenant queues of one RM, plus their configured specs."""

    def __init__(self):
        self._queues: dict[str, TenantQueue] = {}
        self._specs: dict[str, TenantSpec] = {}

    def configure(
        self,
        tenant: str,
        weight: float = 1.0,
        max_containers: Optional[int] = None,
        max_vcores: Optional[int] = None,
    ) -> TenantSpec:
        """Set (or replace) a tenant's weight and quota caps."""
        spec = TenantSpec(
            weight=weight, max_containers=max_containers, max_vcores=max_vcores
        )
        self._specs[tenant] = spec
        queue = self._queues.get(tenant)
        if queue is not None:
            queue.spec = spec
        return spec

    def queue_for(self, tenant: str) -> TenantQueue:
        """The tenant's queue, created on first touch with its spec."""
        queue = self._queues.get(tenant)
        if queue is None:
            queue = TenantQueue(tenant, self._specs.get(tenant))
            self._queues[tenant] = queue
        return queue

    def get(self, tenant: str) -> Optional[TenantQueue]:
        return self._queues.get(tenant)

    def active_queues(self) -> list[TenantQueue]:
        """Queues with at least one pending entry, in tenant-name order.

        Deterministic iteration matters: dict order would depend on
        tenant first-touch order, which is fine, but sorting makes the
        serve pass independent of registration history.
        """
        return sorted(
            (q for q in self._queues.values() if q.has_pending()),
            key=lambda q: q.tenant,
        )

    def pending_count(self) -> int:
        return sum(q.pending_count() for q in self._queues.values())

    def tenants(self) -> list[str]:
        return sorted(self._queues)
