"""The simulated ResourceManager: application registry and allocation.

The RM serves container requests whenever capacity exists, spreading
allocations round-robin over the workers. Across *applications* the
request ordering is a pluggable :class:`AllocationPolicy` (Sec. 3.4
notes these cluster-level modes are distinct from Hi-WAY's
workflow-level scheduler): ``fifo`` serves requests strictly in arrival
order; ``fair`` interleaves tenants, preferring whoever holds the
fewest weighted containers; ``drf`` prefers the smallest weighted
dominant share of vcores vs memory. Requests live in per-tenant queues
(:class:`~repro.yarn.allocation.PendingPool`) carrying weights and
quota caps, and an optional
:class:`~repro.yarn.allocation.AdmissionController` bounds how many
applications may be registered at once — the substrate for running the
cluster as a workflow service.

Requests may carry a node preference; ``strict`` requests wait for
exactly that node, which is how Hi-WAY enforces static (round-robin /
HEFT) schedules.

Every allocation charges a little CPU work on the master node hosting the
RM, so master-side load scales with cluster activity as in Figure 6.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.errors import AdmissionError, YarnError
from repro.obs.events import (
    AdmissionDecision,
    ApplicationRegistered,
    ApplicationUnregistered,
    ContainerAllocated,
    ContainerReleased,
    ContainerRequested,
    NodeCrashed,
)
from repro.sim.engine import Environment, Event
from repro.yarn.allocation import (
    AdmissionController,
    AdmissionTicket,
    AllocationPolicy,
    PendingPool,
    make_policy,
)
from repro.yarn.nodemanager import NodeManager
from repro.yarn.allocation.policy import ClusterShare
from repro.yarn.records import (
    ApplicationHandle,
    Container,
    ContainerRequest,
    ContainerResource,
)

__all__ = ["ResourceManager"]

#: CPU work charged on the RM host per allocation decision.
ALLOCATION_WORK = 0.004
#: CPU work charged on the RM host per application registration.
REGISTRATION_WORK = 0.02
#: Permanent CPU load (cores) the RM spends servicing one NodeManager's
#: heartbeats. Scales master load linearly with cluster size (Fig. 6).
HEARTBEAT_LOAD_PER_NM = 0.0005


class ResourceManager:
    """Cluster-wide resource arbiter."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        max_containers_per_node: Optional[int] = None,
        policy: "Optional[str | AllocationPolicy]" = None,
        admission: Optional[AdmissionController] = None,
        tenants: Optional[dict] = None,
    ):
        self.policy = make_policy(policy if policy is not None else "fifo")
        #: Per-application id sequence. Deliberately *per instance*: a
        #: class-level counter would leak ids across concurrent clusters
        #: in one process (e.g. run_grid workers running A/B
        #: comparisons) and break deterministic ``application_NNNN``
        #: naming.
        self._app_ids = itertools.count(1)
        self._containers_held: dict[str, int] = {}
        self.env = env
        self.cluster = cluster
        self.bus = cluster.bus
        self.node_managers: dict[str, NodeManager] = {
            node.node_id: NodeManager(
                env, node, max_containers_per_node, bus=self.bus
            )
            for node in cluster.workers
        }
        for manager in self.node_managers.values():
            manager.on_capacity_freed.append(self._serve_pending)
        self._apps: dict[str, ApplicationHandle] = {}
        self._live_containers: set[str] = set()
        self._pool = PendingPool()
        if tenants:
            for tenant, spec in tenants.items():
                self._pool.configure(
                    tenant,
                    weight=getattr(spec, "weight", 1.0),
                    max_containers=getattr(spec, "max_containers", None),
                    max_vcores=getattr(spec, "max_vcores", None),
                )
        self._admission = admission
        self._admission_queue: deque[tuple[str, Optional[str], Event]] = deque()
        #: app_id -> tenant, kept while the app is registered or still
        #: holds containers (drained on the last release).
        self._tenant_of: dict[str, str] = {}
        self._rotation = 0
        self._host = cluster.masters[0] if cluster.masters else None
        #: Total allocations served (bookkeeping for reports/tests).
        self.allocations = 0
        self._heartbeat_flows = {}
        if self._host is not None:
            for node_id in self.node_managers:
                self._heartbeat_flows[node_id] = cluster.network.start_flow(
                    size=None,
                    resources=[self._host.cpu],
                    cap=HEARTBEAT_LOAD_PER_NM,
                    label=f"rm-heartbeat:{node_id}",
                )

    # -- tenants ---------------------------------------------------------------

    def configure_tenant(
        self,
        tenant: str,
        weight: float = 1.0,
        max_containers: Optional[int] = None,
        max_vcores: Optional[int] = None,
    ) -> None:
        """Set a tenant's fair-share weight and quota caps."""
        self._pool.configure(
            tenant,
            weight=weight,
            max_containers=max_containers,
            max_vcores=max_vcores,
        )

    def tenant_usage(self, tenant: str) -> tuple[int, int, float]:
        """``(containers, vcores, memory_mb)`` the tenant holds now."""
        queue = self._pool.get(tenant)
        if queue is None:
            return (0, 0, 0.0)
        return (queue.containers_held, queue.vcores_held, queue.memory_mb_held)

    # -- applications ----------------------------------------------------------

    def submit_application(
        self, name: str, tenant: Optional[str] = None
    ) -> AdmissionTicket:
        """Submit an AM for admission; never raises on a full cluster.

        The returned ticket is either admitted (``handle`` set), queued
        (``event`` fires with the handle once a slot frees) or rejected
        (``rejected``/``reason`` set), depending on the RM's
        :class:`~repro.yarn.allocation.AdmissionController`.
        """
        decision = (
            "admit"
            if self._admission is None
            else self._admission.decide(active=len(self._apps))
        )
        if self.bus.wants(AdmissionDecision):
            self.bus.emit(AdmissionDecision(
                name=name, tenant=tenant or "", outcome=decision
            ))
        if decision == "admit":
            return AdmissionTicket(
                name=name, tenant=tenant, handle=self._register(name, tenant)
            )
        if decision == "queue":
            event = self.env.event()
            self._admission_queue.append((name, tenant, event))
            return AdmissionTicket(name=name, tenant=tenant, event=event)
        return AdmissionTicket(
            name=name,
            tenant=tenant,
            rejected=True,
            reason=(
                f"cluster at its admission limit of "
                f"{self._admission.max_concurrent_apps} concurrent "
                f"application(s)"
            ),
        )

    def register_application(
        self, name: str, tenant: Optional[str] = None
    ) -> ApplicationHandle:
        """Register an AM; returns its handle with a fresh app id.

        Synchronous legacy API: raises :class:`AdmissionError` when an
        admission controller would queue or reject the submission (use
        :meth:`submit_application` to wait for a slot instead).
        """
        if self._admission is not None:
            decision = self._admission.decide(active=len(self._apps))
            if decision != "admit":
                raise AdmissionError(
                    f"application {name!r} not admissible "
                    f"(decision: {decision}); use submit_application() to "
                    f"queue for a slot"
                )
        return self._register(name, tenant)

    def _register(self, name: str, tenant: Optional[str]) -> ApplicationHandle:
        if self._admission is not None:
            self._admission.record_admission(name, tenant)
        app_id = f"application_{next(self._app_ids):04d}"
        app = ApplicationHandle(
            app_id=app_id, name=name, tenant=tenant or app_id
        )
        self._apps[app.app_id] = app
        self._tenant_of[app.app_id] = app.tenant
        # Materialise the tenant's queue so usage accounting and
        # configured quotas apply from the first request.
        self._pool.queue_for(app.tenant)
        if self._host is not None:
            self._host.compute(REGISTRATION_WORK, threads=1, label="rm-register")
        if self.bus.wants(ApplicationRegistered):
            self.bus.emit(ApplicationRegistered(
                app_id=app.app_id, name=name, tenant=app.tenant
            ))
        return app

    def unregister_application(self, app: ApplicationHandle) -> None:
        """Drop an AM registration and its outstanding requests."""
        self._apps.pop(app.app_id, None)
        queue = self._pool.get(self._tenant_of.get(app.app_id, app.tenant))
        if queue is not None:
            queue.cancel_app(app.app_id)
        # Held-container accounting: drop the app's entry as soon as it
        # holds nothing, otherwise on its final release (a long-lived
        # service RM must not accumulate one entry per finished app).
        if not self._containers_held.get(app.app_id):
            self._containers_held.pop(app.app_id, None)
            self._tenant_of.pop(app.app_id, None)
        if self.bus.wants(ApplicationUnregistered):
            self.bus.emit(ApplicationUnregistered(app_id=app.app_id))
        self._admit_queued()

    def _admit_queued(self) -> None:
        """Admit waiting submissions into freed slots.

        The order is the admission controller's ``drain`` policy: FIFO
        (the default) or tenant-fair (least-admitted tenant first, a
        round-robin over tenants that prevents retry starvation).
        """
        if self._admission is None:
            return
        while self._admission_queue and self._admission.has_slot(
            active=len(self._apps)
        ):
            index = self._admission.select_queued(
                [(name, tenant) for name, tenant, _ in self._admission_queue]
            )
            name, tenant, event = self._admission_queue[index]
            del self._admission_queue[index]
            if self.bus.wants(AdmissionDecision):
                self.bus.emit(AdmissionDecision(
                    name=name, tenant=tenant or "", outcome="admit"
                ))
            event.succeed(self._register(name, tenant))

    def admission_queue_depth(self) -> int:
        """Submissions waiting for an admission slot."""
        return len(self._admission_queue)

    def active_application_count(self) -> int:
        """Applications registered right now."""
        return len(self._apps)

    # -- allocation --------------------------------------------------------------

    def request_container(
        self,
        app: ApplicationHandle,
        resource: ContainerResource,
        preferred_node: Optional[str] = None,
        strict: bool = False,
    ) -> Event:
        """Ask for one container; the event fires with the :class:`Container`.

        ``strict`` requests are only ever satisfied on ``preferred_node``.
        """
        if app.app_id not in self._apps:
            raise YarnError(f"unknown application {app.app_id}")
        if strict and preferred_node is None:
            raise YarnError("strict requests need a preferred node")
        if preferred_node is not None and preferred_node not in self.node_managers:
            raise YarnError(f"unknown node {preferred_node!r}")
        tenant = self._tenant_of.get(app.app_id, app.tenant or app.app_id)
        request = ContainerRequest(
            app_id=app.app_id,
            resource=resource,
            preferred_node=preferred_node,
            strict=strict,
            tenant=tenant,
            submitted_at=self.env.now,
        )
        event = self.env.event()
        if self.bus.wants(ContainerRequested):
            self.bus.emit(ContainerRequested(
                app_id=app.app_id,
                request_id=request.request_id,
                vcores=resource.vcores,
                memory_mb=resource.memory_mb,
                preferred_node=preferred_node,
                strict=strict,
                tenant=tenant,
            ))
        self._pool.queue_for(tenant).append(request, event)
        self._serve_pending()
        return event

    def release_container(self, container: Container) -> None:
        """Free a container's capacity (triggers pending allocation)."""
        held = self._containers_held.get(container.app_id)
        if held is not None and container.container_id in self._live_containers:
            self._containers_held[container.app_id] = max(0, held - 1)
            self._live_containers.discard(container.container_id)
            tenant = self._tenant_of.get(container.app_id)
            if tenant is not None:
                queue = self._pool.get(tenant)
                if queue is not None:
                    queue.credit(container.resource)
            if (
                container.app_id not in self._apps
                and not self._containers_held.get(container.app_id)
            ):
                # The app unregistered while this container was still
                # out; its last release retires the accounting entries.
                self._containers_held.pop(container.app_id, None)
                self._tenant_of.pop(container.app_id, None)
            if self.bus.wants(ContainerReleased):
                self.bus.emit(ContainerReleased(
                    app_id=container.app_id,
                    container_id=container.container_id,
                    node_id=container.node_id,
                ))
        manager = self.node_managers.get(container.node_id)
        if manager is not None:
            manager.release(container)

    def _choose_node(self, request: ContainerRequest) -> Optional[NodeManager]:
        """Pick a NodeManager able to host ``request`` right now."""
        if request.preferred_node is not None:
            preferred = self.node_managers[request.preferred_node]
            if preferred.can_fit(request.resource):
                return preferred
            if request.strict:
                return None
        # Round-robin over workers for even spread.
        ids = list(self.node_managers)
        for offset in range(len(ids)):
            manager = self.node_managers[ids[(self._rotation + offset) % len(ids)]]
            if manager.can_fit(request.resource):
                self._rotation = (self._rotation + offset + 1) % len(ids)
                return manager
        return None

    def _cluster_share(self) -> ClusterShare:
        """Live totals the DRF dominant share is measured against."""
        vcores = 0
        memory = 0.0
        for nm in self.node_managers.values():
            if nm.node.alive:
                vcores += nm.node.spec.cores
                memory += nm.node.spec.memory_mb
        return ClusterShare(total_vcores=vcores, total_memory_mb=memory)

    def _serve_pending(self) -> None:
        """Scan outstanding requests against current capacity.

        One pass walks every tenant queue through a cursor; at each step
        the :class:`AllocationPolicy` ranks the candidate at each
        cursor and the best one is tried. Ordering is maintained
        incrementally — serving or skipping a candidate re-ranks only
        its own queue (an O(log tenants) heap operation) instead of
        re-sorting the whole backlog on every capacity-freed callback.
        Under ``fifo`` the heap degenerates to exact arrival order, so
        the pass is byte-identical to serving one global deque.
        """
        pool = self._pool
        queues = pool.active_queues()
        if not queues:
            return
        policy = self.policy
        share = self._cluster_share()
        rank = policy.rank
        # (rank, tenant, queue); ranks end in the globally unique
        # request_id, so ordering is total and the tenant tiebreak is
        # only a determinism backstop.
        heap: list = []
        scanned: list = []
        for queue in queues:
            entry = queue.current()
            if entry is not None:
                scanned.append(queue)
                heappush(heap, (rank(entry[0], queue, share), queue.tenant, queue))
        # Once a relaxed request of some size found no node, every later
        # relaxed request of the same size is hopeless too; skipping them
        # keeps the scan linear under heavy backlog.
        exhausted_sizes: set[tuple[int, float]] = set()
        while heap:
            _, _, queue = heappop(heap)
            entry = queue.current()
            if entry is None:
                continue
            request, event = entry
            resource = request.resource
            if queue.quota_blocks(resource):
                # Tenant at its cap: its whole queue sits out this pass
                # (head-of-line at quota, like a YARN queue at capacity).
                continue
            size = (resource.vcores, resource.memory_mb)
            if not request.strict and size in exhausted_sizes:
                queue.advance()
            else:
                manager = self._choose_node(request)
                if manager is None:
                    if not request.strict:
                        exhausted_sizes.add(size)
                    queue.advance()
                else:
                    queue.take()
                    self._grant(request, event, manager, queue)
            entry = queue.current()
            if entry is not None:
                heappush(heap, (rank(entry[0], queue, share), queue.tenant, queue))
        for queue in scanned:
            queue.end_scan()

    def _grant(
        self,
        request: ContainerRequest,
        event: Event,
        manager: NodeManager,
        queue,
    ) -> None:
        """Allocate on ``manager`` and deliver the container to the waiter."""
        container = manager.allocate(request.resource, request.app_id)
        self.allocations += 1
        self._containers_held[request.app_id] = (
            self._containers_held.get(request.app_id, 0) + 1
        )
        queue.charge(request.resource)
        self._live_containers.add(container.container_id)
        if self._host is not None:
            self._host.compute(ALLOCATION_WORK, threads=1, label="rm-alloc")
        if self.bus.wants(ContainerAllocated):
            self.bus.emit(ContainerAllocated(
                app_id=request.app_id,
                request_id=request.request_id,
                container_id=container.container_id,
                node_id=container.node_id,
                wait_seconds=self.env.now - request.submitted_at,
                tenant=request.tenant,
            ))
        event.succeed(container)

    # -- failure injection ---------------------------------------------------------

    def crash_node(self, node_id: str) -> list[Container]:
        """Kill a worker node; returns the containers that died with it."""
        manager = self.node_managers.get(node_id)
        if manager is None:
            raise YarnError(f"unknown node {node_id!r}")
        heartbeat = self._heartbeat_flows.pop(node_id, None)
        if heartbeat is not None:
            heartbeat.cancel()
        casualties = manager.crash()
        if self.bus.wants(NodeCrashed):
            self.bus.emit(NodeCrashed(
                node_id=node_id, containers_lost=len(casualties)
            ))
        return casualties

    # -- introspection ---------------------------------------------------------------

    @property
    def total_capacity_vcores(self) -> int:
        """Sum of vcores across live workers."""
        return sum(
            nm.node.spec.cores for nm in self.node_managers.values() if nm.node.alive
        )

    def pending_request_count(self) -> int:
        """Number of container requests waiting for capacity."""
        return self._pool.pending_count()
