"""The Hi-WAY client (Sec. 3.1).

A light-weight entry point: each workflow submitted from the client
results in a separate Hi-WAY AM instance being spawned. The
:class:`HiWay` facade also wires up the surrounding installation
(cluster, HDFS, YARN RM, tool registry, provenance store) with sensible
defaults so examples and tests stay short.

Observers subscribe to the installation's event bus, never to the
configuration. The installation subscribes its own: the provenance
manager and ``hiway.registry``, which aggregates the standard metrics.
Every other view records events and folds them afterwards: subscribe
``dict.fromkeys(TRACE_EVENTS, events.append)`` (or ``ANALYSIS_EVENTS``,
``DECISION_EVENTS``, ``TIMELINE_EVENTS``), run, then call
``trace_records(events, now)``, ``analyze(events)``,
``explain(events, task_id)`` or ``render_timeline(events)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.core.am import HiWayApplicationMaster, WorkflowResult
from repro.errors import WorkflowError
from repro.core.config import HiWayConfig
from repro.core.provenance.manager import ProvenanceManager
from repro.core.provenance.stores import ProvenanceStore
from repro.core.schedulers import WorkflowScheduler
from repro.hdfs.filesystem import HdfsClient
from repro.sim.engine import Process
from repro.tools.generic import default_registry
from repro.tools.profile import ToolRegistry
from repro.workflow.model import TaskSource
from repro.yarn.allocation import AdmissionController
from repro.yarn.resourcemanager import ResourceManager

__all__ = ["HiWay"]


class HiWay:
    """One Hi-WAY installation on one simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        hdfs: Optional[HdfsClient] = None,
        rm: Optional[ResourceManager] = None,
        tools: Optional[ToolRegistry] = None,
        provenance_store: Optional[ProvenanceStore] = None,
        config: Optional[HiWayConfig] = None,
        max_containers_per_node: Optional[int] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.hdfs = hdfs if hdfs is not None else HdfsClient(cluster)
        self.config = config or HiWayConfig()
        if rm is None:
            admission = None
            if self.config.max_concurrent_apps is not None:
                admission = AdmissionController(
                    max_concurrent_apps=self.config.max_concurrent_apps,
                    overflow=self.config.admission_overflow,
                    drain=self.config.admission_drain,
                )
            rm = ResourceManager(
                self.env,
                cluster,
                max_containers_per_node=max_containers_per_node,
                policy=self.config.rm_policy,
                admission=admission,
            )
        self.rm = rm
        self.tools = tools if tools is not None else default_registry()
        self.provenance = ProvenanceManager(self.env, provenance_store)
        #: The installation's observability bus (owned by the cluster).
        self.bus = cluster.bus
        #: The installation's metric aggregations (owned by the
        #: cluster's recorder; export with ``registry.to_json()`` /
        #: ``registry.to_prometheus()``).
        self.registry = self.cluster.metrics.registry
        self.bus.subscribe(self.registry.handlers())
        # The AMs publish workflow/task/file events; the provenance
        # manager records them as a bus subscriber (Sec. 3.5).
        self.bus.subscribe(self.provenance.handlers())

    def submit(
        self,
        source: TaskSource,
        scheduler: Optional[WorkflowScheduler | str] = None,
        name: Optional[str] = None,
        config: Optional[HiWayConfig] = None,
        tenant: Optional[str] = None,
    ) -> Process:
        """Spawn a fresh AM for ``source``; returns its process.

        The process's value is the :class:`WorkflowResult` once it ends.
        ``tenant`` names the YARN queue the workflow submits under; the
        default (None) gives each workflow its own tenant.
        """
        am = HiWayApplicationMaster(
            cluster=self.cluster,
            hdfs=self.hdfs,
            rm=self.rm,
            tools=self.tools,
            source=source,
            provenance=self.provenance,
            scheduler=scheduler,
            config=config or self.config,
            name=name,
            tenant=tenant,
        )
        return self.env.process(am.run())

    def run(
        self,
        source: TaskSource,
        scheduler: Optional[WorkflowScheduler | str] = None,
        name: Optional[str] = None,
        config: Optional[HiWayConfig] = None,
        tenant: Optional[str] = None,
    ) -> WorkflowResult:
        """Submit ``source`` and drive the simulation to its completion."""
        process = self.submit(
            source, scheduler=scheduler, name=name, config=config, tenant=tenant
        )
        self.env.run(until=process)
        return process.value

    def submit_many(
        self,
        sources: Sequence[TaskSource],
        scheduler: Optional[WorkflowScheduler | str] = None,
        names: Optional[Sequence[Optional[str]]] = None,
        config: Optional[HiWayConfig] = None,
        tenants: Optional[Sequence[Optional[str]]] = None,
    ) -> list[Process]:
        """Spawn one AM per source against this installation's single RM.

        ``scheduler`` must be a policy *name* (or ``None``) when more
        than one source is given: a scheduler instance binds to exactly
        one AM, so sharing one across concurrent workflows would cross
        their queues. ``tenants`` optionally maps each source onto a
        YARN queue (several workflows may share one tenant).
        """
        if isinstance(scheduler, WorkflowScheduler) and len(sources) > 1:
            raise WorkflowError(
                "pass a scheduler name, not an instance, when submitting "
                "multiple workflows: one scheduler binds to one AM"
            )
        if names is not None and len(names) != len(sources):
            raise WorkflowError(
                f"got {len(names)} names for {len(sources)} sources"
            )
        if tenants is not None and len(tenants) != len(sources):
            raise WorkflowError(
                f"got {len(tenants)} tenants for {len(sources)} sources"
            )
        names = list(names) if names is not None else [None] * len(sources)
        tenants = list(tenants) if tenants is not None else [None] * len(sources)
        return [
            self.submit(
                source, scheduler=scheduler, name=name, config=config,
                tenant=tenant,
            )
            for source, name, tenant in zip(sources, names, tenants)
        ]

    def run_many(
        self,
        sources: Sequence[TaskSource],
        scheduler: Optional[WorkflowScheduler | str] = None,
        names: Optional[Sequence[Optional[str]]] = None,
        config: Optional[HiWayConfig] = None,
        tenants: Optional[Sequence[Optional[str]]] = None,
    ) -> list[WorkflowResult]:
        """Run several workflows concurrently on one RM; results in order.

        Every AM gets its own workflow id (threaded through bus events,
        the metrics registry, the decision audit and the critical-path
        fold), so per-workflow observability survives the
        multi-tenancy (Sec. 3.1: "many independent AMs").
        """
        processes = self.submit_many(
            sources, scheduler=scheduler, names=names, config=config,
            tenants=tenants,
        )
        if processes:
            self.env.run(until=self.env.all_of(processes))
        return [process.value for process in processes]

    # -- convenience used by workloads and examples -----------------------------

    def install_everywhere(self, *tool_names: str) -> None:
        """Install the named tools on every node (workers and masters)."""
        for node in self.cluster.all_nodes():
            node.install(*tool_names)

    def stage_inputs(self, files: dict[str, float], seed: int = 0) -> None:
        """Synchronously materialise input files into HDFS.

        This is setup machinery (the paper does it with Chef recipes), so
        it runs the simulation clock forward over the staging writes.
        See :meth:`HdfsClient.stage_many` for the writer-placement rule.
        """
        self.hdfs.stage_many(files, seed=seed)
