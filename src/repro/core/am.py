"""The Hi-WAY Application Master (Sec. 3.1, 3.3).

One AM instance runs per submitted workflow. It embeds the three
components of Figure 1:

* the **Workflow Driver** logic: track file availability, release tasks
  whose data dependencies are met, dynamically register tasks discovered
  when iterative workflows complete a task (Sec. 3.3);
* the **Workflow Scheduler**: a pluggable policy asked to pick a task
  whenever YARN allocates a container (Sec. 3.4);
* the **Provenance Manager** hook-ups: every workflow/task/file event is
  recorded (Sec. 3.5).

The task lifecycle itself — ready-set tracking, attempt accounting,
retry-on-another-node (Sec. 3.1), completion and deadlock detection —
lives in the shared :class:`~repro.core.engine.ExecutionCore`; this
module contributes the YARN-specific
:class:`~repro.core.engine.ExecutionBackend` (late-binding container
requests) and the Hi-WAY policy hooks around it.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.core.config import HiWayConfig
from repro.core.engine import (
    ExecutionBackend,
    ExecutionCore,
    ReadySetTracker,
    RetryPolicy,
    TaskAttempt,
    WorkflowResult,
)
from repro.core.execution import TaskResult, run_task_in_container
from repro.core.provenance.manager import ProvenanceManager
from repro.core.schedulers import SchedulerContext, WorkflowScheduler, make_scheduler
from repro.errors import WorkflowError
from repro.obs.events import FileStaged
from repro.hdfs.filesystem import HdfsClient
from repro.tools.profile import ToolRegistry
from repro.workflow.model import TaskSource, TaskSpec
from repro.yarn.records import ContainerResource
from repro.yarn.resourcemanager import ResourceManager

__all__ = ["WorkflowResult", "YarnExecutionBackend", "HiWayApplicationMaster"]


class YarnExecutionBackend(ExecutionBackend):
    """ExecutionBackend: late-binding container requests on sim-YARN.

    Every submitted attempt puts one container request in flight; when
    the RM allocates, the workflow scheduler late-binds whichever queued
    task suits the allocated node (Sec. 3.4) — unless adaptive container
    sizing pinned the request to the task it was tailored for.
    """

    engine = "hiway"

    def __init__(self, am: "HiWayApplicationMaster"):
        self.am = am

    # -- protocol ----------------------------------------------------------------

    def submit(self, attempt: TaskAttempt) -> None:
        am = self.am
        task = attempt.task
        resource = am._resource_for(task)
        if not self._fits_somewhere(resource):
            self.core.fail(
                f"task {task.task_id}: container {resource} fits no node"
            )
            self.core.check_done()
            return
        bound_task = None
        if am.config.adaptive_container_sizing:
            # A custom-tailored container only suits the task it was
            # sized for, so the usual late binding at allocation time is
            # replaced by a fixed request-to-task pairing.
            bound_task = task
        else:
            am.scheduler.enqueue(task, frozenset(attempt.excluded_nodes))
        placement = am.scheduler.placement_for(task)
        request = am.rm.request_container(
            am._app,
            resource,
            preferred_node=placement,
            strict=placement is not None,
        )
        am.env.process(self._allocation_chain(request, resource, bound_task))

    def live_nodes(self) -> set[str]:
        return {
            node.node_id for node in self.am.cluster.workers if node.alive
        }

    def quiescent(self) -> bool:
        return self.am.scheduler.pending_count() == 0

    # -- container lifecycle -----------------------------------------------------

    def _fits_somewhere(self, resource: ContainerResource) -> bool:
        return any(
            resource.vcores <= node.spec.cores
            and resource.memory_mb <= node.spec.memory_mb
            for node in self.am.cluster.workers
            if node.alive
        )

    def _allocation_chain(self, request, resource: ContainerResource, bound_task=None):
        """Wait for a container, bind a task to it, run it, react."""
        am = self.am
        core = self.core
        container = yield request
        if core.workflow_failed:
            am.rm.release_container(container)
            return
        am._charge(am.config.am_work_per_decision, "am-schedule")
        if bound_task is not None:
            task = bound_task
        else:
            task = am.scheduler.select_task(container.node_id)
        if task is None:
            # Nothing eligible for this node (e.g. all waiting tasks have
            # excluded it after failures): give the container back and ask
            # for a replacement so no queued task loses its request. The
            # replacement waits one heartbeat cycle; an immediate re-ask
            # could be served by the very same node within the same
            # simulated instant, spinning forever.
            am.rm.release_container(container)
            if am.scheduler.pending_count() > 0:
                yield am.env.timeout(1.0)
                replacement = am.rm.request_container(am._app, resource)
                am.env.process(self._allocation_chain(replacement, resource))
            core.check_done()
            return
        attempt = core.attempt_for(task.task_id)
        core.attempt_running(attempt, container.node_id)
        watcher = am.rm.node_managers[container.node_id].launch(
            container,
            run_task_in_container(
                am.env, am.cluster, am.hdfs, am.tools, task, container
            ),
        )
        outcome = yield watcher
        am.rm.release_container(container)
        if outcome.success:
            result = outcome.value
            core.attempt_finished(
                attempt,
                container.node_id,
                success=True,
                makespan_seconds=result.makespan_seconds,
                output_sizes=result.output_sizes,
                value=result,
            )
        else:
            core.attempt_finished(
                attempt, container.node_id, success=False, error=outcome.error
            )


class HiWayApplicationMaster:
    """Executes one workflow on the simulated YARN cluster."""

    def __init__(
        self,
        cluster: Cluster,
        hdfs: HdfsClient,
        rm: ResourceManager,
        tools: ToolRegistry,
        source: TaskSource,
        provenance: ProvenanceManager,
        scheduler: Optional[WorkflowScheduler | str] = None,
        config: Optional[HiWayConfig] = None,
        name: Optional[str] = None,
        tenant: Optional[str] = None,
    ):
        self.env = cluster.env
        self.cluster = cluster
        self.hdfs = hdfs
        self.rm = rm
        self.tools = tools
        self.source = source
        self.provenance = provenance
        # The AM publishes workflow/task/file events onto the cluster's
        # observability bus; the provenance manager, subscribed by the
        # installation, records them (Sec. 3.5).
        self.bus = cluster.bus
        self.config = config or HiWayConfig()
        if scheduler is None:
            scheduler = self.config.scheduler
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self.scheduler = scheduler
        self.name = name or getattr(source, "name", "workflow")
        #: Tenant (YARN queue) the AM submits under; None lets the RM
        #: default to the fresh app id (one tenant per application).
        self.tenant = tenant
        self.scheduler.bind(
            SchedulerContext(
                worker_ids=cluster.worker_ids,
                hdfs=hdfs,
                provenance=provenance,
                bus=self.bus,
            )
        )
        # AM host: the last master node, modelling the dedicated-AM
        # machine of the Sec. 4.1 experiments (with a single master, the
        # AM shares it with the Hadoop daemons).
        am_node_id = self.config.am_node
        if am_node_id is None:
            am_node_id = cluster.masters[-1].node_id if cluster.masters else None
        self._am_host = cluster.node(am_node_id) if am_node_id else None

        self.backend = YarnExecutionBackend(self)
        self.core = ExecutionCore(
            self.env,
            self.backend,
            bus=self.bus,
            tracker=ReadySetTracker(
                storage_exists=hdfs.exists, track_internal_outputs=True
            ),
            retry=RetryPolicy(max_retries=self.config.max_retries),
            name=self.name,
            fail_mode="drain",
            on_success=self._on_attempt_success,
            on_failure=self._on_attempt_failure,
            discover=self._discover_tasks,
            more_tasks_expected=lambda: not self.source.is_done(),
            result_cls=WorkflowResult,
        )
        self._app = None
        self._heartbeat_flow = None

    # -- small helpers -----------------------------------------------------------

    def _charge(self, work: float, label: str) -> None:
        if self._am_host is not None and work > 0:
            self._am_host.compute(work, threads=1, label=label)

    def _resource_for(self, task: TaskSpec) -> ContainerResource:
        if self.config.adaptive_container_sizing:
            profile = self.tools.get(task.tool)
            return ContainerResource(
                vcores=min(profile.max_threads, self.cluster.spec.worker_spec.cores),
                memory_mb=profile.memory_mb * 1.1,
            )
        return ContainerResource(
            vcores=self.config.container_vcores,
            memory_mb=self.config.container_memory_mb,
        )

    # -- main process -------------------------------------------------------------

    def run(self):
        """Generator process executing the whole workflow."""
        started = self.env.now
        ticket = self.rm.submit_application(self.name, tenant=self.tenant)
        if ticket.rejected:
            workflow_id = self.provenance.allocate_workflow_id()
            if self.scheduler.context is not None:
                self.scheduler.context.workflow_id = workflow_id
            self.core.begin(workflow_id)
            return self._finish(
                started, error=f"admission rejected: {ticket.reason}"
            )
        if ticket.handle is not None:
            self._app = ticket.handle
        else:
            # Queued behind the admission cap; the RM fires the event
            # with our handle once a running application unregisters.
            self._app = yield ticket.event
        workflow_id = self.provenance.allocate_workflow_id()
        if self.scheduler.context is not None:
            # Stamp decisions with the id now that provenance minted it.
            self.scheduler.context.workflow_id = workflow_id
            self.scheduler.context.tenant = self._app.tenant
        self.core.begin(workflow_id)
        if self._am_host is not None:
            # Container supervision / RM heartbeat load for the lifetime
            # of the workflow, growing with cluster size (Fig. 6).
            self._heartbeat_flow = self.cluster.network.start_flow(
                size=None,
                resources=[self._am_host.cpu],
                cap=0.0005 * len(self.cluster.workers) + 0.001,
                label=f"am-heartbeat:{self.name}",
            )
        try:
            initial = self.source.initial_tasks()
        except WorkflowError as error:
            return self._finish(started, error=str(error))

        # Verify the workflow's pre-existing inputs.
        for path in self.source.input_files():
            if not self.hdfs.exists(path):
                return self._finish(started, error=f"missing input file {path!r}")
            self.core.add_available([path])

        if self.scheduler.is_static:
            if not self.source.is_done():
                return self._finish(
                    started,
                    error=(
                        f"static scheduler {self.scheduler.name!r} cannot run "
                        "iterative workflows (Sec. 3.4)"
                    ),
                )
            self.scheduler.plan(initial)

        self.core.register(initial)
        if not self.core.tasks and self.source.is_done():
            return self._finish(started)  # Empty workflow.
        self.core.dispatch_ready()
        if self.core.deadlocked():
            return self._finish(started, error="workflow has no runnable tasks")

        yield self.core.done
        return self._finish(started)

    def _finish(self, started: float, error: Optional[str] = None) -> WorkflowResult:
        if error is not None:
            self.core.fail(error)
        success = not self.core.workflow_failed
        self.scheduler.unbind()
        if self._heartbeat_flow is not None:
            self._heartbeat_flow.cancel()
            self._heartbeat_flow = None
        if self._app is not None:
            self.rm.unregister_application(self._app)
        outputs: dict[str, float] = {}
        if success:
            for path in self.source.target_files():
                if self.hdfs.exists(path):
                    outputs[path] = self.hdfs.size_of(path)
        return self.core.finalize(
            started, scheduler=self.scheduler.name, output_files=outputs
        )

    # -- execution-core hooks -------------------------------------------------------

    def _on_attempt_success(self, attempt: TaskAttempt, result: TaskResult) -> None:
        task = attempt.task
        for report in result.input_reports + result.output_reports:
            self.bus.emit(FileStaged(
                workflow_id=self.core.workflow_id, task=task, report=report
            ))
            self._charge(self.config.am_work_per_event, "am-provenance")
        self._charge(self.config.am_work_per_event, "am-provenance")
        self.scheduler.on_task_finished(
            task, result.node_id, result.makespan_seconds, success=True
        )

    def _on_attempt_failure(self, attempt: TaskAttempt, node_id: str, error) -> None:
        self.scheduler.on_task_finished(attempt.task, node_id, 0.0, success=False)

    def _discover_tasks(self, attempt: TaskAttempt, output_sizes: dict[str, float]):
        return self.source.on_task_completed(attempt.task, output_sizes)
