"""A miniature Tez application master (Sec. 2.2, evaluated in Sec. 4.1).

Differences from the Hi-WAY AM that matter for the Figure 4 comparison:

* **no data-aware placement** — tasks are bound to whatever container
  YARN hands over next, so input blocks are fetched across the network
  whenever the round-robin allocation lands elsewhere;
* **stage barriers** — a scatter-gather edge forces the whole upstream
  vertex to finish before any downstream task starts;
* **no provenance / adaptive scheduling** — Tez collects no cross-run
  statistics the way Hi-WAY's Provenance Manager does.

What is shared — deliberately — is the container lifecycle (HDFS
stage-in, tool invocation, HDFS stage-out), the YARN substrate, and the
task-attempt FSM of :class:`~repro.core.engine.ExecutionCore`, so the
comparison isolates scheduling behaviour just like the paper's
experiment did. The Tez-specific part is the
:class:`TezVertexBackend`: a strict-FIFO container pool with Tez's
signature container reuse, gated by vertex barriers.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.tez.dag import SCATTER_GATHER, TezDag, from_workflow_graph
from repro.cluster.cluster import Cluster
from repro.core.engine import (
    ExecutionBackend,
    ExecutionCore,
    ExecutionResult,
    ReadySetTracker,
    RetryPolicy,
    TaskAttempt,
)
from repro.core.execution import run_task_in_container
from repro.hdfs.filesystem import HdfsClient
from repro.obs.events import SchedulingDecision
from repro.tools.profile import ToolRegistry
from repro.workflow.model import TaskSpec, WorkflowGraph
from repro.yarn.records import ContainerResource, ContainerState
from repro.yarn.resourcemanager import ResourceManager

__all__ = ["TezVertexBackend", "TezApplicationMaster"]


class TezVertexBackend(ExecutionBackend):
    """ExecutionBackend: strict-FIFO container pool with reuse.

    Submitted attempts join one locality-blind queue; each outstanding
    container request spawns a chain that serves queue entries off
    whatever node YARN allocated, reusing the warm container while the
    queue is non-empty (Tez's signature optimisation).
    """

    engine = "tez"

    def __init__(self, am: "TezApplicationMaster"):
        self.am = am
        self.queue: list[TaskAttempt] = []
        #: Chains currently holding or awaiting a container.
        self.chains = 0

    # -- protocol ----------------------------------------------------------------

    def submit(self, attempt: TaskAttempt) -> None:
        am = self.am
        self.queue.append(attempt)
        request = am.rm.request_container(am._app, am.container_resource)
        self.chains += 1
        am.env.process(self._chain(request))

    def live_nodes(self) -> set[str]:
        return {
            node.node_id for node in self.am.cluster.workers if node.alive
        }

    def quiescent(self) -> bool:
        return self.chains == 0 and not self.queue

    # -- container lifecycle -----------------------------------------------------

    def _chain(self, request):
        am = self.am
        core = self.core
        container = yield request
        while True:
            if core.workflow_failed or not self.queue:
                am.rm.release_container(container)
                self.chains -= 1
                core.check_done()
                return
            bus = am.cluster.bus
            if bus.wants(SchedulingDecision):
                # Same decision vocabulary as the Hi-WAY schedulers so
                # `explain` and the decision audit work on this engine:
                # strict FIFO means the score is the queue position.
                bus.emit(SchedulingDecision(
                    workflow_id=core.workflow_id or "",
                    policy="tez-fifo",
                    kind="queue-bind",
                    task_id=self.queue[0].task.task_id,
                    node_id=container.node_id,
                    candidate_kind="task",
                    candidates=tuple(
                        (queued.task.task_id, float(position))
                        for position, queued in enumerate(self.queue)
                    ),
                    score_name="queue position",
                    better="min",
                    reason="strict FIFO: head of the vertex queue binds "
                    "to the next allocated container",
                ))
            attempt = self.queue.pop(0)  # strict FIFO, no locality
            core.attempt_running(attempt, container.node_id)
            transfers = []
            watcher = am.rm.node_managers[container.node_id].launch(
                container,
                run_task_in_container(
                    am.env, am.cluster, am.hdfs, am.tools,
                    attempt.task, container, transfers,
                ),
            )
            outcome = yield watcher
            if outcome.success:
                core.attempt_finished(attempt, container.node_id, outcome.value)
            else:
                core.attempt_finished(
                    attempt, container.node_id, error=outcome.error,
                    transfers=transfers,
                )
            reusable = (
                am.reuse_containers
                and container.state is ContainerState.COMPLETED
                and am.cluster.node(container.node_id).alive
                and not core.workflow_failed
                and bool(self.queue)
            )
            if reusable:
                # Tez's signature optimisation: the warm container takes
                # the next queued task instead of going back to YARN.
                # Surplus outstanding requests simply find an empty queue
                # on allocation and release immediately.
                am.containers_reused += 1
                continue
            am.rm.release_container(container)
            self.chains -= 1
            core.check_done()
            return


class TezApplicationMaster:
    """Runs one Tez DAG on the simulated YARN cluster."""

    def __init__(
        self,
        cluster: Cluster,
        hdfs: HdfsClient,
        rm: ResourceManager,
        tools: ToolRegistry,
        dag: TezDag | WorkflowGraph,
        container_resource: Optional[ContainerResource] = None,
        max_retries: int = 2,
        reuse_containers: bool = True,
    ):
        self.env = cluster.env
        self.cluster = cluster
        self.hdfs = hdfs
        self.rm = rm
        self.tools = tools
        self.dag = dag if isinstance(dag, TezDag) else from_workflow_graph(dag)
        self.container_resource = container_resource or ContainerResource()
        self.max_retries = max_retries
        #: Tez's signature container reuse: a finished task's container
        #: picks up the next queued task instead of being released.
        self.reuse_containers = reuse_containers
        self.containers_reused = 0

        self._vertex_of: dict[str, str] = {}
        self._remaining_in_vertex: dict[str, int] = {}
        for vertex in self.dag.vertices.values():
            self._remaining_in_vertex[vertex.name] = len(vertex.tasks)
            for task in vertex.tasks:
                self._vertex_of[task.task_id] = vertex.name
        #: Vertices gated by scatter-gather edges from these upstreams.
        self._barriers: dict[str, set[str]] = {
            name: {
                edge.src
                for edge in self.dag.upstream_of(name)
                if edge.kind == SCATTER_GATHER
            }
            for name in self.dag.vertices
        }
        self.backend = TezVertexBackend(self)
        self.core = ExecutionCore(
            self.env,
            self.backend,
            bus=cluster.bus,
            tracker=ReadySetTracker(
                storage_exists=hdfs.exists, gate=self._task_unblocked
            ),
            retry=RetryPolicy(
                max_retries=max_retries, exclude_failed_nodes=False
            ),
            name=self.dag.name,
            fail_mode="drain",
            on_success=self._on_attempt_success,
        )
        self._app = None

    # -- readiness -------------------------------------------------------------

    def _vertex_unblocked(self, vertex_name: str) -> bool:
        return all(
            self._remaining_in_vertex[upstream] == 0
            for upstream in self._barriers[vertex_name]
        )

    def _task_unblocked(self, task: TaskSpec) -> bool:
        return self._vertex_unblocked(self._vertex_of[task.task_id])

    # -- main process ---------------------------------------------------------------

    def run(self):
        """Generator process executing the DAG to completion."""
        started = self.env.now
        self._app = self.rm.register_application(f"tez:{self.dag.name}")
        self.core.begin(self._app.app_id)
        for path in self.dag.input_files():
            if not self.hdfs.exists(path):
                return self._finish(started, error=f"missing input file {path!r}")
            self.core.add_available([path])
        total = sum(v.parallelism for v in self.dag.vertices.values())
        if total == 0:
            return self._finish(started)
        self.core.register(
            task
            for vertex in self.dag.vertices.values()
            for task in vertex.tasks
        )
        self.core.dispatch_ready()
        if self.core.deadlocked():
            return self._finish(started, error="DAG has no runnable tasks")
        yield self.core.done
        return self._finish(started)

    def _finish(self, started: float, error: Optional[str] = None) -> ExecutionResult:
        if error is not None:
            self.core.fail(error)
        if self._app is not None:
            self.rm.unregister_application(self._app)
        return self.core.finalize(started)

    # -- execution-core hooks -------------------------------------------------------

    def _on_attempt_success(self, attempt: TaskAttempt, result) -> None:
        # Un-gate the downstream vertex before the core re-scans the
        # ready set: scatter-gather barriers lift exactly when the last
        # task of the upstream vertex completes.
        vertex_name = self._vertex_of[attempt.task.task_id]
        self._remaining_in_vertex[vertex_name] -= 1
