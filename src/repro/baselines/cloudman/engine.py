"""Galaxy CloudMan baseline (Sec. 4.2).

CloudMan turns Galaxy into a small cluster (at most 20 nodes — the paper
calls out this hard limit) scheduled by Slurm. The performance-relevant
difference from Hi-WAY is storage: CloudMan keeps *all* data — inputs,
outputs, and the intermediate files tools scribble while running — on a
persistent EBS volume that is network-attached and shared among all
compute nodes, while Hi-WAY uses the workers' transient local SSDs via
HDFS. Every byte a CloudMan task touches therefore crosses the node's
link, the switch backbone, and the volume's aggregate throughput limit.

Execution runs through the shared
:class:`~repro.core.engine.ExecutionCore` with the
:class:`SlurmQueueBackend` (CloudMan's master-queue path): readiness is
EBS-volume existence, there are no retries, and a task failure aborts
the whole run immediately (``fail_mode="abort"``), as Galaxy does.
"""

from __future__ import annotations

import itertools

from repro.baselines.cloudman.slurm import SlurmJob, SlurmScheduler
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.core.engine import (
    ExecutionBackend,
    ExecutionCore,
    ExecutionResult,
    ReadySetTracker,
    RetryPolicy,
    TaskAttempt,
)
from repro.core.execution import TaskResult
from repro.errors import ToolNotInstalled, WorkflowError
from repro.hdfs.filesystem import FileTransferReport
from repro.obs.events import SchedulingDecision
from repro.tools.profile import ToolRegistry
from repro.workflow.model import WorkflowGraph

__all__ = ["EbsVolume", "SlurmQueueBackend", "GalaxyCloudMan"]

#: CloudMan's automated setup only supports clusters up to this size.
CLOUDMAN_MAX_NODES = 20


class EbsVolume:
    """The shared network volume holding every CloudMan file."""

    def __init__(self, cluster: Cluster):
        self._cluster = cluster
        self._files: dict[str, float] = {}

    def register(self, path: str, size_mb: float) -> None:
        """Place a pre-existing input on the volume."""
        self._files[path] = float(size_mb)

    def exists(self, path: str) -> bool:
        return path in self._files

    def size_of(self, path: str) -> float:
        try:
            return self._files[path]
        except KeyError:
            raise WorkflowError(f"not on the EBS volume: {path!r}") from None

    def read(self, path: str, node_id: str):
        """Event: stream ``path`` from the volume to ``node_id``."""
        return self._cluster.ebs_io(node_id, self.size_of(path), label=f"ebs-r:{path}")

    def write(self, path: str, size_mb: float, node_id: str):
        """Event: stream ``size_mb`` from ``node_id`` onto the volume."""
        self._files[path] = float(size_mb)
        return self._cluster.ebs_io(node_id, size_mb, label=f"ebs-w:{path}")

    def scratch_io(self, size_mb: float, node_id: str):
        """Event: intermediate-file traffic, also through the volume."""
        return self._cluster.ebs_io(node_id, size_mb, label=f"ebs-s:{node_id}")


class SlurmQueueBackend(ExecutionBackend):
    """ExecutionBackend: CloudMan's master-queue path through Slurm."""

    engine = "cloudman"

    def __init__(self, cloudman: "GalaxyCloudMan"):
        self.cloudman = cloudman

    def submit(self, attempt: TaskAttempt) -> None:
        cloudman = self.cloudman
        done = cloudman.slurm.submit(
            lambda node, attempt=attempt: cloudman._job_body(attempt, node),
            tag=attempt.task.task_id,
        )
        cloudman.env.process(self._watch(attempt, done))

    def live_nodes(self) -> set[str]:
        return {
            node.node_id
            for node in self.cloudman.cluster.workers
            if node.alive
        }

    def _watch(self, attempt: TaskAttempt, done):
        """Relay one Slurm job outcome back into the execution core."""
        job, value = yield done
        node_id = job.node.node_id if job.node is not None else ""
        if isinstance(value, BaseException):
            self.core.attempt_finished(attempt, node_id, error=value)
        else:
            # Same attempt vocabulary as the other engines: the recorded
            # makespan, output sizes and EBS transfers feed the
            # critical-path analyzer, provenance and the histograms.
            self.core.attempt_finished(attempt, node_id, value)


class GalaxyCloudMan:
    """Executes Galaxy workflows on Slurm with EBS-backed storage."""

    def __init__(
        self,
        cluster: Cluster,
        tools: ToolRegistry,
        slots_per_node: int = 1,
        use_transient_storage: bool = False,
    ):
        if cluster.spec.worker_count > CLOUDMAN_MAX_NODES:
            raise WorkflowError(
                f"Galaxy CloudMan only supports clusters of up to "
                f"{CLOUDMAN_MAX_NODES} nodes (got {cluster.spec.worker_count})"
            )
        self.env = cluster.env
        self.cluster = cluster
        self.tools = tools
        self.volume = EbsVolume(cluster)
        self.slurm = SlurmScheduler(self.env, cluster.workers, slots_per_node)
        self.slurm.on_assign = self._on_slurm_assign
        #: A later CloudMan update added transient (local-disk) storage;
        #: off by default, as EBS "continues to be the default option".
        self.use_transient_storage = use_transient_storage
        self._core: ExecutionCore | None = None
        self._workflow_ids = itertools.count(1)

    def stage_inputs(self, files: dict[str, float]) -> None:
        """Place input files onto the volume (no simulated time)."""
        for path, size_mb in files.items():
            self.volume.register(path, size_mb)

    # -- execution --------------------------------------------------------------

    def run(self, graph: WorkflowGraph) -> ExecutionResult:
        """Execute ``graph`` and drive the simulation to completion."""
        process = self.env.process(self.execute(graph))
        self.env.run(until=process)
        return process.value

    def execute(self, graph: WorkflowGraph):
        """Generator process executing ``graph`` on Slurm."""
        graph.validate()
        started = self.env.now
        core = ExecutionCore(
            self.env,
            SlurmQueueBackend(self),
            bus=self.cluster.bus,
            tracker=ReadySetTracker(storage_exists=self.volume.exists),
            retry=RetryPolicy(max_retries=0, exclude_failed_nodes=False),
            name=graph.name,
            fail_mode="abort",  # Galaxy aborts the run on the first failure
        )
        self._core = core
        core.begin(f"cloudman-{next(self._workflow_ids):04d}")
        for path in graph.input_files():
            if not self.volume.exists(path):
                return core.finalize(
                    started, error=f"missing input file {path!r}"
                )
        if not graph.tasks:
            return core.finalize(started)
        core.register(graph.topological_order())
        core.dispatch_ready()
        if core.deadlocked():
            return core.finalize(
                started, error="workflow stalled: no runnable tasks"
            )
        yield core.done
        return core.finalize(started)

    def _job_body(self, attempt: TaskAttempt, node: Node):
        """One Galaxy job: EBS stage-in, tool run, EBS stage-out.

        Returns a :class:`~repro.core.execution.TaskResult` so the
        backend reports the same attempt vocabulary (makespan, output
        sizes, per-file transfer reports) as the container engines.
        Every EBS byte crosses the network, so transfers count as
        remote; parallel stage-in/out files share one timed window.
        """
        task = attempt.task
        started = self.env.now
        self._core.attempt_running(attempt, node.node_id)
        profile = self.tools.get(task.tool)
        if not node.has_software(task.tool):
            raise ToolNotInstalled(
                f"{task.tool!r} missing on {node.node_id}",
                task_id=task.task_id,
                node=node.node_id,
            )
        reads = [self.volume.read(path, node.node_id) for path in task.inputs]
        if reads:
            yield self.env.all_of(reads)
        in_seconds = self.env.now - started
        input_reports = [
            FileTransferReport(
                path=path,
                node_id=node.node_id,
                size_mb=self.volume.size_of(path),
                local_mb=0.0,
                remote_mb=self.volume.size_of(path),
                seconds=in_seconds,
                direction="in",
            )
            for path in task.inputs
        ]
        input_mb = sum(self.volume.size_of(path) for path in task.inputs)
        threads = min(profile.max_threads, node.spec.cores)
        yield node.compute(profile.work_for(input_mb), threads=threads)
        # Scratch I/O is sequential with compute (see
        # repro.core.execution); on CloudMan it crosses the network to
        # the shared volume unless transient storage is enabled.
        scratch = profile.scratch_mb(input_mb)
        if scratch > 0:
            if self.use_transient_storage:
                yield node.disk_io(scratch)
            else:
                yield self.volume.scratch_io(scratch, node.node_id)
        sizes = profile.output_sizes(input_mb, len(task.outputs))
        out_started = self.env.now
        writes = []
        written: list[tuple[str, float]] = []
        for index, path in enumerate(task.outputs):
            hinted = task.hinted_size(path)
            size = sizes[index] if hinted is None else hinted
            writes.append(self.volume.write(path, size, node.node_id))
            written.append((path, size))
        if writes:
            yield self.env.all_of(writes)
        out_seconds = self.env.now - out_started
        return TaskResult(
            task_id=task.task_id,
            node_id=node.node_id,
            started_at=started,
            finished_at=self.env.now,
            input_reports=input_reports,
            output_reports=[
                FileTransferReport(
                    path=path,
                    node_id=node.node_id,
                    size_mb=size,
                    local_mb=0.0,
                    remote_mb=size,
                    seconds=out_seconds,
                    direction="out",
                )
                for path, size in written
            ],
            output_sizes=dict(written),
        )

    # -- observability hooks ----------------------------------------------------

    def _on_slurm_assign(self, job: SlurmJob, node: Node, free: dict) -> None:
        """Publish Slurm's placement in the shared decision vocabulary."""
        bus = self.cluster.bus
        if not bus.wants(SchedulingDecision):
            return
        workflow_id = (
            self._core.workflow_id if self._core is not None else None
        )
        bus.emit(SchedulingDecision(
            workflow_id=workflow_id or "",
            policy="slurm-fifo",
            kind="queue-bind",
            task_id=job.tag,
            node_id=node.node_id,
            candidate_kind="node",
            candidates=tuple(
                (candidate.node_id, float(free[candidate.node_id]))
                for candidate in self.slurm.nodes
            ),
            score_name="free slots",
            better="max",
            reason="FIFO head of the Slurm queue lands on the first "
            "node with a free slot in scan order",
        ))
