"""The worker-container lifecycle (Sec. 3.1).

Once YARN allocates a worker container, its life consists of
(i) obtaining the task's input data from HDFS, (ii) invoking the
commands associated with the task, and (iii) storing any generated
output data in HDFS for consumption by other containers. This module
implements that lifecycle as a simulation generator, including the two
failure modes the black-box model surfaces: missing executables and
containers too small for the tool's memory footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.errors import OutOfMemory, ToolNotInstalled
from repro.hdfs.filesystem import FileTransferReport, HdfsClient
from repro.tools.profile import ToolRegistry
from repro.workflow.model import TaskSpec
from repro.yarn.records import Container

__all__ = ["TaskResult", "run_task_in_container"]


@dataclass
class TaskResult:
    """Everything observed while running one task attempt."""

    task_id: str
    node_id: str
    started_at: float
    finished_at: float
    input_reports: list[FileTransferReport] = field(default_factory=list)
    output_reports: list[FileTransferReport] = field(default_factory=list)
    output_sizes: dict[str, float] = field(default_factory=dict)

    @property
    def makespan_seconds(self) -> float:
        return self.finished_at - self.started_at

    @property
    def input_mb(self) -> float:
        return sum(report.size_mb for report in self.input_reports)


def run_task_in_container(
    env,
    cluster: Cluster,
    hdfs: HdfsClient,
    tools: ToolRegistry,
    task: TaskSpec,
    container: Container,
):
    """Generator executing ``task`` inside ``container``.

    Returns a :class:`TaskResult`; raises :class:`ToolNotInstalled` or
    :class:`OutOfMemory` for the corresponding failure modes.
    """
    node = cluster.node(container.node_id)
    profile = tools.get(task.tool)
    if not node.has_software(task.tool):
        raise ToolNotInstalled(
            f"{task.tool!r} is not installed on {node.node_id}",
            task_id=task.task_id,
            node=node.node_id,
        )
    if profile.memory_mb > container.resource.memory_mb:
        raise OutOfMemory(
            f"{task.tool!r} needs {profile.memory_mb:.0f} MB but the container "
            f"provides {container.resource.memory_mb:.0f} MB",
            task_id=task.task_id,
            node=node.node_id,
        )
    started = env.now

    # Idempotent re-execution: a retried task overwrites the outputs a
    # failed attempt may have partially registered.
    for path in task.outputs:
        if hdfs.exists(path):
            hdfs.delete(path)

    # (i) stage-in: all inputs in parallel.
    stage_in = [env.process(hdfs.read(path, node.node_id)) for path in task.inputs]
    if stage_in:
        yield env.all_of(stage_in)
    input_reports = [process.value for process in stage_in]
    input_mb = sum(report.size_mb for report in input_reports)

    # (ii) invoke: compute, then the tool's intermediate-file traffic.
    # Scratch I/O is sequential with compute: tools like TopHat2 write
    # and re-read temporary files *between* their processing stages, so
    # slow scratch storage directly lengthens the task.
    threads = min(
        profile.max_threads if task.threads is None else task.threads,
        container.resource.vcores,
    )
    yield node.compute(
        profile.work_for(input_mb), threads=threads, label=f"run:{task.task_id}"
    )
    scratch = profile.scratch_mb(input_mb)
    if scratch > 0:
        yield node.disk_io(scratch, label=f"scratch:{task.task_id}")

    # (iii) stage-out: compute output sizes, then write all in parallel.
    default_sizes = profile.output_sizes(input_mb, len(task.outputs))
    output_sizes: dict[str, float] = {}
    for index, path in enumerate(task.outputs):
        hinted = task.hinted_size(path)
        output_sizes[path] = default_sizes[index] if hinted is None else hinted
    stage_out = [
        env.process(hdfs.write(path, size, node.node_id))
        for path, size in output_sizes.items()
    ]
    if stage_out:
        yield env.all_of(stage_out)
    output_reports = [process.value for process in stage_out]

    return TaskResult(
        task_id=task.task_id,
        node_id=node.node_id,
        started_at=started,
        finished_at=env.now,
        input_reports=input_reports,
        output_reports=output_reports,
        output_sizes=output_sizes,
    )
