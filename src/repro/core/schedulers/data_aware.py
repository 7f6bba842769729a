"""Data-aware scheduling — Hi-WAY's default policy (Sec. 3.4).

Intended for I/O-intensive workflows: whenever a container is allocated,
the scheduler skims through *all* tasks pending execution and selects the
one with the highest fraction of its input data already present (in
HDFS) on the container's node, minimising network transfer.
"""

from __future__ import annotations

from typing import Optional

from repro.core.schedulers.base import QueueScheduler, SchedulerContext
from repro.errors import SchedulingError
from repro.obs.events import NodeCrashed
from repro.workflow.model import TaskSpec

__all__ = ["DataAwareScheduler"]


class DataAwareScheduler(QueueScheduler):
    """Maximises input-data locality at container-allocation time.

    Pure greedy locality can starve a task whose replica holders are
    always busy with other local work, serialising it into a long tail;
    a small aging rule bounds how often a task may be passed over before
    it runs wherever the next container happens to be.
    """

    name = "data-aware"

    def __init__(self):
        super().__init__()
        # task_id -> {node_id -> fraction}. A task's inputs all exist by
        # the time it is ready and HDFS files are immutable, so locality
        # is constant for the task's queue lifetime; taking a task drops
        # its whole per-node map at once. Node crashes change replica
        # sets cluster-wide, so the bus subscription below clears the
        # cache outright rather than trying to patch it.
        self._fraction_cache: dict[str, dict[str, float]] = {}
        self._crash_subscription = None

    def bind(self, context: SchedulerContext) -> None:
        super().bind(context)
        self._cancel_crash_subscription()
        self._fraction_cache.clear()
        if context.bus is not None:
            self._crash_subscription = context.bus.subscribe(
                {NodeCrashed: self._on_node_crashed}
            )

    def unbind(self) -> None:
        self._cancel_crash_subscription()
        self._fraction_cache.clear()
        super().unbind()

    def _cancel_crash_subscription(self) -> None:
        if self._crash_subscription is not None:
            self._crash_subscription.cancel()
            self._crash_subscription = None

    def _on_node_crashed(self, event: NodeCrashed) -> None:
        # Losing a DataNode invalidates every cached fraction: the
        # crashed node's replicas are gone from all files' replica sets.
        self._fraction_cache.clear()

    def _fraction(self, task: TaskSpec, node_id: str, hdfs) -> float:
        node_map = self._fraction_cache.get(task.task_id)
        if node_map is None:
            node_map = self._fraction_cache[task.task_id] = {}
        cached = node_map.get(node_id)
        if cached is None:
            cached = node_map[node_id] = hdfs.local_fraction(task.inputs, node_id)
        return cached

    def _score_eligible(
        self, eligible: list[int], node_id: str, hdfs
    ) -> list[float]:
        """Locality fractions of all eligible tasks, cache-backed.

        Cache misses are scored against the NameNode in one batched call
        when the client supports it (:meth:`HdfsClient.local_fractions`);
        simpler HDFS stand-ins fall back to per-task queries.
        """
        cache = self._fraction_cache
        fractions: list[Optional[float]] = []
        missing: list[int] = []  # positions within ``eligible``
        for position, index in enumerate(eligible):
            task = self._queue[index].task
            node_map = cache.get(task.task_id)
            cached = None if node_map is None else node_map.get(node_id)
            fractions.append(cached)
            if cached is None:
                missing.append(position)
        if missing:
            batch = getattr(hdfs, "local_fractions", None)
            if batch is not None:
                scored = batch(
                    [self._queue[eligible[p]].task.inputs for p in missing],
                    node_id,
                )
            else:
                scored = [
                    hdfs.local_fraction(
                        self._queue[eligible[p]].task.inputs, node_id
                    )
                    for p in missing
                ]
            for position, fraction in zip(missing, scored):
                task = self._queue[eligible[position]].task
                cache.setdefault(task.task_id, {})[node_id] = fraction
                fractions[position] = fraction
        return fractions  # type: ignore[return-value]

    def _take(self, index: int) -> TaskSpec:
        task = super()._take(index)
        # Evict the task's entire per-node map: leaving the other nodes'
        # entries behind would leak one stale entry per worker for every
        # completed task over a workflow's lifetime.
        self._fraction_cache.pop(task.task_id, None)
        return task

    def select_task(self, node_id: str) -> Optional[TaskSpec]:
        context = self._require_context()
        if context.hdfs is None:
            raise SchedulingError("data-aware scheduling needs an HDFS client")
        eligible = self._eligible_indices(node_id)
        if not eligible:
            return None
        audited = self._decisions_wanted()
        # Endgame guard: once fewer tasks wait than workers could serve,
        # withholding a task in the hope of a better-placed container
        # only idles the cluster and serialises the stragglers — take
        # the oldest task and eat the transfer instead.
        if len(eligible) <= max(1, len(context.worker_ids) // 2):
            if audited:
                self._emit_decision(
                    task_id=self._queue[eligible[0]].task.task_id,
                    node_id=node_id,
                    kind="queue-bind",
                    candidate_kind="task",
                    candidates=[
                        (entry.task.task_id,
                         self._fraction(entry.task, node_id, context.hdfs))
                        for entry in (self._queue[i] for i in eligible)
                    ],
                    score_name="locality_fraction",
                    better="max",
                    reason="endgame-fifo",
                )
            return self._take(eligible[0])
        fractions = self._score_eligible(eligible, node_id, context.hdfs)
        best_index = eligible[0]
        best_fraction = -1.0
        candidates: list[tuple[str, float]] = []
        for position, index in enumerate(eligible):
            fraction = fractions[position]
            if audited:
                candidates.append((self._queue[index].task.task_id, fraction))
            # Strictly-greater keeps FIFO order among ties.
            if fraction > best_fraction:
                best_fraction = fraction
                best_index = index
        if audited:
            self._emit_decision(
                task_id=self._queue[best_index].task.task_id,
                node_id=node_id,
                kind="queue-bind",
                candidate_kind="task",
                candidates=candidates,
                score_name="locality_fraction",
                better="max",
            )
        return self._take(best_index)
