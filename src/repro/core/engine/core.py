"""The engine-agnostic execution core.

One loop drives every engine in this repository: register tasks,
dispatch the ready set, account running/awaiting attempts through the
:class:`~repro.core.engine.fsm.TaskAttempt` FSM, retry failures under a
:class:`~repro.core.engine.retry.RetryPolicy`, detect completion /
stalls / deadlocks, and emit the same ``repro.obs`` events regardless
of the substrate. The engines themselves shrink to policy shells: an
:class:`~repro.core.engine.backend.ExecutionBackend` plus a few hooks.

Two failure modes exist (both observed in the originals): ``"drain"``
lets in-flight attempts finish after the workflow has failed (Hi-WAY,
Tez), ``"abort"`` declares the run over immediately (CloudMan).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.core.engine.backend import ExecutionBackend
from repro.core.engine.fsm import AttemptState, TaskAttempt
from repro.core.engine.ready import ReadySetTracker
from repro.core.engine.result import ExecutionResult
from repro.core.engine.retry import RetryPolicy
from repro.errors import WorkflowError
from repro.obs.events import (
    TaskAttemptFinished,
    TaskDispatched,
    TaskRetried,
    WorkflowFinished,
    WorkflowStarted,
)
from repro.workflow.model import TaskSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution import TaskResult

__all__ = ["ExecutionCore"]

#: Stuck-task ids named in the deadlock diagnostic before truncation.
_DEADLOCK_NAMED_TASKS = 8


class ExecutionCore:
    """Shared task-attempt lifecycle loop over a pluggable backend."""

    def __init__(
        self,
        env,
        backend: ExecutionBackend,
        *,
        bus=None,
        tracker: Optional[ReadySetTracker] = None,
        retry: Optional[RetryPolicy] = None,
        name: str = "workflow",
        fail_mode: str = "drain",
        on_success: Optional[Callable] = None,
        on_failure: Optional[Callable] = None,
        discover: Optional[Callable] = None,
        more_tasks_expected: Optional[Callable[[], bool]] = None,
    ):
        if fail_mode not in ("drain", "abort"):
            raise ValueError(f"unknown fail_mode {fail_mode!r}")
        self.env = env
        self.backend = backend
        backend.core = self
        self.bus = bus
        self.tracker = tracker if tracker is not None else ReadySetTracker()
        self.retry = retry if retry is not None else RetryPolicy()
        self.name = name
        self.fail_mode = fail_mode
        #: Engine hooks, all optional:
        #: ``on_success(attempt, result)`` runs engine bookkeeping before
        #: newly produced files are marked available; ``on_failure(attempt,
        #: node_id, error)`` runs before the retry decision;
        #: ``discover(attempt, output_sizes)`` returns follow-up tasks of
        #: iterative frontends; ``more_tasks_expected()`` is True while the
        #: task source promises further tasks.
        self.on_success = on_success
        self.on_failure = on_failure
        self.discover = discover
        self.more_tasks_expected = more_tasks_expected

        #: All registered tasks by id (insertion order = dispatch order).
        self.tasks: dict[str, TaskAttempt] = {}
        self.workflow_id: Optional[str] = None
        self.workflow_failed = False
        self.diagnostics: list[str] = []
        self.completed = 0
        self.failures = 0
        #: Attempts in REQUESTED state (submitted, no slot yet).
        self.awaiting = 0
        #: Attempts in RUNNING state.
        self.running = 0
        self.done = env.event()

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, workflow_id: str) -> None:
        """Stamp the workflow id and announce the run on the bus."""
        self.workflow_id = workflow_id
        if self.bus is not None:
            self.bus.emit(WorkflowStarted(
                workflow_id=workflow_id, name=self.name
            ))

    def register(self, tasks: Iterable[TaskSpec]) -> None:
        """Admit tasks into the run (initial set or discovered later)."""
        for task in tasks:
            if task.task_id in self.tasks:
                raise WorkflowError(f"duplicate task id {task.task_id!r}")
            attempt = TaskAttempt(task)
            self.tasks[task.task_id] = attempt
            self.tracker.register(attempt)

    def add_available(self, paths: Iterable[str]) -> None:
        """Mark pre-existing inputs as satisfied."""
        self.tracker.add_available(paths)

    def attempt_for(self, task_id: str) -> TaskAttempt:
        return self.tasks[task_id]

    def fail(self, diagnostic: str) -> None:
        """Record a fatal diagnostic; callers decide when to check_done."""
        self.diagnostics.append(diagnostic)
        self.workflow_failed = True

    # -- dispatch ----------------------------------------------------------------

    def dispatch_ready(self) -> None:
        """Hand every newly ready task to the backend, in order."""
        for attempt in self.tracker.take_ready():
            attempt.to(AttemptState.READY)
            if self.bus is not None and self.bus.wants(TaskDispatched):
                self.bus.emit(TaskDispatched(
                    workflow_id=self.workflow_id or "",
                    task_id=attempt.task.task_id,
                    tool=attempt.task.tool,
                    attempt=attempt.attempts + 1,
                ))
            self._transition(attempt, AttemptState.REQUESTED)
            self.backend.submit(attempt)

    # -- backend callbacks -------------------------------------------------------

    def attempt_running(self, attempt: TaskAttempt, node_id: str) -> None:
        """The backend started executing an attempt on ``node_id``."""
        self._transition(attempt, AttemptState.RUNNING)
        attempt.attempts += 1
        attempt.last_node = node_id
        attempt.started_at = self.env.now

    def attempt_finished(
        self,
        attempt: TaskAttempt,
        node_id: str,
        result: Optional["TaskResult"] = None,
        error=None,
        transfers: tuple = (),
    ) -> None:
        """The backend observed one attempt's outcome; react to it.

        A :class:`~repro.core.execution.TaskResult` means the attempt
        succeeded; ``None`` means it failed with ``error``, after
        finishing the file ``transfers``.
        """
        if self.workflow_failed:
            # Draining: the run is already lost, record nothing further.
            self._transition(
                attempt,
                AttemptState.FAILED_FINAL if result is None
                else AttemptState.SUCCEEDED,
            )
            self.check_done()
            return
        if result is not None:
            sizes = result.output_sizes
            self._transition(attempt, AttemptState.SUCCEEDED)
            self.completed += 1
            if self.bus is not None:
                self.bus.emit(TaskAttemptFinished(
                    workflow_id=self.workflow_id,
                    task=attempt.task,
                    node_id=node_id,
                    makespan_seconds=result.makespan_seconds,
                    output_sizes=sizes,
                    success=True,
                    attempt=attempt.attempts,
                    transfers=(*result.input_reports, *result.output_reports),
                ))
            if self.on_success is not None:
                self.on_success(attempt, result)
            self.tracker.add_available(sizes)
            if self.discover is not None:
                discovered = self.discover(attempt, sizes)
                if discovered:
                    self.register(discovered)
            self.dispatch_ready()
        else:
            self.failures += 1
            if self.bus is not None:
                self.bus.emit(TaskAttemptFinished(
                    workflow_id=self.workflow_id,
                    task=attempt.task,
                    node_id=node_id,
                    makespan_seconds=self.env.now - attempt.started_at,
                    output_sizes={},
                    success=False,
                    attempt=attempt.attempts,
                    stderr=repr(error),
                    transfers=tuple(transfers),
                ))
            if self.on_failure is not None:
                self.on_failure(attempt, node_id, error)
            if self.retry.should_retry(attempt):
                self._transition(attempt, AttemptState.FAILED_RETRYING)
                excluded = self.retry.record_failure(attempt, node_id)
                if self.bus is not None and self.bus.wants(TaskRetried):
                    self.bus.emit(TaskRetried(
                        workflow_id=self.workflow_id or "",
                        task_id=attempt.task.task_id,
                        attempt=attempt.attempts,
                        excluded_node=node_id if excluded else "",
                    ))
                self.retry.reset_if_exhausted(
                    attempt, self.backend.live_nodes(), node_id
                )
                self._transition(attempt, AttemptState.REQUESTED)
                self.backend.submit(attempt)
            else:
                self._transition(attempt, AttemptState.FAILED_FINAL)
                self.fail(
                    f"task {attempt.task.task_id} ({attempt.task.tool}) failed "
                    f"{attempt.attempts} time(s): {error!r}"
                )
        self.check_done()

    # -- completion --------------------------------------------------------------

    def deadlocked(self) -> bool:
        """True when nothing runs, nothing can start, yet work remains."""
        if self.running > 0 or self.awaiting > 0 or self.workflow_failed:
            return False
        unfinished = [a for a in self.tasks.values() if not a.succeeded]
        if not unfinished:
            return False
        return all(not self.tracker.is_ready(a) for a in unfinished)

    def check_done(self) -> None:
        """Fire ``done`` when the run has reached a terminal condition."""
        if self.done.triggered:
            return
        if self.workflow_failed:
            if self.fail_mode == "abort" or self.running == 0:
                self.done.succeed()
            return
        # Outside a failed run, ``completed`` counts the succeeded tasks.
        all_completed = bool(self.tasks) and self.completed == len(self.tasks)
        if all_completed and self.running == 0 and self.awaiting == 0:
            if self.more_tasks_expected is not None and self.more_tasks_expected():
                # The language frontend claims more tasks will come but
                # emitted none on the last completion: evaluation stuck.
                self.fail("workflow source stalled without emitting further tasks")
                self.done.succeed()
            elif self.backend.quiescent():
                self.done.succeed()
        elif self.deadlocked():
            stuck = sorted(
                a.task.task_id for a in self.tasks.values() if not a.succeeded
            )
            named = ", ".join(stuck[:_DEADLOCK_NAMED_TASKS])
            if len(stuck) > _DEADLOCK_NAMED_TASKS:
                named += f", … {len(stuck) - _DEADLOCK_NAMED_TASKS} more"
            self.fail(
                "workflow stalled: remaining tasks have unsatisfiable "
                f"inputs: {named}"
            )
            self.done.succeed()

    def finalize(
        self,
        started: float,
        *,
        error: Optional[str] = None,
        scheduler: str = "",
        output_files: Optional[dict[str, float]] = None,
    ) -> ExecutionResult:
        """Close the run: emit ``WorkflowFinished``, build the result."""
        if error is not None:
            self.fail(error)
        success = not self.workflow_failed
        finished = self.env.now
        if self.bus is not None and self.workflow_id is not None:
            self.bus.emit(WorkflowFinished(
                workflow_id=self.workflow_id,
                name=self.name,
                runtime_seconds=finished - started,
                success=success,
            ))
        return ExecutionResult(
            workflow_id=self.workflow_id or "",
            name=self.name,
            scheduler=scheduler,
            success=success,
            started_at=started,
            finished_at=finished,
            tasks_completed=self.completed,
            task_failures=self.failures,
            output_files=dict(output_files or {}),
            diagnostics=list(self.diagnostics),
            engine=self.backend.engine,
        )

    # -- internals ---------------------------------------------------------------

    def _transition(self, attempt: TaskAttempt, state: AttemptState) -> None:
        """FSM transition keeping the awaiting/running counters derived."""
        previous = attempt.state
        attempt.to(state)
        if previous is AttemptState.REQUESTED:
            self.awaiting -= 1
        if previous is AttemptState.RUNNING:
            self.running -= 1
        if state is AttemptState.REQUESTED:
            self.awaiting += 1
        if state is AttemptState.RUNNING:
            self.running += 1
