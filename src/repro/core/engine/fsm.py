"""Task-attempt lifecycle as an explicit finite-state machine.

Each engine used to track the same lifecycle with a scatter of booleans
(``dispatched``, ``completed``) and ad-hoc counters. The FSM makes the
states and the legal transitions between them explicit::

    PENDING --> READY --> REQUESTED --> RUNNING --> SUCCEEDED
                              ^            |
                              |            +-----> FAILED_RETRYING
                              |            |              |
                              +------------|--------------+
                                           +-----> FAILED_FINAL

A :class:`TaskAttempt` is the per-task record shared by the execution
core and the backends; one record covers *all* attempts of a task (the
``attempts`` counter and the retry loop through ``FAILED_RETRYING``
model re-execution on another node, Sec. 3.1 of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import WorkflowError
from repro.workflow.model import TaskSpec

__all__ = ["AttemptState", "IllegalTransition", "TaskAttempt"]


class IllegalTransition(WorkflowError):
    """An engine tried to move a task attempt along a non-existent edge."""


class AttemptState(enum.Enum):
    """Lifecycle states of a task (across all its attempts)."""

    PENDING = "pending"            #: registered, inputs not yet satisfiable
    READY = "ready"                #: inputs satisfied, about to be handed out
    REQUESTED = "requested"        #: submitted to the backend, awaiting a slot
    RUNNING = "running"            #: an attempt executes on a node
    SUCCEEDED = "succeeded"        #: terminal: an attempt finished cleanly
    FAILED_RETRYING = "failed-retrying"  #: attempt failed, another follows
    FAILED_FINAL = "failed-final"  #: terminal: retries exhausted


_EDGES: dict[AttemptState, frozenset[AttemptState]] = {
    AttemptState.PENDING: frozenset({AttemptState.READY}),
    AttemptState.READY: frozenset({AttemptState.REQUESTED}),
    AttemptState.REQUESTED: frozenset({AttemptState.RUNNING}),
    AttemptState.RUNNING: frozenset({
        AttemptState.SUCCEEDED,
        AttemptState.FAILED_RETRYING,
        AttemptState.FAILED_FINAL,
    }),
    AttemptState.FAILED_RETRYING: frozenset({AttemptState.REQUESTED}),
    AttemptState.SUCCEEDED: frozenset(),
    AttemptState.FAILED_FINAL: frozenset(),
}


@dataclass
class TaskAttempt:
    """Lifecycle record of one task, shared by core and backend."""

    task: TaskSpec
    state: AttemptState = AttemptState.PENDING
    #: Attempts started so far (incremented when an attempt begins running).
    attempts: int = 0
    #: Nodes this task must avoid after failing there (Sec. 3.1).
    excluded_nodes: set[str] = field(default_factory=set)
    #: Node of the most recent (possibly still running) attempt.
    last_node: str = ""
    #: Simulated time the most recent attempt started running.
    started_at: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.state is AttemptState.SUCCEEDED

    @property
    def finished(self) -> bool:
        return self.state in (AttemptState.SUCCEEDED, AttemptState.FAILED_FINAL)

    def to(self, state: AttemptState) -> None:
        """Transition to ``state``; raises :class:`IllegalTransition`."""
        if state not in _EDGES[self.state]:
            raise IllegalTransition(
                f"task {self.task.task_id}: no "
                f"{self.state.value} -> {state.value} transition"
            )
        self.state = state
