"""Engine-agnostic execution core shared by Hi-WAY, Tez and CloudMan.

Layering (see DESIGN.md, "Execution core & backends")::

    client -> AM shell -> ExecutionCore -> ExecutionBackend -> substrate

The core owns the task-attempt FSM, the ready set, the retry policy and
the completion/deadlock logic; each engine contributes a backend for
its substrate plus a handful of policy hooks.
"""

from repro.core.engine.backend import ExecutionBackend
from repro.core.engine.core import ExecutionCore
from repro.core.engine.fsm import AttemptState, IllegalTransition, TaskAttempt
from repro.core.engine.ready import ReadySetTracker
from repro.core.engine.result import ExecutionResult
from repro.core.engine.retry import RetryPolicy

__all__ = [
    "AttemptState",
    "ExecutionBackend",
    "ExecutionCore",
    "ExecutionResult",
    "IllegalTransition",
    "ReadySetTracker",
    "RetryPolicy",
    "TaskAttempt",
]
