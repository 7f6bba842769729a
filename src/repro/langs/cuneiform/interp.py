"""The Cuneiform interpreter, exposed as an iterative task source.

This is where Hi-WAY's distinguishing feature lives (Sec. 3.3): the
interpreter reduces the script's target expressions as far as the data
allows; every task application whose arguments are concrete becomes a
pending *invocation* handed to the Workflow Driver. When an invocation
completes, its future resolves and reduction continues — possibly
discovering entirely new tasks, which is what enables unbounded loops,
conditionals and recursion.

Reduction resumes from cached applications. Each task application whose
port values are concrete is cached by (Apply node, bound environment)
together with its invocation list (built once, in creation order), the
index of its first unresolved invocation (it only ever advances) and,
once every invocation has resolved, its concrete result. An application
whose ports are still blocked remembers the unresolved invocations its
port evaluation stopped at, and its ports are not evaluated again until
one of those resolves. A completion therefore re-walks the targets only
down to cached or suspended applications, each costing a lookup and an
index check, instead of re-deriving and re-sorting the key of every
invocation. Values are monotone — a concrete value never changes once
the invocations it reads have resolved — so neither cache goes stale.
An application is cached only when evaluating its ports met no blocked
task: a ``let`` may discard a pending binding, and evaluating that
binding again could still discover new tasks.

Evaluation semantics (Cuneiform's data model):

* every value is a flat list of strings;
* applying a task to lists on *scalar* in-ports maps the task over the
  cross product of those lists; *aggregate* ports (``<name>``) consume a
  whole list;
* a conditional's guard is false iff it evaluates to the empty list;
  the untaken branch is never evaluated, so recursion terminates on
  data-dependent conditions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CuneiformError
from repro.langs.cuneiform.ast import (
    Apply,
    Concat,
    Expr,
    If,
    Let,
    ListExpr,
    Script,
    Str,
    TaskDef,
    Var,
)
from repro.langs.cuneiform.parser import parse
from repro.workflow.model import TaskSource, TaskSpec

__all__ = ["CuneiformSource", "PENDING"]


class _Pending:
    """Marker: the expression is blocked on unfinished invocations."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<pending>"


PENDING = _Pending()

#: Guard against runaway recursion (e.g. a loop whose condition can
#: never flip). Each language-level call costs several Python frames, so
#: this stays comfortably below the interpreter's own stack limit; real
#: workflows nest tens of levels at most.
_MAX_DEPTH = 120


def _is_path(value: str) -> bool:
    """Whether a string denotes a file (as opposed to a parameter)."""
    return value.startswith("/") or value.startswith("s3://")


@dataclass
class _Invocation:
    """One concrete task application."""

    key: tuple
    task_def: TaskDef
    index: int
    spec: TaskSpec
    outputs_by_port: dict[str, str]
    resolved: bool = False
    values: dict[str, tuple[str, ...]] = field(default_factory=dict)


class _Application:
    """A task application whose port values are concrete."""

    __slots__ = ("invocations", "first_port", "next_unresolved", "result")

    def __init__(self, invocations: list[_Invocation], first_port: str):
        #: One invocation per cross-product combination, in creation order.
        self.invocations = invocations
        self.first_port = first_port
        #: Every invocation before this index has resolved.
        self.next_unresolved = 0
        #: The concrete value, once every invocation has resolved.
        self.result: Optional[tuple[str, ...]] = None


class CuneiformSource(TaskSource):
    """Parses and incrementally evaluates a Cuneiform script."""

    def __init__(self, text: str, name: str = "cuneiform"):
        self.name = name
        self.script: Script = parse(text)
        if not self.script.targets:
            raise CuneiformError("script has no target expression")
        self._invocations: dict[tuple, _Invocation] = {}
        self._by_task_id: dict[str, _Invocation] = {}
        #: Task applications by (id of the Apply node, bound environment).
        self._applications: dict[tuple, _Application] = {}
        #: Applications with a blocked port, by the same key: the
        #: unresolved invocations their port evaluation stopped at.
        self._suspended: dict[tuple, list[_Invocation]] = {}
        #: The unresolved invocations met so far in this reduction pass.
        self._blockers: list[_Invocation] = []
        self._invocation_counter: Counter = Counter()
        self._completed_counter: Counter = Counter()
        self._new_specs: list[TaskSpec] = []
        self._globals_cache: dict[str, tuple[str, ...]] = {}
        self._external_inputs: set[str] = set()
        self._target_values: Optional[list[tuple[str, ...]]] = None
        self._depth = 0
        self._out_prefix = f"/cf/{name}/"

    # -- TaskSource protocol ---------------------------------------------------

    def initial_tasks(self) -> list[TaskSpec]:
        self._reduce_targets()
        return self._drain_new_specs()

    def on_task_completed(self, task, output_sizes) -> list[TaskSpec]:
        invocation = self._by_task_id.get(task.task_id)
        if invocation is None:
            raise CuneiformError(f"unknown invocation for task {task.task_id!r}")
        self._resolve(invocation)
        self._reduce_targets()
        return self._drain_new_specs()

    def is_done(self) -> bool:
        return self._target_values is not None

    def input_files(self) -> list[str]:
        return sorted(self._external_inputs)

    def target_files(self) -> list[str]:
        if self._target_values is None:
            return []
        return sorted({
            item
            for value in self._target_values
            for item in value
            if _is_path(item)
        })

    def target_values(self) -> list[tuple[str, ...]]:
        """The fully reduced target values (only once done)."""
        if self._target_values is None:
            raise CuneiformError("workflow has not finished evaluating")
        return list(self._target_values)

    # -- reduction engine ---------------------------------------------------------

    def _drain_new_specs(self) -> list[TaskSpec]:
        specs, self._new_specs = self._new_specs, []
        return specs

    def _resolve(self, invocation: _Invocation) -> None:
        if invocation.resolved:
            return
        task_name = invocation.task_def.name
        self._completed_counter[task_name] += 1
        empty_until = invocation.task_def.empty_until
        emit_empty = (
            empty_until is not None
            and self._completed_counter[task_name] <= empty_until
        )
        for port in invocation.task_def.outports:
            if emit_empty:
                invocation.values[port.name] = ()
            else:
                invocation.values[port.name] = (invocation.outputs_by_port[port.name],)
        invocation.resolved = True

    def _reduce_targets(self) -> None:
        if self._target_values is not None:
            return
        self._blockers = []
        values = []
        for target in self.script.targets:
            value = self._eval(target, {})
            values.append(value)
        if all(not isinstance(v, _Pending) for v in values):
            self._target_values = values

    def _eval(self, expr: Expr, env: dict):
        """Reduce ``expr`` to a value tuple or :data:`PENDING`."""
        if isinstance(expr, Str):
            return (expr.value,)
        if isinstance(expr, ListExpr):
            parts = [self._eval(item, env) for item in expr.items]
            if any(isinstance(p, _Pending) for p in parts):
                return PENDING
            return tuple(itertools.chain.from_iterable(parts))
        if isinstance(expr, Concat):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            if isinstance(left, _Pending) or isinstance(right, _Pending):
                return PENDING
            return left + right
        if isinstance(expr, Var):
            return self._eval_var(expr.name, env)
        if isinstance(expr, Let):
            value = self._eval(expr.value, env)
            # A pending binding does not block the body unless used;
            # binding PENDING keeps evaluation lazy and correct.
            inner = dict(env)
            inner[expr.name] = value
            return self._eval(expr.body, inner)
        if isinstance(expr, If):
            condition = self._eval(expr.condition, env)
            if isinstance(condition, _Pending):
                return PENDING
            branch = expr.then_branch if condition else expr.else_branch
            return self._eval(branch, env)
        if isinstance(expr, Apply):
            return self._eval_apply(expr, env)
        raise CuneiformError(f"cannot evaluate {expr!r}")

    def _eval_var(self, name: str, env: dict):
        if name in env:
            return env[name]
        if name in self._globals_cache:
            return self._globals_cache[name]
        if name in self.script.assignments:
            value = self._eval(self.script.assignments[name], {})
            if not isinstance(value, _Pending):
                self._globals_cache[name] = value
            return value
        raise CuneiformError(f"undefined variable {name!r}")

    def _eval_apply(self, expr: Apply, env: dict):
        if expr.callee in self.script.functions:
            return self._eval_function(expr, env)
        if expr.callee in self.script.tasks:
            return self._eval_task(expr, env)
        raise CuneiformError(f"undefined task or function {expr.callee!r}")

    def _eval_function(self, expr: Apply, env: dict):
        function = self.script.functions[expr.callee]
        provided = dict(expr.args)
        missing = [p for p in function.params if p not in provided]
        extra = [name for name, _ in expr.args if name not in function.params]
        if missing or extra:
            raise CuneiformError(
                f"{expr.callee}: bad arguments (missing {missing}, extra {extra})"
            )
        evaluated = {}
        for param in function.params:
            value = self._eval(provided[param], env)
            if isinstance(value, _Pending):
                return PENDING
            evaluated[param] = value
        if self._depth >= _MAX_DEPTH:
            raise CuneiformError(
                f"recursion deeper than {_MAX_DEPTH} levels in {expr.callee!r}; "
                "does the loop condition ever flip?"
            )
        self._depth += 1
        try:
            return self._eval(function.body, evaluated)
        finally:
            self._depth -= 1

    def _eval_task(self, expr: Apply, env: dict):
        # The source holds its AST, so a node's id names that node alone.
        key = (id(expr), tuple(env.items()))
        application = self._applications.get(key)
        if application is None:
            blockers = self._blockers
            waits = self._suspended.get(key)
            if waits is not None:
                for invocation in waits:
                    if invocation.resolved:
                        break
                else:
                    # Nothing the ports waited on has resolved: evaluating
                    # them again would retrace the same path.
                    blockers.extend(waits)
                    return PENDING
            mark = len(blockers)
            application = self._apply_task(expr, env)
            if application is None:
                self._suspended[key] = blockers[mark:]
                return PENDING
            if waits is not None:
                del self._suspended[key]
            if len(blockers) == mark:
                self._applications[key] = application
        result = application.result
        if result is not None:
            return result
        invocations = application.invocations
        index = application.next_unresolved
        count = len(invocations)
        while index < count and invocations[index].resolved:
            index += 1
        application.next_unresolved = index
        if index < count:
            self._blockers.append(invocations[index])
            return PENDING
        first_port = application.first_port
        result = tuple(itertools.chain.from_iterable(
            invocation.values[first_port] for invocation in invocations
        ))
        application.result = result
        return result

    def _apply_task(self, expr: Apply, env: dict) -> Optional[_Application]:
        """Evaluate the ports and create the invocations (None if blocked)."""
        task_def = self.script.tasks[expr.callee]
        port_names = [port.name for port in task_def.inports]
        provided = dict(expr.args)
        missing = [p for p in port_names if p not in provided]
        extra = [name for name, _ in expr.args if name not in port_names]
        if missing or extra:
            raise CuneiformError(
                f"{expr.callee}: bad ports (missing {missing}, extra {extra})"
            )
        values = {}
        for port in task_def.inports:
            value = self._eval(provided[port.name], env)
            if isinstance(value, _Pending):
                return None
            values[port.name] = value

        # Cross product over scalar ports; aggregate ports pass whole.
        scalar_ports = [p for p in task_def.inports if not p.aggregate]
        aggregate_ports = [p for p in task_def.inports if p.aggregate]
        axes = [[(p.name, (item,)) for item in values[p.name]] for p in scalar_ports]
        combinations = list(itertools.product(*axes)) if axes else [()]
        first_port = task_def.outports[0].name
        invocations = []
        for combination in combinations:
            bindings = dict(combination)
            for port in aggregate_ports:
                bindings[port.name] = values[port.name]
            invocations.append(self._invocation_for(task_def, bindings))
        return _Application(invocations, first_port)

    def _invocation_for(self, task_def: TaskDef, bindings: dict) -> _Invocation:
        key = (
            task_def.name,
            tuple(sorted((name, tuple(value)) for name, value in bindings.items())),
        )
        invocation = self._invocations.get(key)
        if invocation is not None:
            return invocation
        index = self._invocation_counter[task_def.name]
        self._invocation_counter[task_def.name] += 1
        outputs_by_port = {
            port.name: f"{self._out_prefix}{task_def.name}/{index:04d}/{port.name}"
            for port in task_def.outports
        }
        inputs: list[str] = []
        params: list[str] = []
        for _name, value in sorted(bindings.items()):
            for item in value:
                if _is_path(item):
                    if item not in inputs:
                        inputs.append(item)
                    if not item.startswith(self._out_prefix):
                        self._external_inputs.add(item)
                else:
                    params.append(item)
        spec = TaskSpec(
            tool=task_def.tool,
            inputs=inputs,
            outputs=list(outputs_by_port.values()),
            signature=task_def.name,
            command=f"{task_def.language}: {task_def.name}"
            + (f" {' '.join(params)}" if params else ""),
        )
        invocation = _Invocation(
            key=key,
            task_def=task_def,
            index=index,
            spec=spec,
            outputs_by_port=outputs_by_port,
        )
        self._invocations[key] = invocation
        self._by_task_id[spec.task_id] = invocation
        self._new_specs.append(spec)
        return invocation
