"""Property-based tests for the Cuneiform interpreter."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import repro.workflow.model as task_model
from repro.errors import CuneiformError
from repro.langs.cuneiform import CuneiformSource
from repro.langs.cuneiform.interp import PENDING


@st.composite
def map_pipelines(draw):
    """A random map pipeline: N inputs through K chained map stages."""
    n_inputs = draw(st.integers(1, 5))
    n_stages = draw(st.integers(1, 4))
    return n_inputs, n_stages


def build_pipeline_script(n_inputs: int, n_stages: int) -> str:
    lines = []
    for stage in range(n_stages):
        lines.append(
            f"deftask stage{stage}( out : data )in bash *{{ tool: sort }}*"
        )
    inputs = " ".join(f"'/in/file-{i}'" for i in range(n_inputs))
    expr = f"[{inputs}]"
    for stage in range(n_stages):
        expr = f"stage{stage}( data: {expr} )"
    lines.append(f"{expr};")
    return "\n".join(lines)


def drive_to_completion(source, max_rounds=100):
    """Simulate the driver loop; returns total tasks executed."""
    pending = list(source.initial_tasks())
    executed = 0
    rounds = 0
    while pending:
        rounds += 1
        assert rounds < max_rounds, "interpreter did not converge"
        batch, pending = pending, []
        for spec in batch:
            executed += 1
            pending.extend(source.on_task_completed(spec, {}))
    assert source.is_done()
    return executed


@given(map_pipelines())
@settings(max_examples=50, deadline=None)
def test_map_pipeline_task_count(params):
    """A K-stage map over N files executes exactly N*K tasks."""
    n_inputs, n_stages = params
    script = build_pipeline_script(n_inputs, n_stages)
    source = CuneiformSource(script, name="prop")
    executed = drive_to_completion(source)
    assert executed == n_inputs * n_stages
    values = source.target_values()
    assert len(values) == 1
    assert len(values[0]) == n_inputs  # one result file per input


@given(st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_bounded_recursion_iterates_exactly_n_times(partitions, iterations):
    """The k-means pattern performs exactly the demanded iterations."""
    from repro.workloads import kmeans_cuneiform

    script = kmeans_cuneiform(
        partitions=partitions, iterations_until_convergence=iterations
    )
    source = CuneiformSource(script, name="prop-kmeans")
    executed = drive_to_completion(source, max_rounds=300)
    # Per iteration: `partitions` assigns + 1 update + 1 convergence
    # check; the final (converging) iteration is included in the count.
    per_iteration = partitions + 2
    assert executed == per_iteration * (iterations + 1)


@given(st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_memoization_never_duplicates_invocations(n_uses):
    """Referencing the same application many times runs it once."""
    uses = " ".join("f( i: '/in/x' )" for _ in range(n_uses))
    script = f"""
    deftask f( o : i )in bash *{{ tool: sort }}*
    [ {uses} ];
    """
    source = CuneiformSource(script, name="memo-prop")
    executed = drive_to_completion(source)
    assert executed == 1
    assert len(source.target_values()[0]) == n_uses


@given(st.lists(st.sampled_from(["'/a'", "'/b'", "nil", "'/c'"]),
                min_size=0, max_size=6))
@settings(max_examples=50, deadline=None)
def test_list_concat_flattens(parts):
    expr = " + ".join(["[ ]"] + [f"[ {p} ]" for p in parts]) if parts else "nil"
    source = CuneiformSource(f"{expr};", name="concat-prop")
    source.initial_tasks()
    assert source.is_done()
    expected = tuple(
        p.strip("'") for p in parts if p != "nil"
    )
    assert source.target_values()[0] == expected


# -- differential: cached applications vs full re-reduction -------------------


class FullReduction(CuneiformSource):
    """The reducer without cached applications, kept as the oracle.

    Every reduction re-evaluates every port of every task application
    from the target roots and re-derives each invocation's sorted key,
    as the interpreter did before applications were cached.
    """

    def _eval_task(self, expr, env):
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
            if value is PENDING:
                return PENDING
            values[port.name] = value
        scalar_ports = [p for p in task_def.inports if not p.aggregate]
        aggregate_ports = [p for p in task_def.inports if p.aggregate]
        axes = [[(p.name, (item,)) for item in values[p.name]] for p in scalar_ports]
        combinations = list(itertools.product(*axes)) if axes else [()]
        result = []
        blocked = False
        first_port = task_def.outports[0].name
        for combination in combinations:
            bindings = dict(combination)
            for port in aggregate_ports:
                bindings[port.name] = values[port.name]
            invocation = self._invocation_for(task_def, bindings)
            if invocation.resolved:
                result.extend(invocation.values[first_port])
            else:
                blocked = True
        return PENDING if blocked else tuple(result)


_TASKS = """
deftask t0( o : i )in bash *{{ tool: sort }}*
deftask t1( o : i )in bash *{{
    tool: grep
    output: empty-until {t1_empty}
}}*
deftask agg( o : <i> )in bash *{{ tool: sort }}*
deftask pair( o : x y )in bash *{{ tool: sort }}*
deftask check( flag : i )in bash *{{
    tool: grep
    output: empty-until {check_empty}
}}*
defun loop( v ) =
    if check( i: v )
    then v
    else loop( v: t0( i: agg( i: v ) ) )
    end;
"""


@st.composite
def expressions(draw, depth=0, scope=()):
    """Cuneiform expression text: task maps, aggregates, cross products,
    lists, concatenation, conditionals, lets whose binding the body may
    ignore, and a recursive loop that ends on an ``empty-until`` check."""
    kinds = ["leaf"] * 2
    if depth < 4:
        kinds += ["map", "map", "agg", "pair", "list", "concat", "if", "let",
                  "let", "loop"]
    kind = draw(st.sampled_from(kinds))
    deeper = expressions(depth + 1, scope)
    if kind == "leaf":
        leaves = ["'/in/f0'", "'/in/f1'", "'p0'", "nil", *scope]
        return draw(st.sampled_from(leaves))
    if kind == "map":
        task = draw(st.sampled_from(["t0", "t1"]))
        return f"{task}( i: {draw(deeper)} )"
    if kind == "agg":
        return f"agg( i: {draw(deeper)} )"
    if kind == "pair":
        return f"pair( x: {draw(deeper)}, y: {draw(deeper)} )"
    if kind == "list":
        items = draw(st.lists(deeper, max_size=3))
        return f"[ {' '.join(items)} ]"
    if kind == "concat":
        return f"[ {draw(deeper)} ] + [ {draw(deeper)} ]"
    if kind == "if":
        return f"if {draw(deeper)} then {draw(deeper)} else {draw(deeper)} end"
    if kind == "let":
        name = f"v{depth}"
        body = draw(expressions(depth + 1, scope + (name,)))
        return f"let {name} = {draw(deeper)}; {body}"
    return f"loop( v: {draw(deeper)} )"


@st.composite
def reducer_scripts(draw):
    """Whole scripts: the property-test generators above, k-means, and
    random expression scripts with an optional global assignment."""
    from repro.workloads import kmeans_cuneiform

    kind = draw(st.sampled_from(["pipeline", "kmeans", "memo", "random"]))
    if kind == "pipeline":
        return build_pipeline_script(*draw(map_pipelines()))
    if kind == "kmeans":
        return kmeans_cuneiform(
            partitions=draw(st.integers(1, 4)),
            iterations_until_convergence=draw(st.integers(1, 4)),
        )
    if kind == "memo":
        uses = " ".join("t0( i: '/in/x' )" for _ in range(draw(st.integers(1, 4))))
        return f"deftask t0( o : i )in bash *{{ tool: sort }}*\n[ {uses} ];"
    lines = [_TASKS.format(
        t1_empty=draw(st.integers(0, 2)), check_empty=draw(st.integers(0, 3))
    )]
    if draw(st.booleans()):
        lines.append(f"g = {draw(expressions())};")
        targets = [draw(expressions(scope=("g",)))
                   for _ in range(draw(st.integers(1, 2)))]
    else:
        targets = [draw(expressions()) for _ in range(draw(st.integers(1, 2)))]
    lines.extend(f"{target};" for target in targets)
    return "\n".join(lines)


def _spec_fields(specs):
    return [
        (s.task_id, s.tool, s.inputs, s.outputs, s.signature, s.command)
        for s in specs
    ]


def _outcome(step):
    """``step()``'s specs, or the error it raised."""
    try:
        return _spec_fields(step())
    except CuneiformError as error:
        return f"error: {error}"


def _twin_step(production, oracle):
    """Run one reducer step on each side from the same task-id counter
    value, so both sides must name their new tasks identically."""
    counter = task_model._task_ids
    start = next(counter)
    try:
        task_model._task_ids = itertools.count(start)
        new = _outcome(production)
        task_model._task_ids = itertools.count(start)
        old = _outcome(oracle)
    finally:
        task_model._task_ids = counter
    for _ in range(len(new)):
        next(counter)
    return new, old


def _assert_reducers_agree(script, choose):
    """Complete pending tasks one at a time, ``choose(n)`` picking which
    of the n pending ones; both reducers must emit the same new tasks
    after every completion and end with the same target values."""
    production = CuneiformSource(script, name="diff")
    oracle = FullReduction(script, name="diff")
    new, old = _twin_step(production.initial_tasks, oracle.initial_tasks)
    assert new == old
    if isinstance(new, str):
        return
    pending = list(new)
    while pending:
        task_id = pending.pop(choose(len(pending)))[0]
        spec = production._by_task_id[task_id].spec
        twin = oracle._by_task_id[task_id].spec
        new, old = _twin_step(
            lambda: production.on_task_completed(spec, {}),
            lambda: oracle.on_task_completed(twin, {}),
        )
        assert new == old
        if isinstance(new, str):
            return
        pending.extend(new)
    assert production.is_done() and oracle.is_done()
    assert production.target_values() == oracle.target_values()


@given(reducer_scripts(), st.data())
@settings(max_examples=150, deadline=None)
def test_cached_applications_match_full_re_reduction(script, data):
    """In any completion order, the reducer that resumes from cached
    applications behaves exactly like a full re-reduction."""
    _assert_reducers_agree(
        script, lambda n: data.draw(st.integers(0, n - 1))
    )


@pytest.mark.parametrize("binding", [
    "g( i: f( i: '/in/a' ) )",
    "if f( i: '/in/a' ) then g( i: '/in/c' ) else nil end",
], ids=["blocked-port", "blocked-guard"])
def test_a_discarded_pending_binding_still_discovers_its_tasks(binding):
    """``h``'s port ignores the pending ``let`` binding, so ``h`` runs at
    once; ``g`` must still be found once ``f`` completes, also when ``h``
    completes first. That is why an application whose ports met a
    blocked task is never cached."""
    script = f"""
    deftask f( o : i )in bash *{{ tool: sort }}*
    deftask g( o : i )in bash *{{ tool: sort }}*
    deftask h( o : i )in bash *{{ tool: sort }}*
    deftask k( o : i )in bash *{{ tool: sort }}*
    [ h( i: let u = {binding}; '/in/b' ) k( i: f( i: '/in/a' ) ) ];
    """
    source = CuneiformSource(script, name="discard")
    first = source.initial_tasks()
    assert [spec.signature for spec in first] == ["f", "h"]
    found = source.on_task_completed(first[0], {})
    assert [spec.signature for spec in found] == ["g", "k"]
    _assert_reducers_agree(script, lambda n: 0)
    _assert_reducers_agree(script, lambda n: n - 1)
