"""The flow solver contract (``repro.sim.flows``).

Production re-solves the rates of the flows a change can reach
(``partitioned-v3``, the ``SOLVER_VERSION`` stamp). This module keeps
the original global progressive fill as a from-scratch reference oracle
and guards the contract: production rates agree with the oracle on
every flow to within ``PARITY_EPSILON``, every emitted artifact carries
the solver stamp, and the committed ``results/`` tables regenerate byte
for byte.
"""

import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.fig8 import Fig8Config, run_fig8
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import Table2Config, run_weak_scaling_once
from repro.sim import SOLVER_VERSION, Environment, FlowNetwork

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")

#: Declared relative tolerance within which production flow rates must
#: agree with the oracle after any mutation sequence. It bounds *rate*
#: drift only: a one-ULP completion shift can flip a scheduler
#: tie-break, so table-level drift is measured with
#: ``scripts/diff_tables.py`` rather than assumed.
PARITY_EPSILON = 1e-9

#: The solver's drained/degenerate-input tolerance.
_EPSILON = 1e-9


# -- the reference oracle -----------------------------------------------------


def global_fill(flows):
    """Max-min fair rates of ``flows``, computed from scratch.

    One progressive fill over every live flow: raise a single global
    level, freezing flows as a resource saturates or their cap binds; a
    flow's rate at level ``lam`` is ``min(cap, weight * lam)``. A
    resource whose flows' caps cannot exceed its capacity never
    bottlenecks and is left out of the candidate scan. Returns
    ``(rates, usage)``: rate per flow and aggregate rate per crossed
    resource. Reads the flows and resources, mutates nothing; a flow
    needs only ``resources``, ``cap`` and ``weight``, so a burn group
    can be checked as its separate members.

    This is the solver the simulator shipped before the partitioned
    solve (EXPERIMENTS.md records the table drift between the two).
    Its float-operation order is kept as it was, so the ULP
    characterization below still describes exactly how the two solves
    round differently.
    """
    flows = list(flows)
    weight_sum = {}
    room = {}
    cap_sum = {}
    crossing = {}
    for flow in flows:
        flow_cap = math.inf if flow.cap is None else flow.cap
        for resource in flow.resources:
            crossing.setdefault(resource, []).append(flow)
            weight_sum[resource] = weight_sum.get(resource, 0.0) + flow.weight
            room.setdefault(resource, resource.capacity)
            cap_sum[resource] = cap_sum.get(resource, 0.0) + flow_cap
    for resource, total_cap in cap_sum.items():
        if total_cap <= resource.capacity + _EPSILON:
            del weight_sum[resource]

    def cap_level(flow):
        return math.inf if flow.cap is None else flow.cap / flow.weight

    rates = {}
    unfrozen = dict.fromkeys(flows)
    capped = sorted((f for f in unfrozen if f.cap is not None), key=cap_level)
    cap_index = 0
    level = 0.0
    while unfrozen:
        while cap_index < len(capped) and capped[cap_index] not in unfrozen:
            cap_index += 1
        delta = math.inf
        bottlenecks = []
        for resource, active_weight in weight_sum.items():
            if active_weight <= _EPSILON:
                continue
            candidate = max(
                (room[resource] - level * active_weight) / active_weight, 0.0
            )
            if candidate < delta - _EPSILON:
                delta = candidate
                bottlenecks = [resource]
            elif candidate <= delta + _EPSILON:
                bottlenecks.append(resource)
        cap_bound = math.inf
        if cap_index < len(capped):
            cap_bound = cap_level(capped[cap_index]) - level
        newly_frozen = []
        if cap_bound < delta - _EPSILON:
            level += max(cap_bound, 0.0)
        else:
            assert bottlenecks, "unconstrained flows in the oracle fill"
            level += delta
            for resource in bottlenecks:
                newly_frozen.extend(f for f in crossing[resource] if f in unfrozen)
        while (
            cap_index < len(capped)
            and cap_level(capped[cap_index]) <= level + _EPSILON
        ):
            flow = capped[cap_index]
            cap_index += 1
            if flow in unfrozen:
                newly_frozen.append(flow)
        if not newly_frozen:
            newly_frozen = list(unfrozen)
        for flow in newly_frozen:
            if flow not in unfrozen:
                continue
            rate = level * flow.weight
            if flow.cap is not None:
                rate = min(rate, flow.cap)
            rates[flow] = rate
            del unfrozen[flow]
            for resource in flow.resources:
                room[resource] -= rate
                if resource in weight_sum:
                    weight_sum[resource] -= flow.weight
    usage = {
        resource: resource.capacity - remaining
        for resource, remaining in room.items()
    }
    return rates, usage


def _close(a, b):
    return math.isclose(a, b, rel_tol=PARITY_EPSILON, abs_tol=PARITY_EPSILON)


class _Member:
    """One of the ``count`` equal burns a burn group stands for: each
    drains at up to one unit per second."""

    def __init__(self, group):
        self.resources = group.resources
        self.cap = 1.0
        self.weight = 1.0


def _assert_matches_oracle(net):
    """Every live rate and every resource's usage agree with a
    from-scratch global fill (resources without flows read zero). The
    oracle sees each burn group as its separate members, and the
    group's rate must be their sum."""
    net.flush()
    members = {
        flow: (
            [_Member(flow) for _ in range(int(flow.weight))]
            if flow.label == "burn" else [flow]
        )
        for flow in net._flows
    }
    rates, usage = global_fill(m for group in members.values() for m in group)
    for flow, group in members.items():
        assert _close(flow._rate, sum(rates[m] for m in group)), flow
    for resource in net.resources.values():
        assert _close(resource.usage, usage.get(resource, 0.0)), resource


# -- solver_version stamps --------------------------------------------------


def test_experiment_tables_carry_solver_stamp():
    from repro.experiments.common import ExperimentTable

    assert SOLVER_VERSION == "partitioned-v3"
    table = ExperimentTable(experiment_id="t", title="T", columns=["x"])
    table.add_row(1.0)
    assert "solver_version: partitioned-v3" in table.format()
    assert "_solver_version: partitioned-v3_" in table.to_markdown()


# -- byte identity against the committed tables ------------------------------


@pytest.mark.parametrize("name, regenerate", [
    ("table1", run_table1),
    ("fig8", lambda: run_fig8(Fig8Config(runs=5))),
], ids=["table1", "fig8"])
def test_production_solver_reproduces_committed_tables(name, regenerate):
    """The committed ``results/`` tables must regenerate byte for byte.
    fig8 exercises the full workflow stack through the flow network;
    table1 pins the static rendering path."""
    with open(os.path.join(RESULTS, f"{name}.txt")) as fh:
        recorded = fh.read()
    assert regenerate().format() + "\n" == recorded


def test_table2_run_reproduces_its_runtime_bit_for_bit():
    """The Cuneiform + HDFS path: one 8-worker Table 2 run exercises
    incremental reduction, staging and the flow solver together, and
    its simulated runtime is pinned to the last bit."""
    runtime, _ = run_weak_scaling_once(Table2Config(), 8, 0)
    assert runtime == 19713.935602787104


# -- which groups a flush re-solves, against the oracle ----------------------


def _record_fills(net):
    """Wrap ``net``'s group fill so every call records its flows."""
    net.fills = []
    fill = net._fill_component

    def recorded(flows, resources):
        net.fills.append(flows)
        fill(flows, resources)

    net._fill_component = recorded
    return net


def _net():
    net = FlowNetwork(Environment())
    net.add_resource("a", 10.0)
    net.add_resource("b", 10.0)
    return _record_fills(net)


def _resolved(net):
    """The groups the fills since the last call re-solved, as a set of
    frozensets of live-flow indices."""
    net.flush()
    index = {flow: i for i, flow in enumerate(net._flows)}
    groups = {frozenset(index[flow] for flow in flows) for flows in net.fills}
    net.fills.clear()
    return groups


def test_components_agree_across_solvers_after_merge_split_flip():
    """The seeds decide which flows get re-solved, so a merge, a split
    and a contention flip must each re-solve the expected groups and
    leave oracle-equal rates."""
    net = _net()
    net.start_flow(None, ["a"])
    net.start_flow(None, ["b"])
    _assert_matches_oracle(net)
    assert _resolved(net) == {frozenset({0}), frozenset({1})}

    bridge = net.start_flow(None, ["a", "b"])
    _assert_matches_oracle(net)
    assert _resolved(net) == {frozenset({0, 1, 2})}  # merged

    bridge.cancel()
    _assert_matches_oracle(net)
    assert _resolved(net) == {frozenset({0}), frozenset({1})}  # split


def test_contention_flip_agrees_across_solvers():
    net = _net()
    net.start_flow(None, ["a"], cap=4.0)
    net.start_flow(None, ["a", "b"], cap=5.0)
    _assert_matches_oracle(net)
    assert not net.resources["a"]._contended
    assert _resolved(net) == set()
    net.start_flow(None, ["a"], cap=3.0)  # cap sum crosses capacity
    _assert_matches_oracle(net)
    assert net.resources["a"]._contended
    assert _resolved(net) == {frozenset({0, 1, 2})}


def test_component_less_flow_joins_and_leaves_on_contention_flips():
    """A flow crossing only uncontended resources belongs to no group
    and runs at its cap; a flip to contended pulls it into one, and the
    flip back releases it to its cap again."""
    net = _net()
    lone = net.start_flow(None, ["a", "b"], cap=4.0)
    _assert_matches_oracle(net)
    assert _resolved(net) == set()
    assert lone.rate == 4.0

    # 4 + 8 > 10 on "a"; the weight holds the lone flow below its cap.
    pusher = net.start_flow(None, ["a"], cap=8.0, weight=4.0)
    _assert_matches_oracle(net)
    assert _resolved(net) == {frozenset({0, 1})}
    assert lone.rate == 2.0

    pusher.cancel()
    _assert_matches_oracle(net)
    assert _resolved(net) == set()
    assert lone.rate == 4.0


def test_component_less_flow_cancelled():
    """Cancelling a group-less flow re-solves nothing: the group on "b"
    shares no resource with it."""
    net = _net()
    lone = net.start_flow(None, ["a"], cap=3.0)
    net.start_flow(None, ["b"])  # uncapped: "b" is contended
    _assert_matches_oracle(net)
    assert _resolved(net) == {frozenset({1})}

    lone.cancel()
    _assert_matches_oracle(net)
    assert _resolved(net) == set()
    assert lone.rate == 0.0 and net.resources["a"].usage == 0.0


def test_component_less_flow_drains():
    env, net = _make_net(["a", "b"], [10.0, 10.0])
    _record_fills(net)
    lone = net.start_flow(6.0, ["a"], cap=3.0)
    stays = net.start_flow(None, ["a"], cap=4.0)
    net.start_flow(None, ["b"])
    _assert_matches_oracle(net)
    assert _resolved(net) == {frozenset({2})}

    env.run(until=lone.done)
    assert env.now == 2.0
    _assert_matches_oracle(net)
    assert _resolved(net) == set()
    assert lone.rate == 0.0 and stays.rate == 4.0
    assert net.resources["a"].usage == 4.0


# -- hypothesis differential: production vs oracle within PARITY_EPSILON ----

sizes = st.floats(min_value=0.5, max_value=1000.0)
capacities = st.floats(min_value=1.0, max_value=500.0)
caps = st.one_of(st.none(), st.floats(min_value=0.1, max_value=50.0))
weights = st.floats(min_value=0.05, max_value=4.0)

op_entries = st.tuples(
    st.integers(0, 4),  # 0-2: start a flow, 3: cancel a live one, 4: burn
    st.integers(0, 31),  # resource bitmask / removal index
    st.one_of(st.none(), sizes),  # size (None = permanent)
    caps,
    weights,
)


def _make_net(names, resource_caps):
    env = Environment()
    net = FlowNetwork(env)
    for name, capacity in zip(names, resource_caps):
        net.add_resource(name, capacity)
    return env, net


def _chosen(names, mask):
    chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
    return chosen or [names[mask % len(names)]]


def _burn(net, names, mask, size):
    """One to three equal burns of this instant on one resource."""
    resource = net.resources[names[mask % len(names)]]
    for _ in range(1 + mask % 3):
        net.burn(resource, 1.0 if size is None else size)


@given(
    st.lists(capacities, min_size=1, max_size=5),
    st.lists(op_entries, min_size=1, max_size=25),
)
@settings(max_examples=120, deadline=None)
def test_solvers_agree_after_every_mutation(resource_caps, script):
    """Arbitrary add/cancel/burn churn: after every mutation each flow
    rate and each resource usage must agree with the oracle within the
    declared PARITY_EPSILON."""
    names = [f"r{i}" for i in range(len(resource_caps))]
    _, net = _make_net(names, resource_caps)
    live = []
    for kind, mask, size, cap, weight in script:
        if kind == 4:
            _burn(net, names, mask, size)
        elif kind == 3 and live:
            live.pop(mask % len(live)).cancel()
        else:
            live.append(
                net.start_flow(size, _chosen(names, mask), cap=cap, weight=weight)
            )
        _assert_matches_oracle(net)


@given(
    st.lists(capacities, min_size=1, max_size=4),
    st.lists(op_entries, min_size=2, max_size=14),
    st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_solvers_agree_after_drains(resource_caps, script, step):
    """Time advances: finite flows drain and complete via the external
    wake slot. Only the groups a completion touched are re-solved,
    so the surviving rates must still match a from-scratch fill of the
    live flows — between steps and at quiescence."""
    names = [f"r{i}" for i in range(len(resource_caps))]
    env, net = _make_net(names, resource_caps)

    def driver(env):
        live = []
        for kind, mask, size, cap, weight in script:
            live = [f for f in live if f in net._flows]
            if kind == 4:
                _burn(net, names, mask, size)
            elif kind == 3 and live:
                live.pop(mask % len(live)).cancel()
            else:
                live.append(
                    net.start_flow(size, _chosen(names, mask), cap=cap, weight=weight)
                )
            yield env.timeout(step)
            _assert_matches_oracle(net)

    process = env.process(driver(env))
    env.run(until=process)
    env.run()  # drain to quiescence
    assert not any(f.remaining is not None for f in net._flows)
    _assert_matches_oracle(net)


# -- ULP divergence characterization ----------------------------------------


def test_ulp_divergence_is_real_and_bounded():
    """Where production and the oracle legitimately differ — and by how
    little.

    The oracle raises ONE global water level whose min-steps interleave
    freeze events from every group; production raises a level per
    group. The two accumulate the same mathematical sum through
    different floating-point operation orders, so rates can differ by a
    few ULPs when independent groups interleave cap-freeze steps on
    the global ladder. This pinned example (found by random search)
    shows the divergence is (a) real — at least one rate differs
    bitwise — and (b) bounded far inside PARITY_EPSILON. It is why the
    tables the global solve recorded drift from ``results/``, measured
    with scripts/diff_tables.py: a one-ULP completion-time shift can
    flip a HEFT tie-break downstream.
    """
    script = [
        (["c"], None, 0.2353180374196061),
        (["c"], 3.877118052013135, 1.6902379325413912),
        (["a"], 2.0288181765114457, 1.6816082771215688),
        (["b"], None, 0.3372491643847248),
        (["a"], 3.3884002189640103, 0.7373247282687612),
        (["a", "b"], None, 2.2411583454818),
    ]
    net = FlowNetwork(Environment())
    for name, capacity in [("a", 10.0), ("b", 7.3), ("c", 5.1)]:
        net.add_resource(name, capacity)
    flows = [
        net.start_flow(None, resources, cap=cap, weight=weight)
        for resources, cap, weight in script
    ]
    net.flush()
    oracle, _usage = global_fill(net._flows)
    pairs = [(flow._rate, oracle[flow]) for flow in flows]
    divergences = [
        abs(a - b) / max(abs(a), abs(b)) for a, b in pairs if a != b
    ]
    assert divergences, "expected at least one bitwise-diverging rate"
    assert max(divergences) < 1e-12  # a few ULPs, nowhere near the epsilon
    for a, b in pairs:
        assert _close(a, b)
