"""Property-based tests for the weighted max-min flow solver."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, FlowNetwork

sizes = st.floats(min_value=0.5, max_value=1000.0)
capacities = st.floats(min_value=1.0, max_value=500.0)
caps = st.one_of(st.none(), st.floats(min_value=0.1, max_value=50.0))
weights = st.floats(min_value=0.05, max_value=4.0)


def reference_water_filling(entries, capacity):
    """Reference weighted max-min on a single resource.

    entries: list of (cap, weight). Returns the rate per flow.
    """
    rates = [0.0] * len(entries)
    unfrozen = set(range(len(entries)))
    room = capacity
    level = 0.0
    while unfrozen:
        total_weight = sum(entries[i][1] for i in unfrozen)
        resource_bound = (room - level * total_weight) / total_weight
        cap_bound = min(
            (
                entries[i][0] / entries[i][1] - level
                for i in unfrozen
                if entries[i][0] is not None
            ),
            default=math.inf,
        )
        step = min(resource_bound, cap_bound)
        level += max(step, 0.0)
        frozen_now = []
        if cap_bound <= resource_bound + 1e-12:
            frozen_now = [
                i
                for i in unfrozen
                if entries[i][0] is not None
                and entries[i][0] / entries[i][1] <= level + 1e-9
            ]
        if resource_bound <= cap_bound + 1e-12 or not frozen_now:
            frozen_now = list(unfrozen)
        for i in frozen_now:
            cap, weight = entries[i]
            rate = level * weight
            if cap is not None:
                rate = min(rate, cap)
            rates[i] = rate
            room -= rate
            unfrozen.discard(i)
    return rates


@given(
    st.lists(st.tuples(caps, weights), min_size=1, max_size=12),
    capacities,
)
@settings(max_examples=200, deadline=None)
def test_single_resource_rates_match_reference(entries, capacity):
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", capacity)
    flows = [
        net.start_flow(1e9, ["r"], cap=cap, weight=weight)
        for cap, weight in entries
    ]
    expected = reference_water_filling(entries, capacity)
    for flow, rate in zip(flows, expected):
        assert flow.rate == pytest.approx(rate, rel=1e-6, abs=1e-9)


@given(
    st.lists(
        st.tuples(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                           max_size=3, unique=True), caps, weights),
        min_size=1,
        max_size=10,
    ),
    st.tuples(capacities, capacities, capacities),
)
@settings(max_examples=200, deadline=None)
def test_no_resource_ever_oversubscribed(flow_specs, caps3):
    env = Environment()
    net = FlowNetwork(env)
    for name, capacity in zip("abc", caps3):
        net.add_resource(name, capacity)
    for resources, cap, weight in flow_specs:
        net.start_flow(1e9, resources, cap=cap, weight=weight)
    for name in "abc":
        resource = net.resources[name]
        assert resource.usage <= resource.capacity + 1e-6
    # Every flow respects its cap.
    for flow in net.active_flows:
        if flow.cap is not None:
            assert flow.rate <= flow.cap + 1e-9


@given(
    st.lists(st.tuples(st.sampled_from(["a", "b"]), caps, weights),
             min_size=2, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_max_min_is_pareto_unimprovable(flow_specs):
    """No flow could get a higher rate without hurting an equal-or-
    smaller normalised flow: each unfilled flow crosses a saturated
    resource."""
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("a", 100.0)
    net.add_resource("b", 60.0)
    for resource, cap, weight in flow_specs:
        net.start_flow(1e9, [resource], cap=cap, weight=weight)
    for flow in net.active_flows:
        capped = flow.cap is not None and flow.rate >= flow.cap - 1e-9
        saturated = any(
            r.usage >= r.capacity - 1e-6 for r in flow.resources
        )
        assert capped or saturated


@given(st.lists(sizes, min_size=1, max_size=10), capacities)
@settings(max_examples=100, deadline=None)
def test_work_conservation_on_single_resource(flow_sizes, capacity):
    """Uncapped flows keep the resource saturated: the last completion
    happens exactly at total_size / capacity."""
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", capacity)
    flows = [net.start_flow(size, ["r"]) for size in flow_sizes]
    env.run(until=env.all_of([f.done for f in flows]))
    assert env.now == pytest.approx(sum(flow_sizes) / capacity, rel=1e-6)


@given(
    st.lists(st.tuples(sizes, st.floats(min_value=0.2, max_value=8.0)),
             min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_capped_flows_complete_no_earlier_than_their_cap_allows(entries):
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", 1000.0)
    completions = []
    for size, cap in entries:
        flow = net.start_flow(size, ["r"], cap=cap)
        completions.append((flow, size / cap))
    env.run()
    for flow, lower_bound in completions:
        assert flow.done.triggered


def test_weighted_sharing_skews_rates():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", 90.0)
    heavy = net.start_flow(1e9, ["r"], weight=2.0)
    light = net.start_flow(1e9, ["r"], weight=1.0)
    assert heavy.rate == pytest.approx(60.0)
    assert light.rate == pytest.approx(30.0)


def test_low_weight_background_yields_to_foreground():
    """The Fig. 9 stress model: many low-weight hogs perturb but do not
    starve a container task."""
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("cpu", 2.0)
    for _ in range(256):
        net.start_flow(None, ["cpu"], cap=1.0, weight=0.12)
    task = net.start_flow(10.0, ["cpu"], cap=1.0)
    # Fair share: 2 / (1 + 256*0.12) = 0.063 -> ~16x slowdown, not 129x.
    assert task.rate == pytest.approx(2.0 / (1 + 256 * 0.12), rel=1e-6)
    env.run(until=task.done)


# -- incremental vs from-scratch differential -------------------------------

op_entries = st.tuples(
    st.integers(0, 3),  # 0-2: start a flow, 3: cancel a live one
    st.integers(0, 31),  # resource bitmask / removal index
    st.one_of(st.none(), sizes),  # size (None = permanent)
    caps,
    weights,
)


def _rebuild_from_scratch(net, names, resource_caps):
    """A fresh network holding the same live flows in creation order."""
    ref_env = Environment()
    ref = FlowNetwork(ref_env)
    for name, capacity in zip(names, resource_caps):
        ref.add_resource(name, capacity)
    ref_flows = [
        ref.start_flow(
            None,  # rates do not depend on the remaining size
            [r.name for r in flow.resources],
            cap=flow.cap,
            weight=flow.weight,
        )
        for flow in net._flows
    ]
    ref.flush()
    return ref, ref_flows


def _assert_states_match(net, names, resource_caps):
    ref, ref_flows = _rebuild_from_scratch(net, names, resource_caps)
    for mine, theirs in zip(net._flows, ref_flows):
        assert math.isclose(mine._rate, theirs._rate, rel_tol=1e-9, abs_tol=1e-9)
    for name in names:
        resource = net.resources[name]
        assert math.isclose(
            resource.usage,
            sum(f._rate for f in resource.flows),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        assert math.isclose(
            resource.usage,
            ref.resources[name].usage,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )


@given(
    st.lists(capacities, min_size=1, max_size=5),
    st.lists(op_entries, min_size=1, max_size=25),
)
@settings(max_examples=120, deadline=None)
def test_incremental_solver_matches_from_scratch(resource_caps, script):
    """Arbitrary add/cancel churn: the solver (per-component fills over
    incrementally maintained components) must agree with a from-scratch solve of the
    surviving flows after every single mutation."""
    env = Environment()
    net = FlowNetwork(env)
    names = [f"r{i}" for i in range(len(resource_caps))]
    for name, capacity in zip(names, resource_caps):
        net.add_resource(name, capacity)
    live = []
    for kind, mask, size, cap, weight in script:
        if kind == 3 and live:
            live.pop(mask % len(live)).cancel()
        else:
            chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
            if not chosen:
                chosen = [names[mask % len(names)]]
            live.append(net.start_flow(size, chosen, cap=cap, weight=weight))
        net.flush()
        _assert_states_match(net, names, resource_caps)


@given(
    st.lists(capacities, min_size=1, max_size=4),
    st.lists(op_entries, min_size=2, max_size=14),
    st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_incremental_solver_matches_after_completions(
    resource_caps, script, step
):
    """Time actually advances here: finite flows drain and complete via
    the external wake slot, and the surviving rates must still match a
    from-scratch solve."""
    env = Environment()
    net = FlowNetwork(env)
    names = [f"r{i}" for i in range(len(resource_caps))]
    for name, capacity in zip(names, resource_caps):
        net.add_resource(name, capacity)

    def driver(env):
        live = []
        for kind, mask, size, cap, weight in script:
            live = [f for f in live if f in net._flows]
            if kind == 3 and live:
                live.pop(mask % len(live)).cancel()
            else:
                chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
                if not chosen:
                    chosen = [names[mask % len(names)]]
                live.append(net.start_flow(size, chosen, cap=cap, weight=weight))
            yield env.timeout(step)

    process = env.process(driver(env))
    env.run(until=process)
    net.flush()
    _assert_states_match(net, names, resource_caps)
    # Drain to the end: every finite flow must eventually complete.
    env.run()
    net.flush()
    assert not any(f.remaining is not None for f in net._flows)
    _assert_states_match(net, names, resource_caps)
