"""Unit tests for the max-min fair-share flow model."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, FlowNetwork, MetricRecorder


def make_net(**resources):
    env = Environment()
    net = FlowNetwork(env)
    for name, capacity in resources.items():
        net.add_resource(name, capacity)
    return env, net


def finish_time(env, flow):
    env.run(until=flow.done)
    return env.now


def test_single_flow_runs_at_capacity():
    env, net = make_net(link=100.0)
    flow = net.start_flow(500.0, ["link"])
    assert finish_time(env, flow) == pytest.approx(5.0)


def test_two_flows_share_fairly():
    env, net = make_net(link=100.0)
    a = net.start_flow(500.0, ["link"])
    b = net.start_flow(500.0, ["link"])
    # Both at 50 until both finish at t=10.
    env.run(until=env.all_of([a.done, b.done]))
    assert env.now == pytest.approx(10.0)


def test_short_flow_releases_bandwidth_to_long_flow():
    env, net = make_net(link=100.0)
    long_flow = net.start_flow(1000.0, ["link"])
    short_flow = net.start_flow(100.0, ["link"])
    # Shared at 50 each: short done at t=2 (100/50); long has 900 left,
    # then runs at 100: done at 2 + 900/100 = 11.
    assert finish_time(env, short_flow) == pytest.approx(2.0)
    assert finish_time(env, long_flow) == pytest.approx(11.0)


def test_flow_cap_limits_rate():
    env, net = make_net(link=100.0)
    flow = net.start_flow(100.0, ["link"], cap=10.0)
    assert finish_time(env, flow) == pytest.approx(10.0)


def test_capped_flow_leaves_bandwidth_for_others():
    env, net = make_net(link=100.0)
    capped = net.start_flow(100.0, ["link"], cap=10.0)
    greedy = net.start_flow(900.0, ["link"])
    # capped at 10, greedy at 90: both finish at t=10.
    assert finish_time(env, greedy) == pytest.approx(10.0)
    assert capped.done.triggered


def test_multi_resource_flow_bound_by_tightest():
    env, net = make_net(src=100.0, backbone=1000.0, dst=40.0)
    flow = net.start_flow(400.0, ["src", "backbone", "dst"])
    assert finish_time(env, flow) == pytest.approx(10.0)


def test_backbone_contention_across_disjoint_links():
    # Four transfers on separate host links but a shared 100-unit backbone.
    env, net = make_net(a=100.0, b=100.0, c=100.0, d=100.0, bb=100.0)
    flows = [
        net.start_flow(250.0, [name, "bb"]) for name in ("a", "b", "c", "d")
    ]
    env.run(until=env.all_of([f.done for f in flows]))
    # Each gets 25 via the backbone: 250/25 = 10s.
    assert env.now == pytest.approx(10.0)


def test_unbalanced_sharing_max_min():
    # Flow X uses only the backbone; flows Y1,Y2 share one 30-unit link.
    env, net = make_net(bb=90.0, link=30.0)
    y1 = net.start_flow(150.0, ["link", "bb"])
    y2 = net.start_flow(150.0, ["link", "bb"])
    x = net.start_flow(600.0, ["bb"])
    # Max-min: y1=y2=15 (link-bound), x gets remaining 60.
    env.run(until=env.all_of([y1.done, y2.done]))
    assert env.now == pytest.approx(10.0)
    # x had 600 - 60*10 = 0 left; completes at the same instant.
    assert finish_time(env, x) == pytest.approx(10.0)


def test_permanent_flow_consumes_share_forever():
    env, net = make_net(cpu=2.0)
    stress = net.start_flow(None, ["cpu"], cap=1.0, label="stress")
    work = net.start_flow(10.0, ["cpu"], cap=2.0)
    # Stress pins one core; work gets the other: 10/1 = 10s.
    assert finish_time(env, work) == pytest.approx(10.0)
    assert stress.done is None
    assert stress.rate == pytest.approx(1.0)


def test_cancel_removes_permanent_flow():
    env, net = make_net(cpu=2.0)
    stress = net.start_flow(None, ["cpu"], cap=1.0)
    stress.cancel()
    work = net.start_flow(10.0, ["cpu"], cap=2.0)
    assert finish_time(env, work) == pytest.approx(5.0)


def test_zero_size_flow_completes_immediately():
    env, net = make_net(link=10.0)
    flow = net.start_flow(0.0, ["link"])
    env.run()
    assert flow.done.triggered


def test_oversubscribed_cpu_fair_shares_cores():
    # 4 cores, 8 single-threaded jobs -> each runs at 0.5 cores.
    env, net = make_net(cpu=4.0)
    jobs = [net.start_flow(10.0, ["cpu"], cap=1.0) for _ in range(8)]
    env.run(until=env.all_of([j.done for j in jobs]))
    assert env.now == pytest.approx(20.0)


def test_undersubscribed_cpu_respects_thread_cap():
    # 4 cores, one 2-thread job: rate 2, not 4.
    env, net = make_net(cpu=4.0)
    job = net.start_flow(10.0, ["cpu"], cap=2.0)
    assert finish_time(env, job) == pytest.approx(5.0)


def test_duplicate_resource_rejected():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("x", 1.0)
    with pytest.raises(SimulationError):
        net.add_resource("x", 2.0)


def test_invalid_flow_arguments_rejected():
    env, net = make_net(link=10.0)
    with pytest.raises(SimulationError):
        net.start_flow(10.0, [])
    with pytest.raises(SimulationError):
        net.start_flow(10.0, ["link"], cap=0.0)
    with pytest.raises(SimulationError):
        net.start_flow(-5.0, ["link"])
    with pytest.raises(SimulationError):
        FlowNetwork(env).add_resource("bad", 0.0)


def test_metrics_integrate_usage_exactly():
    env, net = make_net(link=100.0)
    recorder = MetricRecorder(net)
    flow = net.start_flow(500.0, ["link"])
    env.run(until=flow.done)
    # Idle tail to confirm the integral stops growing.
    env.timeout(5.0)
    env.run()
    assert recorder.integral("link") == pytest.approx(500.0)
    assert recorder.average_utilization("link") == pytest.approx(0.5)


def test_no_livelock_when_completion_delta_is_below_clock_ulp():
    """Regression: a flow whose remaining work needs a completion delay
    smaller than the clock's float resolution must still complete
    (before the fix, the timer re-fired at the same instant forever)."""
    env = Environment(initial_time=66_000.0)  # large clock, coarse ULP
    net = FlowNetwork(env)
    net.add_resource("r", 100.0)
    # Remaining just above the drain tolerance: the natural completion
    # delay (~1e-11 s) is below the ULP of t=66,000.
    flow = net.start_flow(2e-9, ["r"])
    env.run(until=flow.done)
    assert flow.done.triggered
    assert env.now >= 66_000.0


def test_long_horizon_simulation_terminates():
    """Chains of tiny and huge flows across a week of simulated time."""
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", 1.0)

    def churn(env):
        for index in range(200):
            size = 1e-8 if index % 2 else 3_000.0
            flow = net.start_flow(size, ["r"])
            yield flow.done
        return env.now

    process = env.process(churn(env))
    env.run(until=process)
    assert process.value > 200_000.0  # ~100 big flows x 3000 s


# -- incremental solver: re-solved groups, laziness, and the wake slot -----


def record_fills(net):
    """Wrap ``net``'s group fill; returns the list every call appends
    its flows to, as a frozenset."""
    fills = []
    fill = net._fill_component

    def recorded(flows, resources):
        fills.append(frozenset(flows))
        fill(flows, resources)

    net._fill_component = recorded
    return fills


def test_components_merge_when_a_flow_bridges_them():
    env, net = make_net(a=10.0, b=10.0)
    fills = record_fills(net)
    left = net.start_flow(None, ["a"])
    right = net.start_flow(None, ["b"])
    net.flush()
    assert len(fills) == 2 and set(fills) == {frozenset({left}), frozenset({right})}
    fills.clear()
    bridge = net.start_flow(None, ["a", "b"])
    net.flush()
    assert fills == [{left, right, bridge}]
    # Fair share across the merged group: the bridge competes on both
    # resources, so each side splits evenly with it.
    assert left.rate == pytest.approx(5.0)
    assert right.rate == pytest.approx(5.0)
    assert bridge.rate == pytest.approx(5.0)


def test_components_split_when_the_bridge_is_removed():
    env, net = make_net(a=10.0, b=10.0)
    fills = record_fills(net)
    left = net.start_flow(None, ["a"])
    right = net.start_flow(None, ["b"])
    bridge = net.start_flow(None, ["a", "b"])
    net.flush()
    assert fills == [{left, right, bridge}]
    fills.clear()
    bridge.cancel()
    net.flush()
    assert len(fills) == 2 and set(fills) == {frozenset({left}), frozenset({right})}
    assert left.rate == pytest.approx(10.0)
    assert right.rate == pytest.approx(10.0)


def test_contention_flip_drags_components_together():
    env, net = make_net(a=10.0, b=10.0)
    fills = record_fills(net)
    # Capped below capacity on "a": it starts out uncontended.
    capped = net.start_flow(None, ["a"], cap=4.0)
    spanning = net.start_flow(None, ["a", "b"], cap=5.0)
    net.flush()
    a = net.resources["a"]
    assert not a._contended  # 4 + 5 < 10
    assert fills == []  # both run at their caps
    # A third flow pushes the cap sum past capacity: "a" flips to
    # contended and its flows are re-solved as one group.
    extra = net.start_flow(None, ["a"], cap=3.0)
    net.flush()
    assert a._contended
    assert fills == [{capped, spanning, extra}]
    assert capped.rate + spanning.rate + extra.rate == pytest.approx(10.0)


def test_churn_in_one_component_leaves_others_untouched():
    env, net = make_net(a=10.0, b=10.0)
    fills = record_fills(net)
    left = net.start_flow(None, ["a"])
    right = net.start_flow(None, ["b"])
    net.flush()
    env.run(until=5.0)
    fills.clear()
    joined = net.start_flow(None, ["a"])
    net.flush()
    doomed = net.start_flow(100.0, ["a"])
    env.run(until=10.0)
    doomed.cancel()
    net.flush()
    # Churn on "a" re-solves only the group on "a": the group on "b" is
    # never filled again, so its permanent flow never banks its work.
    assert fills == [{left, joined}, {left, joined, doomed}, {left, joined}]
    assert left._banked_at == 10.0
    assert right._banked_at == 0.0
    assert left.rate == pytest.approx(5.0)
    assert right.rate == pytest.approx(10.0)


def test_kernel_queue_stays_bounded_under_rebalance_churn():
    """The old solver armed a fresh fire-and-forget timeout on every
    rebalance and let stale ones pile up in the kernel queue; the
    completion timer is now the environment's external wake slot,
    re-aimed in place, so churn leaves nothing behind in the queue."""
    env, net = make_net(link=100.0)
    steady = net.start_flow(1e9, ["link"])
    sizes = []

    def churn(env):
        for _ in range(200):
            extra = net.start_flow(1e6, ["link"])
            yield env.timeout(0.01)
            extra.cancel()
            yield env.timeout(0.01)
            sizes.append(len(env._queue))

    process = env.process(churn(env))
    env.run(until=process)
    assert steady.rate == pytest.approx(100.0)
    # One wake timer plus a handful of in-flight deferred steps; the old
    # solver would have had hundreds of stale timeouts piled up here.
    assert max(sizes) < 10
    # The wake slot holds at most one pending completion target.
    assert env._wake_time == math.inf or env._wake_time >= env.now


def test_flow_repr_does_not_force_a_rebalance():
    env, net = make_net(link=100.0)
    flow = net.start_flow(500.0, ["link"], label="stage-in")
    assert net._dirty
    text = repr(flow)
    assert "stage-in" in text
    # Formatting must not flush: the deferred rebalance is still pending.
    assert net._dirty
    assert flow._rate == 0.0


def test_usage_read_after_completion_sees_resolved_rates():
    env, net = make_net(link=100.0)
    net.start_flow(None, ["link"], weight=0.1, label="bg")
    transfer = net.start_flow(50.0, ["link"])
    env.run(until=transfer.done)
    # The completion left only permanent flows behind; the instant's
    # flush hands the freed bandwidth to the background flow, and any
    # read observes the re-solved rates.
    assert net.resources["link"].usage == pytest.approx(100.0)


def test_a_dead_flow_reports_zero_rate():
    """A cancelled or drained flow carries nothing, so its rate reads
    zero and the live rates add up to the resource's usage."""
    env, net = make_net(a=10.0)
    doomed = net.start_flow(100.0, ["a"])
    net.start_flow(None, ["a"])
    env.run(until=5.0)
    doomed.cancel()
    assert doomed.rate == 0.0
    assert sum(f.rate for f in net.active_flows) == net.resources["a"].usage == 10.0

    drained = net.start_flow(20.0, ["a"])
    env.run(until=drained.done)
    assert drained.rate == 0.0
    assert sum(f.rate for f in net.active_flows) == net.resources["a"].usage == 10.0


# -- coalesced burns and one solve per instant --------------------------------


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12)


def _burn_run(burn, k, cores, task_size):
    """``k`` equal unawaited 0.5-core-second charges on a ``cores``-core
    CPU beside an awaited two-thread task (none when ``task_size`` is
    0), as burns or as ``k`` separate flows. Returns the task's
    completion instant, the instant the network went quiet, the CPU's
    usage integral and the flows left."""
    env, net = make_net(cpu=cores)
    recorder = MetricRecorder(net)
    cpu = net.resources["cpu"]
    task = net.start_flow(task_size, [cpu], cap=2.0)
    for _ in range(k):
        if burn:
            net.burn(cpu, 0.5)
        else:
            net.start_flow(0.5, [cpu], cap=1.0)
    env.run(until=task.done)
    task_done = env.now
    env.run()
    return task_done, env.now, recorder.integral("cpu"), net.active_flows


@pytest.mark.parametrize("k, cores, task_size", [
    (3, 4.0, 0.0),  # uncontended: the caps sum to 3 of 4 cores
    (3, 4.0, 6.0),
    (7, 2.0, 0.0),  # contended: more charges than cores
    (7, 2.0, 6.0),
    (7, 2.0, 0.3),  # the task finishes while the burns still drain
])
def test_equal_burns_drain_like_separate_flows(k, cores, task_size):
    separate = _burn_run(False, k, cores, task_size)
    burned = _burn_run(True, k, cores, task_size)
    for a, b in zip(separate[:3], burned[:3]):
        assert _close(a, b), (separate, burned)
    assert _close(burned[2], k * 0.5 + task_size)
    assert burned[3] == ()


def test_equal_burns_of_one_instant_start_one_flow():
    env, net = make_net(cpu=2.0)
    cpu = net.resources["cpu"]
    for _ in range(5):
        net.burn(cpu, 0.5)
    net.burn(cpu, 0.25)
    # Nothing starts before the instant's flush.
    assert net.active_flows == ()
    net.flush()
    groups = sorted((f.size, f.cap, f.weight) for f in net.active_flows)
    assert groups == [(0.25, 1.0, 1), (2.5, 5.0, 5)]
    assert all(f.done is None for f in net.active_flows)


def test_a_zero_burn_starts_nothing():
    env, net = make_net(cpu=2.0)
    net.burn(net.resources["cpu"], 0.0)
    assert not net._dirty
    net.flush()
    env.run()
    assert net.active_flows == () and env.now == 0.0


def test_a_completion_and_its_reaction_are_solved_by_one_flush(monkeypatch):
    """A completion wakes a process that starts its next flow at the
    same instant; one rebalance solves both."""
    env, net = make_net(link=10.0)
    instants = []
    solve = FlowNetwork._rebalance_partitioned

    def counted(self):
        instants.append(self.env.now)
        solve(self)

    monkeypatch.setattr(FlowNetwork, "_rebalance_partitioned", counted)

    def chain(env):
        for _ in range(3):
            yield net.start_flow(10.0, ["link"]).done

    env.process(chain(env))
    env.run()
    assert instants == [0.0, 1.0, 2.0, 3.0]
