"""Tests for the metrics recorder: resource integrals are flow work."""

import math

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.cluster.stress import StressProfile, apply_stress
from repro.core import HiWay
from repro.experiments.fig6 import _fig6_unit
from repro.experiments.table2 import Table2Config
from repro.sim import Environment, FlowNetwork, MetricRecorder
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph


def test_duration_and_average_rate():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("cpu", 4.0)
    recorder = MetricRecorder(net)
    flow = net.start_flow(8.0, ["cpu"], cap=2.0)
    env.run(until=flow.done)
    env.timeout(4.0)
    env.run()
    # 8 core-seconds over 8 seconds total -> mean 1.0 core.
    assert recorder.duration() == pytest.approx(8.0)
    assert recorder.average_rate("cpu") == pytest.approx(1.0)
    assert recorder.average_utilization("cpu") == pytest.approx(0.25)


def test_unknown_resource_reports_zero():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("x", 1.0)
    recorder = MetricRecorder(net)
    assert recorder.average_rate("nope") == 0.0
    assert recorder.average_utilization("nope") == 0.0


def test_integral_matches_hand_schedule():
    """One resource (capacity 12) carries four flows:

    * ``perm``: permanent, cap 8 — 8 on [0, 2), 4 on [2, 5) while
      ``cancelled`` contends, back to 8 after (its second change is a
      re-seed off the contended fill);
    * ``done``: 40 units, cap 4 — 4 on [0, 10), completes at 10;
    * ``cancelled``: 100 units, uncapped — 4 on [2, 5), cancelled at 5
      after 12 units;
    * ``running``: 100 units, cap 4 — 4 from 11 on, still running.

    Usage is 12 on [0, 10), 8 on [10, 11) and 12 after.
    """
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", 12.0)
    recorder = MetricRecorder(net)
    flows = {}

    def schedule():
        flows["perm"] = net.start_flow(None, ["r"], cap=8.0)
        flows["done"] = net.start_flow(40.0, ["r"], cap=4.0)
        yield env.timeout(2.0)
        flows["cancelled"] = net.start_flow(100.0, ["r"])
        yield env.timeout(3.0)
        flows["cancelled"].cancel()
        yield env.timeout(6.0)
        flows["running"] = net.start_flow(100.0, ["r"], cap=4.0)

    env.process(schedule())
    env.run(until=8.5)
    assert flows["done"].remaining == 20.0  # last settled at 5
    # perm 16 + 12 + 28, done 34, cancelled 12.
    assert recorder.integral("r") == pytest.approx(102.0, rel=1e-12)
    env.run(until=13.0)
    assert flows["done"].done.triggered
    assert flows["running"].remaining == 100.0  # last settled at 11
    # perm 16 + 12 + 64, done 40, cancelled 12, running 8.
    assert recorder.integral("r") == pytest.approx(152.0, rel=1e-12)
    assert recorder.average_rate("r") == pytest.approx(152.0 / 13.0, rel=1e-12)


def test_mid_run_read_is_exact():
    """A read between rebalances sees every resource up to now, not up to
    the last instant the network happened to touch it."""
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("a", 2.0)
    net.add_resource("b", 2.0)
    recorder = MetricRecorder(net)
    net.start_flow(None, ["a"], cap=1.0)

    def later():
        yield env.timeout(5.0)
        net.start_flow(100.0, ["b"], cap=1.0)

    env.process(later())
    env.run(until=10.0)
    assert recorder.average_rate("a") == 1.0
    assert recorder.average_rate("b") == 0.5


def _small_run(read_every_second):
    """A stressed three-worker Hi-WAY run; returns every flow completion
    time in completion order and the final clock."""
    env = Environment()
    # A narrow backbone and weighted stress give rates with long binary
    # expansions, so settling at a read would move completion floats.
    cluster = Cluster(env, ClusterSpec(
        worker_spec=M3_LARGE, worker_count=3, master_count=2, backbone_mb_s=70.0
    ))
    network = cluster.network
    completions = []
    start_flow = network.start_flow

    def recording_start_flow(*args, **kwargs):
        flow = start_flow(*args, **kwargs)
        if flow.done is not None:
            flow.done.callbacks.append(lambda event: completions.append(env.now))
        return flow

    network.start_flow = recording_start_flow
    apply_stress(cluster, StressProfile(
        cpu_hogs={"worker-1": 3}, io_writers={"worker-2": 1}, weight=0.3
    ))
    hiway = HiWay(cluster)
    hiway.install_everywhere("sort", "grep")
    graph = WorkflowGraph("g")
    for index in range(6):
        graph.add_task(TaskSpec(
            tool="sort", inputs=[f"/in/x{index % 3}"], outputs=[f"/mid/y{index}"]
        ))
    graph.add_task(TaskSpec(
        tool="grep", inputs=[f"/mid/y{index}" for index in range(6)],
        outputs=["/out/z"],
    ))
    hiway.stage_inputs({f"/in/x{index}": 96.0 for index in range(3)})
    if read_every_second:
        names = list(network.resources)

        def reader():
            while True:
                yield env.timeout(1.0)
                for name in names:
                    cluster.metrics.average_rate(name)

        env.process(reader())
    result = hiway.run(StaticTaskSource(graph))
    assert result.success, result.diagnostics
    return completions, env.now


def test_reads_do_not_perturb_the_run():
    """Reading integrals never settles the network, so a run read every
    simulated second completes every flow at the same float instant."""
    quiet, quiet_end = _small_run(read_every_second=False)
    read, read_end = _small_run(read_every_second=True)
    assert len(quiet) > 20
    assert read == quiet
    assert read_end == quiet_end


def test_fig6_row_below_print_precision():
    """A Figure 6 row at four workers, to far below the table's 3-4
    printed digits (only summation order may move the integrals)."""
    row = _fig6_unit(Table2Config(), 4, 0)
    expected = (
        0.0036389930249234497, 0.003028280097498612, 1.960364807177695, 0.0,
        0.016914238378747525, 0.01603858684757948, 1.796691747536803,
    )
    assert row[0] == 4
    for got, want in zip(row[1:], expected, strict=True):
        assert math.isclose(got, want, rel_tol=1e-9), (got, want)
