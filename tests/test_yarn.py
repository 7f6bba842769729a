"""Unit tests for the simulated YARN layer."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.errors import ContainerError, Interrupt, YarnError
from repro.sim import Environment
from repro.yarn import ContainerResource, ContainerState, ResourceManager


def make_rm(workers=3, max_per_node=None):
    env = Environment()
    spec = ClusterSpec(worker_spec=M3_LARGE, worker_count=workers)
    cluster = Cluster(env, spec)
    rm = ResourceManager(env, cluster, max_containers_per_node=max_per_node)
    return env, cluster, rm


SMALL = ContainerResource(vcores=1, memory_mb=1024.0)


def test_allocation_spreads_round_robin():
    env, cluster, rm = make_rm(workers=3)
    app = rm.register_application("test")
    events = [rm.request_container(app, SMALL) for _ in range(3)]
    env.run()
    nodes = [event.value.node_id for event in events]
    assert sorted(nodes) == ["worker-0", "worker-1", "worker-2"]


def test_allocation_waits_for_capacity():
    env, cluster, rm = make_rm(workers=1)  # m3.large: 2 vcores
    app = rm.register_application("test")
    first = rm.request_container(app, SMALL)
    second = rm.request_container(app, SMALL)
    third = rm.request_container(app, SMALL)
    env.run()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert rm.pending_request_count() == 1
    rm.release_container(first.value)
    env.run()
    assert third.triggered


def test_max_containers_per_node_enforced():
    env, cluster, rm = make_rm(workers=1, max_per_node=1)
    app = rm.register_application("test")
    first = rm.request_container(app, SMALL)
    second = rm.request_container(app, SMALL)
    env.run()
    assert first.triggered and not second.triggered


def test_strict_request_waits_for_named_node():
    env, cluster, rm = make_rm(workers=2, max_per_node=1)
    app = rm.register_application("test")
    blocker = rm.request_container(app, SMALL, preferred_node="worker-1")
    env.run()
    assert blocker.value.node_id == "worker-1"
    strict = rm.request_container(app, SMALL, preferred_node="worker-1", strict=True)
    relaxed = rm.request_container(app, SMALL, preferred_node="worker-1", strict=False)
    env.run()
    assert not strict.triggered  # waits for worker-1 despite worker-0 free
    assert relaxed.triggered and relaxed.value.node_id == "worker-0"
    rm.release_container(blocker.value)
    env.run()
    assert strict.triggered and strict.value.node_id == "worker-1"


def test_strict_without_preference_rejected():
    env, cluster, rm = make_rm()
    app = rm.register_application("test")
    with pytest.raises(YarnError):
        rm.request_container(app, SMALL, strict=True)


def test_unknown_app_and_node_rejected():
    env, cluster, rm = make_rm()
    app = rm.register_application("test")
    rm.unregister_application(app)
    with pytest.raises(YarnError):
        rm.request_container(app, SMALL)
    app2 = rm.register_application("test2")
    with pytest.raises(YarnError):
        rm.request_container(app2, SMALL, preferred_node="worker-99")


def test_container_launch_runs_body():
    env, cluster, rm = make_rm()
    app = rm.register_application("test")
    event = rm.request_container(app, SMALL)
    env.run()
    container = event.value

    def body(env, node):
        yield node.compute(4.0, threads=1)
        return "finished"

    manager = rm.node_managers[container.node_id]
    started = env.now
    process = manager.launch(container, body(env, manager.node))
    env.run(until=process)
    outcome = process.value
    assert outcome.success and outcome.value == "finished"
    assert container.state is ContainerState.COMPLETED
    assert env.now - started == pytest.approx(4.0)


def test_double_launch_rejected():
    env, cluster, rm = make_rm()
    app = rm.register_application("test")
    event = rm.request_container(app, SMALL)
    env.run()
    container = event.value
    manager = rm.node_managers[container.node_id]

    def body(env):
        yield env.timeout(10.0)

    manager.launch(container, body(env))
    with pytest.raises(ContainerError):
        manager.launch(container, body(env))


def test_release_interrupts_running_body():
    env, cluster, rm = make_rm()
    app = rm.register_application("test")
    event = rm.request_container(app, SMALL)
    env.run()
    container = event.value
    manager = rm.node_managers[container.node_id]
    interrupted = []

    def body(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            interrupted.append(exc.cause)
            raise

    process = manager.launch(container, body(env))
    env.run(until=1.0)
    rm.release_container(container)
    env.run()
    assert interrupted == ["container released"]
    assert manager.available_vcores == 2
    assert not process.value.success


def test_node_crash_fails_containers_and_capacity():
    env, cluster, rm = make_rm(workers=2)
    app = rm.register_application("test")
    event = rm.request_container(app, SMALL, preferred_node="worker-0")
    env.run()
    container = event.value

    def body(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            return "killed"

    manager = rm.node_managers["worker-0"]
    process = manager.launch(container, body(env))
    env.run(until=0.5)  # let the body start before the node dies
    casualties = rm.crash_node("worker-0")
    env.run()
    assert casualties == [container]
    assert container.state is ContainerState.FAILED
    assert not manager.can_fit(SMALL)
    # New requests route to the surviving node.
    replacement = rm.request_container(app, SMALL)
    env.run()
    assert replacement.value.node_id == "worker-1"
    outcome = process.value
    assert not outcome.success and outcome.value == "killed"


def test_total_capacity_reflects_crashes():
    env, cluster, rm = make_rm(workers=3)
    assert rm.total_capacity_vcores == 6
    rm.crash_node("worker-1")
    assert rm.total_capacity_vcores == 4


def test_container_resource_validation():
    with pytest.raises(ValueError):
        ContainerResource(vcores=0)
    with pytest.raises(ValueError):
        ContainerResource(memory_mb=0)


def test_rm_charges_master_cpu():
    env, cluster, rm = make_rm(workers=2)
    app = rm.register_application("test")
    for _ in range(4):
        rm.request_container(app, SMALL)
    env.run()
    cluster.metrics.finish()
    master_cpu = cluster.metrics.usages["cpu:master-0"]
    assert master_cpu.integral > 0.0


def _fair_vs_fifo_setup(mode):
    """Both slots busy; greedy then modest queue behind; free one slot."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    rm = ResourceManager(env, cluster, max_containers_per_node=1, policy=mode)
    blocker = rm.register_application("blocker")
    holders = [rm.request_container(blocker, SMALL) for _ in range(2)]
    env.run()
    greedy = rm.register_application("greedy")
    modest = rm.register_application("modest")
    greedy_events = [rm.request_container(greedy, SMALL) for _ in range(4)]
    modest_event = rm.request_container(modest, SMALL)
    env.run()
    assert not modest_event.triggered and not greedy_events[0].triggered
    # One blocker slot frees: who gets it?
    rm.release_container(holders[0].value)
    env.run()
    return greedy_events, modest_event


def test_fair_mode_interleaves_applications():
    # Fair mode: greedy already "holds" queue depth but zero containers;
    # so does modest — arrival order would favour greedy, but once greedy
    # is granted one container, fairness puts modest next. Free two
    # slots: each app gets one.
    greedy_events, modest_event = _fair_vs_fifo_setup("fair")
    assert greedy_events[0].triggered
    assert not modest_event.triggered  # greedy held 0, went first
    # Under FIFO the next freed slot would go to greedy again; under
    # fair it must go to modest (greedy now holds one).
    # The remaining blocker container is still held; emulate another
    # release by granting through a fresh setup with two releases.
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    rm = ResourceManager(env, cluster, max_containers_per_node=1, policy="fair")
    blocker = rm.register_application("blocker")
    holders = [rm.request_container(blocker, SMALL) for _ in range(2)]
    env.run()
    greedy = rm.register_application("greedy")
    modest = rm.register_application("modest")
    greedy_events = [rm.request_container(greedy, SMALL) for _ in range(4)]
    modest_event = rm.request_container(modest, SMALL)
    env.run()
    for holder in holders:
        rm.release_container(holder.value)
    env.run()
    assert modest_event.triggered, "fair mode must not starve the late app"
    assert sum(1 for e in greedy_events if e.triggered) == 1


def test_fifo_mode_starves_late_application():
    greedy_events, modest_event = _fair_vs_fifo_setup("fifo")
    assert greedy_events[0].triggered
    assert not modest_event.triggered
    # Even after more capacity frees, FIFO keeps serving greedy first
    # (4 queued greedy requests precede modest's).


def test_unknown_scheduling_mode_rejected():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=1))
    with pytest.raises(YarnError, match="allocation policy"):
        ResourceManager(env, cluster, policy="lottery")
