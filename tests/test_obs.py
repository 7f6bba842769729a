"""Tests for the observability spine: bus, subscribers and the trace fold."""

import json
import time

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay
from repro.obs import EventBus, trace_records
from repro.obs.journal import EVENT_TYPES
from repro.obs.tracer import dump_chrome_trace
from repro.obs.events import (
    ContainerLaunched,
    FileStaged,
    HdfsRead,
    TaskAttemptFinished,
    TaskDispatched,
    WorkflowFinished,
    WorkflowStarted,
)
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph

import pytest


# -- bus unit behaviour ---------------------------------------------------------


def test_idle_bus_fast_path():
    bus = EventBus(Environment())
    assert not bus.active
    assert not bus.wants(TaskDispatched)
    event = TaskDispatched(task_id="t1")
    returned = bus.emit(event)
    # Inactive bus neither stamps nor dispatches.
    assert returned is event
    assert event.seq == -1


def test_idle_bus_emit_is_near_free():
    """Guard: with no subscriber, the guarded-emit pattern must stay
    within a small factor of a bare attribute-check loop, because every
    hot path in the RM/NM/HDFS/AM pays it per potential event."""
    bus = EventBus(Environment())
    iterations = 200_000

    class Plain:
        active = False

    plain = Plain()

    def loop_plain():
        hits = 0
        for _ in range(iterations):
            if plain.active:
                hits += 1
        return hits

    def loop_bus():
        hits = 0
        for _ in range(iterations):
            if bus.wants(TaskDispatched):
                hits += 1
        return hits

    # Warm up, then take the best of several runs to dodge scheduler noise.
    loop_plain(), loop_bus()
    plain_best = min(
        (lambda s: (loop_plain(), time.perf_counter() - s)[1])(time.perf_counter())
        for _ in range(5)
    )
    bus_best = min(
        (lambda s: (loop_bus(), time.perf_counter() - s)[1])(time.perf_counter())
        for _ in range(5)
    )
    # wants() is an attribute read + early return; allow generous slack
    # for interpreter jitter but fail if it ever grows real work.
    assert bus_best < plain_best * 10 + 0.05


def test_subscribe_selectors_and_delivery_order():
    bus = EventBus(Environment())
    order = []
    bus.subscribe({ContainerLaunched: lambda e: order.append("first")})
    bus.subscribe({
        TaskDispatched: lambda e: order.append("other type"),
        ContainerLaunched: lambda e: order.append("second"),
    })
    bus.subscribe({ContainerLaunched: lambda e: order.append("third")})
    bus.emit(ContainerLaunched(container_id="c1", node_id="worker-0"))
    # Exact-type handlers only, in subscription order.
    assert order == ["first", "second", "third"]


def test_wants_is_selector_aware():
    bus = EventBus(Environment())
    subscription = bus.subscribe({TaskDispatched: lambda e: None})
    assert bus.wants(TaskDispatched)
    assert not bus.wants(ContainerLaunched)
    subscription.cancel()
    assert not bus.wants(TaskDispatched)


def test_unsubscribe_restores_idle_fast_path():
    bus = EventBus(Environment())
    first = bus.subscribe(dict.fromkeys(EVENT_TYPES.values(), lambda e: None))
    second = bus.subscribe({TaskDispatched: lambda e: None})
    assert bus.active
    first.cancel()
    # One cancel drops the whole table; the other subscription stays.
    assert bus.active and bus.wants(TaskDispatched)
    assert not bus.wants(ContainerLaunched)
    second.cancel()
    assert not bus.active
    second.cancel()  # idempotent
    assert not bus.wants(TaskDispatched)


def test_bad_selector_raises():
    bus = EventBus(Environment())
    with pytest.raises(TypeError):
        bus.subscribe({42: lambda e: None})
    with pytest.raises(TypeError):
        bus.subscribe({dict: lambda e: None})


def test_emit_stamps_clock_and_sequence():
    env = Environment()
    bus = EventBus(env)
    seen = []
    bus.subscribe(dict.fromkeys(EVENT_TYPES.values(), seen.append))

    def proc(env):
        bus.emit(WorkflowStarted(workflow_id="w", name="a"))
        yield env.timeout(5.0)
        bus.emit(WorkflowFinished(workflow_id="w", name="a",
                                  runtime_seconds=5.0))

    env.process(proc(env))
    env.run()
    assert [(e.t, e.seq) for e in seen] == [(0.0, 0), (5.0, 1)]


# -- whole-installation stream --------------------------------------------------


def _run_diamond(seed=0):
    """Run a small diamond workflow; returns (hiway, result, events)."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    hiway = HiWay(cluster)
    events = []
    hiway.bus.subscribe(dict.fromkeys(EVENT_TYPES.values(), events.append))
    hiway.install_everywhere("sort", "grep", "cat")
    hiway.stage_inputs({"/in/a": 48.0}, seed=seed)
    graph = WorkflowGraph("diamond")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/m1"],
                            task_id="left"))
    graph.add_task(TaskSpec(tool="grep", inputs=["/in/a"], outputs=["/m2"],
                            task_id="right"))
    graph.add_task(TaskSpec(tool="cat", inputs=["/m1", "/m2"],
                            outputs=["/out"], task_id="join"))
    result = hiway.run(StaticTaskSource(graph))
    assert result.success, result.diagnostics
    return hiway, result, events


def _fingerprint(events):
    return [
        (type(e).__name__, round(e.t, 9), e.seq) for e in events
    ]


def test_event_stream_deterministic_under_identical_seeds():
    _h1, _r1, first = _run_diamond(seed=7)
    _h2, _r2, second = _run_diamond(seed=7)
    assert len(first) > 20  # yarn + hdfs + task + workflow traffic
    assert _fingerprint(first) == _fingerprint(second)


def test_every_layer_publishes_onto_the_bus():
    _hiway, _result, events = _run_diamond()
    kinds = {type(e) for e in events}
    # Workflow, task, file, YARN and HDFS granularities all publish.
    assert {WorkflowStarted, TaskAttemptFinished, FileStaged,
            ContainerLaunched, HdfsRead} <= kinds


def test_metric_recorder_counts_bus_events():
    hiway, _result, events = _run_diamond()
    value = hiway.cluster.metrics.registry.value
    launched = sum(1 for e in events if isinstance(e, ContainerLaunched))
    attempts = sum(1 for e in events if isinstance(e, TaskAttemptFinished))
    successes = value("hiway_task_attempts_total", outcome="success")
    failures = value("hiway_task_attempts_total", outcome="failure")
    assert value("hiway_containers_launched_total") == launched > 0
    assert successes + failures == attempts == 3
    assert successes == 3


def test_provenance_records_unchanged_by_bus_indirection():
    hiway, result, _events = _run_diamond()
    records = hiway.provenance.store.records(
        kind="task", workflow_id=result.workflow_id
    )
    assert len(records) == 3
    assert {r["task_id"] for r in records} == {"left", "right", "join"}
    # Per-manager counters make ids deterministic and gapless.
    workflow_records = hiway.provenance.store.records(kind="workflow")
    assert workflow_records[0]["event_id"] == "event-00000001"
    assert result.workflow_id == "workflow-000001"


# -- tracer / chrome export -----------------------------------------------------


def _traced_diamond(**trace_kwargs):
    """The diamond run and its Chrome records; returns (hiway, records)."""
    hiway, _result, events = _run_diamond()
    records = trace_records(events, hiway.env.now, **trace_kwargs)
    return hiway, records


def _closed_spans(records):
    """The ``X`` (span) records, grouped by category."""
    by_cat = {}
    for record in records:
        if record["ph"] == "X":
            by_cat.setdefault(record["cat"], []).append(record)
    return by_cat


def test_chrome_trace_roundtrips_with_monotone_timestamps():
    _hiway, records = _traced_diamond()
    data = json.loads(dump_chrome_trace(records))
    assert data["traceEvents"] == records
    events = data["traceEvents"]
    assert events, "trace must not be empty"
    timed = [e for e in events if e["ph"] != "M"]
    timestamps = [e["ts"] for e in timed]
    assert timestamps == sorted(timestamps)
    assert all(t >= 0 for t in timestamps)
    for record in timed:
        assert record["ph"] in {"X", "i"}
        if record["ph"] == "X":
            assert record["dur"] >= 0


def test_tracer_spans_agree_with_registry():
    """Spans and the always-attached registry fold the same stream."""
    hiway, records = _traced_diamond()
    registry = hiway.registry
    by_cat = _closed_spans(records)
    assert len(by_cat["task"]) == registry.value(
        "hiway_task_attempts_total", outcome="success") == 3
    assert len(by_cat["workflow"]) == registry.value(
        "hiway_workflows_total", outcome="success") == 1
    assert len(by_cat["yarn"]) == registry.get(
        "hiway_container_allocate_wait_seconds").count >= 3
    assert len(by_cat["container"]) == registry.get(
        "hiway_container_lifetime_seconds").count
    stage = registry.get("hiway_hdfs_stage_seconds")
    reads = [s for s in by_cat["hdfs"] if s["name"].startswith("read:")]
    writes = [s for s in by_cat["hdfs"] if s["name"].startswith("write:")]
    assert len(reads) == stage.labels(direction="in").count > 0
    assert len(writes) == stage.labels(direction="out").count > 0


def test_tracer_can_skip_hdfs_topic():
    _hiway, records = _traced_diamond(include_hdfs=False)
    by_cat = _closed_spans(records)
    assert "hdfs" not in by_cat
    assert len(by_cat["task"]) == 3


def test_tracer_exports_dangling_spans_as_incomplete():
    """Node crash / workflow abort leaves open container and workflow
    intervals; the export must show them as truncated, not drop them."""
    from repro.obs.events import ContainerAllocated

    env = Environment()
    bus = EventBus(env)
    recorded = []
    bus.subscribe(dict.fromkeys(EVENT_TYPES.values(), recorded.append))

    def proc(env):
        bus.emit(WorkflowStarted(workflow_id="w1", name="doomed"))
        bus.emit(ContainerAllocated(app_id="app-1", request_id=1,
                                    container_id="c1", node_id="worker-0"))
        yield env.timeout(7.0)
        # Neither ContainerReleased nor WorkflowFinished ever arrives.

    env.process(proc(env))
    env.run()

    events = trace_records(recorded, now=env.now)
    incomplete = [
        e for e in events
        if e["ph"] == "X" and e.get("args", {}).get("incomplete")
    ]
    assert {e["name"] for e in incomplete} == {"c1", "doomed"}
    for record in incomplete:
        assert record["ts"] == 0.0
        assert record["dur"] == pytest.approx(7.0 * 1e6)
    # Their processes/threads are named in the metadata block.
    named = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert {"containers", "workflows"} <= named
    assert len(incomplete) == 2
    # The fold is pure: a second export sees the same picture, and a
    # later clock only stretches the open intervals.
    assert trace_records(recorded, now=env.now) == events
    later = [
        e["dur"] for e in trace_records(recorded, now=9.0)
        if e.get("args", {}).get("incomplete")
    ]
    assert later == [pytest.approx(9.0 * 1e6)] * 2
