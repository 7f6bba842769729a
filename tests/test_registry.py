"""Tests for the typed metrics registry (repro.obs.registry)."""

import json

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph


# -- instrument unit behaviour ---------------------------------------------------


def test_counter_is_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(4.0)
    gauge.inc()
    gauge.dec(2.0)
    assert gauge.value == 3.0


def test_histogram_buckets_sum_and_mean():
    histogram = Histogram("h", buckets=(1.0, 10.0))
    for value in (0.5, 0.7, 5.0, 50.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.sum == pytest.approx(56.2)
    assert histogram.mean() == pytest.approx(14.05)
    # Cumulative le counts include the implicit +Inf bucket.
    assert histogram.cumulative_counts() == [
        (1.0, 2), (10.0, 3), (float("inf"), 4)
    ]


def test_histogram_needs_a_bucket():
    with pytest.raises(ValueError):
        Histogram("h", buckets=())


def test_labels_create_independent_series():
    registry = MetricsRegistry()
    reads = registry.counter("reads_mb", labelnames=("locality",))
    reads.labels(locality="local").inc(10.0)
    reads.labels(locality="remote").inc(2.0)
    reads.labels(locality="local").inc(5.0)
    assert registry.value("reads_mb", locality="local") == 15.0
    assert registry.value("reads_mb", locality="remote") == 2.0
    assert registry.value("reads_mb", locality="external") == 0.0
    with pytest.raises(ValueError):
        reads.labels(direction="in")


def test_registration_is_idempotent_but_type_checked():
    registry = MetricsRegistry()
    first = registry.counter("x_total")
    assert registry.counter("x_total") is first
    with pytest.raises(ValueError):
        registry.gauge("x_total")
    assert registry.value("never_touched") == 0.0
    assert registry.get("never_touched") is None


# -- bus-fed aggregation --------------------------------------------------------


def _run_diamond(seed=0):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    hiway = HiWay(cluster)
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
    return hiway, result


def test_registry_aggregates_a_whole_run():
    hiway, _result = _run_diamond()
    registry = hiway.registry
    assert registry is hiway.cluster.metrics.registry
    assert registry.value("hiway_task_attempts_total", outcome="success") == 3
    assert registry.value("hiway_task_attempts_total", outcome="failure") == 0
    assert registry.value("hiway_containers_launched_total") == 3
    assert registry.value("hiway_workflows_total", outcome="success") == 1
    # All containers released: the live gauge returns to zero.
    assert registry.value("hiway_containers_live") == 0
    runtimes = registry.get("hiway_task_runtime_seconds")
    observed = sum(child.count for _key, child in runtimes.series())
    assert observed == 3
    assert 0.0 <= registry.read_locality() <= 1.0


def test_registry_tracks_per_tenant_series():
    hiway, _result = _run_diamond_with_tenant("genomics")
    registry = hiway.registry
    assert registry.value("hiway_tenant_containers_total",
                          tenant="genomics") == 3
    waits = registry.get("hiway_tenant_container_wait_seconds")
    observed = {key: child.count for key, child in waits.series()}
    assert observed == {(("tenant", "genomics"),): 3}


def _run_diamond_with_tenant(tenant):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    hiway = HiWay(cluster)
    hiway.install_everywhere("sort", "grep", "cat")
    hiway.stage_inputs({"/in/a": 48.0})
    graph = WorkflowGraph("diamond")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/m1"],
                            task_id="left"))
    graph.add_task(TaskSpec(tool="grep", inputs=["/in/a"], outputs=["/m2"],
                            task_id="right"))
    graph.add_task(TaskSpec(tool="cat", inputs=["/m1", "/m2"],
                            outputs=["/out"], task_id="join"))
    result = hiway.run(StaticTaskSource(graph), tenant=tenant)
    assert result.success, result.diagnostics
    return hiway, result


def test_legacy_counters_view_matches_registry():
    """The per-run totals the old flat counters dict reported (attempts,
    successes, failures, launches, HDFS reads) are all read off the
    registry now."""
    hiway, _result = _run_diamond()
    registry = hiway.cluster.metrics.registry
    successes = registry.value("hiway_task_attempts_total", outcome="success")
    failures = registry.value("hiway_task_attempts_total", outcome="failure")
    assert successes + failures == 3
    assert successes == 3
    assert failures == 0
    assert registry.value("hiway_containers_launched_total") == 3
    read_total = sum(
        registry.value("hiway_hdfs_read_mb_total", locality=locality)
        for locality in ("local", "remote", "external")
    )
    assert read_total > 0


def test_exports_are_deterministic_across_identical_runs():
    first, _r1 = _run_diamond(seed=5)
    second, _r2 = _run_diamond(seed=5)
    assert first.registry.to_json() == second.registry.to_json()
    assert first.registry.to_prometheus() == second.registry.to_prometheus()


def test_json_and_prometheus_exports_are_well_formed():
    hiway, _result = _run_diamond()
    document = json.loads(hiway.registry.to_json())
    entry = document["hiway_task_attempts_total"]
    assert entry["type"] == "counter"
    assert entry["values"]["outcome=success"] == 3
    histogram = document["hiway_task_runtime_seconds"]["values"]["tool=cat"]
    assert histogram["count"] == 1
    assert histogram["buckets"]["+Inf"] == 1

    text = hiway.registry.to_prometheus()
    assert "# TYPE hiway_task_attempts_total counter" in text
    assert 'hiway_task_attempts_total{outcome="success"} 3' in text
    assert "# TYPE hiway_task_runtime_seconds histogram" in text
    assert 'le="+Inf"' in text
    assert "hiway_task_runtime_seconds_count" in text


def test_handler_table_counts_bus_events_until_cancelled():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    registry = MetricsRegistry()
    subscription = cluster.bus.subscribe(registry.handlers())
    from repro.obs.events import NodeCrashed

    cluster.bus.emit(NodeCrashed(node_id="worker-0", containers_lost=2))
    assert registry.value("hiway_node_crashes_total") == 1
    assert registry.value("hiway_containers_lost_total") == 2
    subscription.cancel()
    cluster.bus.emit(NodeCrashed(node_id="worker-1", containers_lost=1))
    assert registry.value("hiway_node_crashes_total") == 1


# -- series decimation -----------------------------------------------------------


def test_series_default_keeps_every_sample():
    from repro.obs.registry import Series

    series = Series("s")
    for index in range(5000):
        series.record(float(index), float(index) * 2.0)
    assert len(series.samples) == 5000
    assert series.samples[0] == (0.0, 0.0)
    assert series.samples[-1] == (4999.0, 9998.0)


def test_series_decimation_bounds_and_evenly_spaces_samples():
    from repro.obs.registry import Series

    series = Series("s", max_points=8)
    for index in range(1000):
        series.record(float(index), float(index))
    assert len(series.samples) <= 8
    # Retained samples stay evenly strided from the first record.
    times = [t for t, _ in series.samples]
    strides = {int(b - a) for a, b in zip(times, times[1:])}
    assert len(strides) == 1
    assert times[0] == 0.0


def test_series_decimation_is_a_pure_function_of_record_count():
    from repro.obs.registry import Series

    first = Series("s", max_points=16)
    second = Series("s", max_points=16)
    for index in range(777):
        first.record(float(index), float(index))
    for index in range(777):
        second.record(float(index), float(index))
    assert first.samples == second.samples


def test_series_rejects_tiny_max_points():
    from repro.obs.registry import Series

    with pytest.raises(ValueError):
        Series("s", max_points=1)
    Series("s", max_points=2)  # the smallest legal bound


# -- Prometheus text-format conformance -------------------------------------------


def _conformance_registry():
    """A registry exercising every escaping and rendering rule."""
    registry = MetricsRegistry()
    jobs = registry.counter(
        "conf_jobs_total",
        'Jobs with "quotes", back\\slashes\nand a newline',
        labelnames=("path",),
    )
    jobs.labels(path='C:\\data\\"in"\nq').inc(3)
    jobs.labels(path="plain").inc()
    registry.gauge("conf_depth", "Queue depth").set(2.5)
    histogram = registry.histogram(
        "conf_wait_seconds", buckets=(0.5, 2.0), help="Waits"
    )
    for value in (0.1, 1.0, 9.0):
        histogram.observe(value)
    series = registry.series("conf_backlog", "Backlog over time")
    series.record(0.0, 1.0)
    series.record(60.0, 4.0)
    return registry


def test_prometheus_export_matches_golden_file():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "prometheus.txt"
    assert _conformance_registry().to_prometheus() == golden.read_text()


def test_prometheus_escaping_rules():
    text = _conformance_registry().to_prometheus()
    # Label values escape backslash, double quote and newline.
    assert (
        'conf_jobs_total{path="C:\\\\data\\\\\\"in\\"\\nq"} 3'
        in text
    )
    # HELP escapes backslash and newline but leaves quotes alone.
    assert (
        '# HELP conf_jobs_total Jobs with "quotes", '
        "back\\\\slashes\\nand a newline" in text
    )
    # Histograms emit cumulative buckets with +Inf, then _sum/_count.
    lines = text.splitlines()
    start = lines.index("# TYPE conf_wait_seconds histogram")
    assert lines[start + 1 : start + 6] == [
        'conf_wait_seconds_bucket{le="0.5"} 1',
        'conf_wait_seconds_bucket{le="2"} 2',
        'conf_wait_seconds_bucket{le="+Inf"} 3',
        "conf_wait_seconds_sum 10.1",
        "conf_wait_seconds_count 3",
    ]
    # A series degrades to a gauge carrying its latest sample.
    assert "# TYPE conf_backlog gauge" in text
    assert "conf_backlog 4" in text
