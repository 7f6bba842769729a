"""Cross-engine event-vocabulary parity.

The Tez and CloudMan baselines must publish the same workflow/task/file
lifecycle events as the Hi-WAY engine, so that the critical-path
fold, the metrics registry and the span builder work unchanged on
every backend.
"""

import pytest

from repro.baselines.cloudman import GalaxyCloudMan
from repro.baselines.tez import TezApplicationMaster
from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay
from repro.hdfs import HdfsClient
from repro.obs.analysis import analyze
from repro.obs.journal import EVENT_TYPES
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import build_submission_spans
from repro.sim import Environment
from repro.tools import default_registry
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph
from repro.yarn import ResourceManager

#: Lifecycle events every engine must emit for report/explain parity.
CORE_VOCABULARY = {
    "WorkflowStarted",
    "TaskDispatched",
    "TaskAttemptFinished",
    "WorkflowFinished",
    "FileStaged",
    "SchedulingDecision",
}


def _diamond():
    graph = WorkflowGraph("diamond")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/m1"],
                            task_id="left"))
    graph.add_task(TaskSpec(tool="grep", inputs=["/in/a"], outputs=["/m2"],
                            task_id="right"))
    graph.add_task(TaskSpec(tool="cat", inputs=["/m1", "/m2"],
                            outputs=["/out"], task_id="join"))
    return graph


def _instrument(bus):
    """Subscribe a registry and a raw event log to ``bus``."""
    registry = MetricsRegistry()
    bus.subscribe(registry.handlers())
    seen = []
    bus.subscribe(dict.fromkeys(EVENT_TYPES.values(), seen.append))
    return registry, seen


def _run_hiway():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    instruments = _instrument(cluster.bus)
    hiway = HiWay(cluster)
    hiway.install_everywhere("sort", "grep", "cat")
    hiway.stage_inputs({"/in/a": 48.0})
    result = hiway.run(StaticTaskSource(_diamond()))
    assert result.success, result.diagnostics
    return instruments


def _run_tez():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    instruments = _instrument(cluster.bus)
    hdfs = HdfsClient(cluster, seed=0)
    rm = ResourceManager(env, cluster)
    tools = default_registry()
    for node in cluster.all_nodes():
        node.install(*tools.names())
    staging = env.process(hdfs.write("/in/a", 48.0, "worker-0"))
    env.run(until=staging)
    am = TezApplicationMaster(cluster, hdfs, rm, tools, _diamond())
    run = env.process(am.run())
    env.run(until=run)
    assert run.value.success, run.value.diagnostics
    return instruments


def _run_cloudman():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    instruments = _instrument(cluster.bus)
    engine = GalaxyCloudMan(cluster, default_registry(), slots_per_node=2)
    for node in cluster.all_nodes():
        node.install(*default_registry().names())
    engine.stage_inputs({"/in/a": 48.0})
    result = engine.run(_diamond())
    assert result.success, result.diagnostics
    return instruments


ENGINES = {
    "hiway": _run_hiway,
    "tez": _run_tez,
    "cloudman": _run_cloudman,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_emits_the_core_vocabulary(engine):
    _, seen = ENGINES[engine]()
    names = {type(event).__name__ for event in seen}
    missing = CORE_VOCABULARY - names
    assert not missing, f"{engine} never emitted {sorted(missing)}"


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_critical_path_is_non_empty_on_every_engine(engine):
    _, seen = ENGINES[engine]()
    (analysis,) = analyze(seen).values()
    assert analysis.critical_path, f"{engine}: empty critical path"
    assert analysis.critical_path_seconds() > 0
    # The diamond's join step is always on the critical path.
    assert any("join" in task or "cat" in task
               for task in analysis.critical_path)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_registry_counts_tasks_on_every_engine(engine):
    registry, _ = ENGINES[engine]()
    assert registry.value("hiway_task_attempts_total", outcome="success") == 3
    runtimes = registry.get("hiway_task_runtime_seconds")
    assert sum(child.count for _key, child in runtimes.series()) == 3


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_span_trees_build_on_every_engine(engine):
    _, seen = ENGINES[engine]()
    spans = build_submission_spans(seen)
    (span,) = spans
    assert span.outcome == "SUCCEEDED"
    assert len(span.attempts) == 3
    tools = {attempt.tool for attempt in span.attempts}
    assert tools == {"sort", "grep", "cat"}
