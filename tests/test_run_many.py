"""Concurrent multi-workflow execution: N AMs sharing one RM (Sec. 3.1).

``HiWay.run_many`` is the paper's multi-tenant deployment — many
independent application masters against a single YARN installation.
These tests pin that the runs complete, that every workflow keeps its
own identity, and that the per-workflow observability (metrics labels,
decision audit, critical-path analysis) stays separated.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay, HiWayConfig
from repro.core.schedulers import make_scheduler
from repro.errors import WorkflowError
from repro.obs.analysis import ANALYSIS_EVENTS, analyze
from repro.obs.decisions import DECISION_EVENTS, explain, task_ids
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph


def pipeline_graph(tag, size_mb=24.0):
    """A two-stage pipeline whose files are namespaced by ``tag``."""
    graph = WorkflowGraph(f"pipe-{tag}")
    graph.add_task(TaskSpec(tool="sort", inputs=[f"/in/{tag}"],
                            outputs=[f"/mid/{tag}"], task_id=f"sort-{tag}"))
    graph.add_task(TaskSpec(tool="grep", inputs=[f"/mid/{tag}"],
                            outputs=[f"/out/{tag}"], task_id=f"grep-{tag}"))
    return graph


def make_installation(workers=4, tags=("a", "b", "c", "d"), **config_kwargs):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE,
                                       worker_count=workers))
    hiway = HiWay(cluster, config=HiWayConfig(**config_kwargs))
    hiway.install_everywhere("sort", "grep")
    hiway.stage_inputs({f"/in/{tag}": 24.0 for tag in tags})
    return hiway, [StaticTaskSource(pipeline_graph(tag)) for tag in tags]


def test_run_many_completes_four_concurrent_workflows():
    hiway, sources = make_installation()
    results = hiway.run_many(sources, names=["wf-a", "wf-b", "wf-c", "wf-d"])
    assert len(results) == 4
    for result, tag in zip(results, "abcd"):
        assert result.success, result.diagnostics
        assert result.name == f"wf-{tag}"
        assert result.tasks_completed == 2
        assert hiway.hdfs.exists(f"/out/{tag}")
    # Four distinct AMs, four distinct workflow ids, one installation.
    assert len({result.workflow_id for result in results}) == 4
    # All AMs genuinely overlapped on the shared RM rather than running
    # back to back: everyone started at t=0 (after staging).
    assert len({result.started_at for result in results}) == 1
    # Every AM unregistered cleanly: the RM retired its bookkeeping for
    # all four applications instead of leaking hold counts forever.
    assert hiway.rm._containers_held == {}
    assert hiway.rm.pending_request_count() == 0


def test_run_many_separates_per_workflow_metrics():
    hiway, sources = make_installation()
    results = hiway.run_many(sources)
    for result in results:
        assert hiway.registry.value(
            "hiway_workflow_tasks_total",
            workflow=result.workflow_id, outcome="success",
        ) == 2
        assert hiway.registry.value(
            "hiway_workflow_runtime_seconds", workflow=result.workflow_id,
        ) == pytest.approx(result.runtime_seconds)
    # The totals still aggregate across the whole installation.
    assert hiway.registry.value(
        "hiway_task_attempts_total", outcome="success") == 8
    assert hiway.registry.value(
        "hiway_workflows_total", outcome="success") == 4


def test_run_many_separates_scheduling_audits_per_workflow():
    hiway, sources = make_installation()
    decisions = []
    hiway.bus.subscribe(dict.fromkeys(DECISION_EVENTS, decisions.append))
    results = hiway.run_many(sources)
    audited = {decision.workflow_id for decision in decisions}
    assert sorted(audited) == sorted(r.workflow_id for r in results)
    for result, tag in zip(results, "abcd"):
        decided = task_ids(decisions, workflow_id=result.workflow_id)
        assert sorted(decided) == [f"grep-{tag}", f"sort-{tag}"]
        explanation = explain(
            decisions, f"sort-{tag}", workflow_id=result.workflow_id)
        assert f"task sort-{tag}:" in explanation


def test_run_many_separates_critical_path_analyses():
    hiway, sources = make_installation()
    events = []
    hiway.bus.subscribe(dict.fromkeys(ANALYSIS_EVENTS, events.append))
    results = hiway.run_many(sources)
    workflows = analyze(events)
    for result, tag in zip(results, "abcd"):
        analysis = workflows[result.workflow_id]
        assert analysis.complete and analysis.success
        # Only this workflow's tasks — nothing leaked across AMs.
        assert sorted(analysis.spans) == [f"grep-{tag}", f"sort-{tag}"]


def test_run_many_rejects_shared_scheduler_instance():
    hiway, sources = make_installation()
    with pytest.raises(WorkflowError, match="scheduler name"):
        hiway.run_many(sources, scheduler=make_scheduler("fcfs"))
    # A single source may still use an instance.
    result = hiway.run_many(sources[:1], scheduler=make_scheduler("fcfs"))[0]
    assert result.success, result.diagnostics


def test_run_many_rejects_mismatched_names():
    hiway, sources = make_installation()
    with pytest.raises(WorkflowError, match="names"):
        hiway.run_many(sources, names=["only-one"])


def test_run_many_with_no_sources_returns_empty():
    hiway, _sources = make_installation()
    assert hiway.run_many([]) == []
