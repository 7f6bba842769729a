"""Tests for the critical-path / bottleneck fold (repro.obs.analysis)."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay
from repro.obs.analysis import ANALYSIS_EVENTS, analyze, latest_finished, render_report
from repro.obs.events import WorkflowFinished
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph


def _run_diamond(seed=0):
    """Diamond run recording the analysis events; returns (hiway,
    result, analyses by workflow id, recorded events)."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    hiway = HiWay(cluster)
    events = []
    hiway.bus.subscribe(dict.fromkeys(ANALYSIS_EVENTS, events.append))
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
    return hiway, result, analyze(events), events


def test_analyzer_reconstructs_the_dag_and_critical_path():
    _hiway, result, workflows, _events = _run_diamond()
    analysis = workflows[result.workflow_id]
    assert analysis.complete and analysis.success
    assert sorted(analysis.spans) == ["join", "left", "right"]
    assert sorted(analysis.parents["join"]) == ["left", "right"]
    assert analysis.parents["left"] == []
    # The sink finishes last, so every critical path ends at it, and
    # the path enters through whichever parent finished later.
    assert analysis.critical_path[-1] == "join"
    assert len(analysis.critical_path) == 2
    assert analysis.critical_path[0] in ("left", "right")
    assert analysis.spans["join"].on_critical_path


def test_slack_is_zero_on_the_critical_path_and_positive_off_it():
    _hiway, result, workflows, _events = _run_diamond()
    analysis = workflows[result.workflow_id]
    on_path = set(analysis.critical_path)
    for task_id, span in analysis.spans.items():
        if task_id in on_path:
            assert span.slack_seconds == pytest.approx(0.0, abs=1e-9)
        else:
            assert span.slack_seconds >= 0.0
    # The two diamond arms start together; unless they finished in the
    # same instant, the faster one has real slack.
    left = analysis.spans["left"]
    right = analysis.spans["right"]
    if left.finished_at != right.finished_at:
        off_path = left if right.on_critical_path else right
        assert off_path.slack_seconds > 0.0


def test_phase_breakdown_and_utilization_are_consistent():
    _hiway, result, workflows, _events = _run_diamond()
    analysis = workflows[result.workflow_id]
    for span in analysis.spans.values():
        assert span.makespan_seconds == pytest.approx(
            span.stage_in_seconds + span.compute_seconds
            + span.stage_out_seconds,
            abs=1e-6,
        )
        assert span.wait_seconds >= 0.0
    breakdown = analysis.breakdown()
    assert breakdown["compute"] > 0.0
    assert set(breakdown) == {"wait", "stage_in", "compute", "stage_out"}
    utilization = analysis.node_utilization()
    assert sum(entry["tasks"] for entry in utilization.values()) == 3
    for entry in utilization.values():
        assert 0.0 <= entry["busy_fraction"] <= 1.0 + 1e-9


def test_analysis_selection_and_missing_workflow():
    _hiway, result, workflows, events = _run_diamond()
    assert latest_finished(workflows).workflow_id == result.workflow_id
    with pytest.raises(KeyError):
        workflows["workflow-999999"]
    with pytest.raises(KeyError, match="no workflows observed"):
        latest_finished(analyze([]))
    # A workflow that never finished is still selected, unfinalised.
    unfinished = analyze(
        e for e in events if not isinstance(e, WorkflowFinished)
    )
    assert not latest_finished(unfinished).complete


def test_render_report_covers_the_required_sections():
    hiway, result, workflows, _events = _run_diamond()
    text = render_report(workflows[result.workflow_id], registry=hiway.registry)
    assert "critical path:" in text
    assert "per-task slack" in text
    assert "time breakdown" in text
    assert "stage-in" in text and "compute" in text
    assert "per-node utilisation" in text
    assert "hdfs read locality hit rate:" in text


def test_render_report_truncates_long_task_tables():
    _hiway, result, workflows, _events = _run_diamond()
    text = render_report(workflows[result.workflow_id], max_tasks=1)
    assert "... 2 more task(s)" in text
