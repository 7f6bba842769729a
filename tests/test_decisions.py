"""Tests for the scheduler decision audit (repro.obs.decisions)."""

import json

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay
from repro.core.schedulers import RoundRobinScheduler, SchedulerContext
from repro.obs import DECISION_EVENTS, EventBus
from repro.obs.decisions import decisions_for, explain, task_ids
from repro.obs.events import SchedulingDecision
from repro.obs.journal import event_to_dict
from repro.sim import Environment
from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph

POLICIES = ("fcfs", "data-aware", "adaptive-queue", "round-robin", "heft")
QUEUE_POLICIES = ("fcfs", "data-aware", "adaptive-queue")
TASK_IDS = ("left", "right", "join")


def _run_audited(policy, seed=0):
    """Diamond run recording the decision audit; returns (hiway,
    decisions)."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    hiway = HiWay(cluster)
    decisions = []
    hiway.bus.subscribe(dict.fromkeys(DECISION_EVENTS, decisions.append))
    hiway.install_everywhere("sort", "grep", "cat")
    hiway.stage_inputs({"/in/a": 48.0}, seed=seed)
    graph = WorkflowGraph("diamond")
    graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/m1"],
                            task_id="left"))
    graph.add_task(TaskSpec(tool="grep", inputs=["/in/a"], outputs=["/m2"],
                            task_id="right"))
    graph.add_task(TaskSpec(tool="cat", inputs=["/m1", "/m2"],
                            outputs=["/out"], task_id="join"))
    result = hiway.run(StaticTaskSource(graph), scheduler=policy)
    assert result.success, result.diagnostics
    return hiway, decisions


@pytest.mark.parametrize("policy", POLICIES)
def test_every_policy_audits_every_task(policy):
    hiway, decisions = _run_audited(policy)
    assert sorted(task_ids(decisions)) == sorted(TASK_IDS)
    workers = set(hiway.cluster.worker_ids)
    expected_kind = "queue-bind" if policy in QUEUE_POLICIES else "static-plan"
    for task_id in TASK_IDS:
        for decision in decisions_for(decisions, task_id):
            assert decision.policy == policy
            assert decision.kind == expected_kind
            assert decision.node_id in workers
            assert decision.candidates  # never an unexplained pick
            assert decision.score_name
            assert decision.workflow_id.startswith("workflow-")


@pytest.mark.parametrize("policy", POLICIES)
def test_audit_log_byte_identical_across_runs(policy):
    _h1, first = _run_audited(policy, seed=3)
    _h2, second = _run_audited(policy, seed=3)
    first_log = json.dumps([event_to_dict(d) for d in first], sort_keys=True)
    second_log = json.dumps([event_to_dict(d) for d in second], sort_keys=True)
    assert len(first) >= 3
    assert first_log.encode() == second_log.encode()


def test_static_plan_scores_nodes_queue_bind_scores_tasks():
    _hiway, static_audit = _run_audited("round-robin")
    for decision in static_audit:
        assert decision.candidate_kind == "node"
        assert decision.node_id in dict(decision.candidates)
    _hiway, queue_audit = _run_audited("data-aware")
    for decision in queue_audit:
        assert decision.candidate_kind == "task"
        assert decision.task_id in dict(decision.candidates)


def test_explain_names_node_and_candidates():
    _hiway, decisions = _run_audited("heft")
    text = explain(decisions, "join")
    assert "heft [static-plan]" in text
    assert "chose node worker-" in text
    assert "estimated_eft" in text
    assert "*" in text  # chosen candidate is marked
    with pytest.raises(KeyError):
        explain(decisions, "no-such-task")


def test_no_audit_work_without_subscriber():
    hiway, _decisions = _run_audited("fcfs")
    scheduler = RoundRobinScheduler()
    # Bound to a bus nobody subscribed SchedulingDecision on: the
    # policies skip all audit-only candidate scoring.
    scheduler.bind(SchedulerContext(
        worker_ids=["worker-0"], bus=EventBus(Environment())
    ))
    assert not scheduler._decisions_wanted()
    # Subscribing to the audit's events is what switches the scoring on.
    assert hiway.bus.wants(SchedulingDecision)


def test_retry_fallback_is_audited():
    env = Environment()
    bus = EventBus(env)
    decisions = []
    bus.subscribe({SchedulingDecision: decisions.append})
    scheduler = RoundRobinScheduler()
    scheduler.bind(SchedulerContext(
        worker_ids=["worker-0", "worker-1"], bus=bus, workflow_id="wf-1"
    ))
    task = TaskSpec(tool="sort", inputs=["/a"], outputs=["/b"], task_id="t0")
    scheduler.plan([task])
    planned = scheduler.placement_for(task)
    scheduler.enqueue(task, excluded_nodes=frozenset({planned}))
    fallbacks = [d for d in decisions if d.kind == "retry-fallback"]
    assert len(fallbacks) == 1
    decision = fallbacks[0]
    assert decision.task_id == "t0"
    assert decision.node_id != planned
    assert decision.reason == "planned-node-excluded"
    assert decision.score_name == "fallback_order"
