"""Unit tests for the shared execution core (repro.core.engine).

The FSM, retry policy, and ready-set tracker are the pieces all three
engines now run through; these tests pin their contracts directly,
without spinning up a cluster.
"""

import pytest

from repro.core.engine import (
    AttemptState,
    IllegalTransition,
    ReadySetTracker,
    RetryPolicy,
    TaskAttempt,
)
from repro.workflow import TaskSpec


def make_attempt(task_id="t1", inputs=(), outputs=("/out/a",)):
    return TaskAttempt(TaskSpec(
        tool="sort", inputs=list(inputs), outputs=list(outputs),
        task_id=task_id,
    ))


# -- TaskAttempt FSM --------------------------------------------------------------


def test_fsm_happy_path():
    attempt = make_attempt()
    assert attempt.state is AttemptState.PENDING
    for state in (AttemptState.READY, AttemptState.REQUESTED,
                  AttemptState.RUNNING, AttemptState.SUCCEEDED):
        attempt.to(state)
    assert attempt.succeeded and attempt.finished


def test_fsm_retry_loop():
    attempt = make_attempt()
    attempt.to(AttemptState.READY)
    attempt.to(AttemptState.REQUESTED)
    attempt.to(AttemptState.RUNNING)
    attempt.to(AttemptState.FAILED_RETRYING)
    assert not attempt.finished
    attempt.to(AttemptState.REQUESTED)  # re-submission after a failure
    attempt.to(AttemptState.RUNNING)
    attempt.to(AttemptState.FAILED_FINAL)
    assert attempt.finished and not attempt.succeeded


@pytest.mark.parametrize("start,target", [
    (AttemptState.PENDING, AttemptState.RUNNING),     # skips READY/REQUESTED
    (AttemptState.PENDING, AttemptState.SUCCEEDED),
    (AttemptState.READY, AttemptState.RUNNING),       # skips REQUESTED
    (AttemptState.REQUESTED, AttemptState.SUCCEEDED),  # only RUNNING may finish
    (AttemptState.SUCCEEDED, AttemptState.READY),     # terminal states stay
    (AttemptState.FAILED_FINAL, AttemptState.REQUESTED),
])
def test_fsm_rejects_illegal_transitions(start, target):
    attempt = make_attempt()
    attempt.state = start
    with pytest.raises(IllegalTransition) as excinfo:
        attempt.to(target)
    assert attempt.state is start
    assert start.value in str(excinfo.value)
    assert target.value in str(excinfo.value)


# -- RetryPolicy ------------------------------------------------------------------


def test_retry_policy_exhausts_after_max_retries():
    policy = RetryPolicy(max_retries=2)
    attempt = make_attempt()
    for attempts in (1, 2):
        attempt.attempts = attempts
        assert policy.should_retry(attempt)
    attempt.attempts = 3
    assert not policy.should_retry(attempt)


def test_retry_policy_records_failed_nodes():
    policy = RetryPolicy(max_retries=3, exclude_failed_nodes=True)
    attempt = make_attempt()
    assert policy.record_failure(attempt, "worker-0")
    assert attempt.excluded_nodes == {"worker-0"}
    blind = RetryPolicy(max_retries=3, exclude_failed_nodes=False)
    other = make_attempt()
    assert not blind.record_failure(other, "worker-0")
    assert other.excluded_nodes == set()


def test_exclusion_reset_keeps_most_recent_failing_node():
    """Regression: the reset must not hand the task straight back to the
    node that just failed it when any alternative exists."""
    policy = RetryPolicy(max_retries=5, exclude_failed_nodes=True)
    attempt = make_attempt()
    attempt.excluded_nodes = {"worker-0", "worker-1"}
    # Every live node tried; worker-1 just failed. worker-0 is an
    # alternative, so worker-1 stays excluded after the reset.
    policy.reset_if_exhausted(
        attempt, live_nodes={"worker-0", "worker-1"}, failing_node="worker-1"
    )
    assert attempt.excluded_nodes == {"worker-1"}


def test_exclusion_reset_clears_fully_when_no_alternative():
    policy = RetryPolicy(max_retries=5, exclude_failed_nodes=True)
    attempt = make_attempt()
    attempt.excluded_nodes = {"worker-0"}
    # Only one node is alive and it just failed: with nowhere else to
    # go, the exclusion must clear so the retry can run at all.
    policy.reset_if_exhausted(
        attempt, live_nodes={"worker-0"}, failing_node="worker-0"
    )
    assert attempt.excluded_nodes == set()


def test_exclusion_reset_noop_while_alternatives_remain():
    policy = RetryPolicy(max_retries=5, exclude_failed_nodes=True)
    attempt = make_attempt()
    attempt.excluded_nodes = {"worker-0"}
    policy.reset_if_exhausted(
        attempt, live_nodes={"worker-0", "worker-1"}, failing_node="worker-0"
    )
    assert attempt.excluded_nodes == {"worker-0"}


# -- ReadySetTracker --------------------------------------------------------------


def test_tracker_readiness_follows_available_files():
    tracker = ReadySetTracker()
    gen = make_attempt("gen", inputs=())
    downstream = make_attempt("down", inputs=("/out/a",), outputs=("/out/b",))
    tracker.register(gen)
    tracker.register(downstream)
    assert [a.task.task_id for a in tracker.take_ready()] == ["gen"]
    assert tracker.pending_count() == 1
    tracker.add_available(["/out/a"])
    assert [a.task.task_id for a in tracker.take_ready()] == ["down"]
    assert tracker.pending_count() == 0


def test_tracker_preserves_registration_order():
    tracker = ReadySetTracker()
    ids = [f"t{i}" for i in range(5)]
    for task_id in ids:
        tracker.register(make_attempt(task_id, outputs=(f"/out/{task_id}",)))
    assert [a.task.task_id for a in tracker.take_ready()] == ids


def test_tracker_internal_outputs_shadow_stale_storage():
    """A file this run will produce never counts as available early,
    even when a previous execution left a copy in storage."""
    stale = {"/out/a"}
    tracker = ReadySetTracker(
        storage_exists=stale.__contains__, track_internal_outputs=True
    )
    producer = make_attempt("producer", outputs=("/out/a",))
    consumer = make_attempt("consumer", inputs=("/out/a",), outputs=("/out/b",))
    tracker.register(producer)
    tracker.register(consumer)
    assert not tracker.is_ready(consumer)  # stale copy must not unblock it
    tracker.add_available(["/out/a"])      # ...until this run produces it
    assert tracker.is_ready(consumer)


def test_tracker_without_internal_tracking_uses_storage():
    present = {"/in/x"}
    tracker = ReadySetTracker(storage_exists=present.__contains__)
    attempt = make_attempt("t", inputs=("/in/x",))
    tracker.register(attempt)
    assert tracker.is_ready(attempt)


def test_tracker_gate_blocks_ready_tasks():
    blocked = {"t1"}
    tracker = ReadySetTracker(gate=lambda task: task.task_id not in blocked)
    attempt = make_attempt("t1")
    tracker.register(attempt)
    assert tracker.take_ready() == []
    blocked.clear()
    assert [a.task.task_id for a in tracker.take_ready()] == ["t1"]


# -- completion bookkeeping -------------------------------------------------------


def _succeeded_reads_per_task(monkeypatch, width):
    """Run a ``width``-wide fan-out on Hi-WAY, counting how often any
    task's ``succeeded`` flag is read."""
    from repro.cluster import Cluster, ClusterSpec, M3_LARGE
    from repro.core import HiWay
    from repro.sim import Environment
    from repro.workflow import StaticTaskSource, WorkflowGraph

    reads = 0
    state_of = TaskAttempt.succeeded.fget

    def counted(attempt):
        nonlocal reads
        reads += 1
        return state_of(attempt)

    monkeypatch.setattr(TaskAttempt, "succeeded", property(counted))
    graph = WorkflowGraph("fan-out")
    for index in range(width):
        graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"],
                                outputs=[f"/out/{index}"],
                                task_id=f"t{index:03d}"))
    env = Environment()
    hiway = HiWay(Cluster(env, ClusterSpec(worker_spec=M3_LARGE,
                                           worker_count=4)))
    hiway.install_everywhere("sort")
    hiway.stage_inputs({"/in/a": 4.0})
    result = hiway.run(StaticTaskSource(graph))
    assert result.success and result.tasks_completed == width
    return reads / width


def test_done_check_work_per_task_stays_flat_as_the_workflow_widens(monkeypatch):
    narrow = _succeeded_reads_per_task(monkeypatch, 16)
    wide = _succeeded_reads_per_task(monkeypatch, 64)
    assert wide <= narrow + 1.0
