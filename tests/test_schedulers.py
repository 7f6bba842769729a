"""Unit tests for the four scheduling policies (Sec. 3.4)."""

import pytest

from repro.core.provenance import ProvenanceManager
from repro.core.schedulers import (
    DataAwareScheduler,
    FcfsScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    SchedulerContext,
    make_scheduler,
)
from repro.errors import SchedulingError
from repro.obs.events import TaskAttemptFinished
from repro.workflow import TaskSpec

WORKERS = ["worker-0", "worker-1", "worker-2"]


def make_tasks(count, tool="sort"):
    return [
        TaskSpec(tool=tool, inputs=[f"/in/{i}"], outputs=[f"/out/{i}"],
                 task_id=f"t{i}")
        for i in range(count)
    ]


class FakeHdfs:
    """Locality oracle for tests: path -> {node: fraction}."""

    def __init__(self, locality):
        self.locality = locality

    def local_fraction(self, paths, node_id):
        if not paths:
            return 0.0
        return sum(
            self.locality.get(path, {}).get(node_id, 0.0) for path in paths
        ) / len(paths)


def bind(scheduler, hdfs=None, provenance=None):
    scheduler.bind(SchedulerContext(
        worker_ids=list(WORKERS), hdfs=hdfs, provenance=provenance,
    ))
    return scheduler


def test_make_scheduler_names():
    assert make_scheduler("fcfs").name == "fcfs"
    assert make_scheduler("data-aware").name == "data-aware"
    assert make_scheduler("data_aware").name == "data-aware"
    assert make_scheduler("round-robin").name == "round-robin"
    assert make_scheduler("heft").name == "heft"
    with pytest.raises(SchedulingError):
        make_scheduler("nextflow")


def test_fcfs_is_fifo():
    scheduler = bind(FcfsScheduler())
    tasks = make_tasks(3)
    for task in tasks:
        scheduler.enqueue(task)
    assert scheduler.pending_count() == 3
    picked = [scheduler.select_task("worker-1") for _ in range(3)]
    assert [t.task_id for t in picked] == ["t0", "t1", "t2"]
    assert scheduler.select_task("worker-1") is None


def test_fcfs_respects_exclusions():
    scheduler = bind(FcfsScheduler())
    tasks = make_tasks(2)
    scheduler.enqueue(tasks[0], frozenset({"worker-1"}))
    scheduler.enqueue(tasks[1])
    # worker-1 may not run t0: it gets t1 instead.
    assert scheduler.select_task("worker-1").task_id == "t1"
    assert scheduler.select_task("worker-1") is None
    assert scheduler.select_task("worker-0").task_id == "t0"


def test_data_aware_prefers_local_inputs():
    hdfs = FakeHdfs({
        "/in/0": {"worker-0": 1.0},
        "/in/1": {"worker-1": 1.0},
        "/in/2": {"worker-2": 1.0},
        "/in/3": {"worker-0": 0.5},
        "/in/4": {},
        "/in/5": {},
        "/in/6": {},
        "/in/7": {},
    })
    scheduler = bind(DataAwareScheduler(), hdfs=hdfs)
    tasks = make_tasks(8)
    for task in tasks:
        scheduler.enqueue(task)
    # Deep queue: locality decides.
    assert scheduler.select_task("worker-1").task_id == "t1"
    assert scheduler.select_task("worker-0").task_id == "t0"
    # t3 is half-local on worker-0, better than the zero-local rest.
    assert scheduler.select_task("worker-0").task_id == "t3"


def test_data_aware_endgame_falls_back_to_fifo():
    hdfs = FakeHdfs({"/in/1": {"worker-0": 1.0}})
    scheduler = bind(DataAwareScheduler(), hdfs=hdfs)
    # Only one task waiting (fewer than workers // 2 + 1): FIFO applies
    # even though a "better placed" container might come later.
    tasks = make_tasks(1)
    scheduler.enqueue(tasks[0])
    assert scheduler.select_task("worker-2").task_id == "t0"


def test_data_aware_requires_hdfs():
    scheduler = bind(DataAwareScheduler(), hdfs=None)
    scheduler.enqueue(make_tasks(8)[0])
    with pytest.raises(SchedulingError):
        scheduler.select_task("worker-0")


def test_round_robin_assigns_cyclically():
    scheduler = bind(RoundRobinScheduler())
    tasks = make_tasks(7)
    scheduler.plan(tasks)
    nodes = [scheduler.placement_for(task) for task in tasks]
    assert nodes == [
        "worker-0", "worker-1", "worker-2",
        "worker-0", "worker-1", "worker-2", "worker-0",
    ]
    scheduler.enqueue(tasks[0])
    assert scheduler.select_task("worker-0").task_id == "t0"
    assert scheduler.select_task("worker-1") is None


def test_static_placement_before_plan_rejected():
    scheduler = bind(RoundRobinScheduler())
    with pytest.raises(SchedulingError):
        scheduler.placement_for(make_tasks(1)[0])


def test_static_reassigns_on_excluded_node():
    scheduler = bind(RoundRobinScheduler())
    tasks = make_tasks(1)
    scheduler.plan(tasks)
    assert scheduler.placement_for(tasks[0]) == "worker-0"
    scheduler.enqueue(tasks[0], frozenset({"worker-0"}))
    assert scheduler.placement_for(tasks[0]) != "worker-0"


def make_provenance(observations):
    """observations: list of (signature, node, runtime, ts)."""
    manager = ProvenanceManager()
    record = manager.handlers()[TaskAttemptFinished]
    for signature, node, runtime, ts in observations:
        event = TaskAttemptFinished(
            workflow_id="w",
            task=TaskSpec(tool=signature, task_id=f"x-{signature}-{node}-{ts}"),
            node_id=node, makespan_seconds=runtime,
        )
        event.t = ts
        record(event)
    return manager


def chain_tasks():
    """a -> b -> c chain plus a parallel d."""
    a = TaskSpec(tool="stage-a", inputs=["/in"], outputs=["/m1"], task_id="a")
    b = TaskSpec(tool="stage-b", inputs=["/m1"], outputs=["/m2"], task_id="b")
    c = TaskSpec(tool="stage-c", inputs=["/m2"], outputs=["/out"], task_id="c")
    d = TaskSpec(tool="stage-d", inputs=["/in"], outputs=["/other"], task_id="d")
    return [a, b, d, c]  # topological order


def test_heft_requires_provenance():
    scheduler = bind(HeftScheduler())
    with pytest.raises(SchedulingError):
        scheduler.plan(chain_tasks())


def test_heft_no_provenance_error_names_workflow_and_tasks():
    """The failure must identify what could not be planned, not just why."""
    scheduler = bind(HeftScheduler())
    scheduler.context.workflow_id = "workflow-000042"
    with pytest.raises(SchedulingError) as excinfo:
        scheduler.plan(make_tasks(7))
    message = str(excinfo.value)
    assert "workflow-000042" in message
    assert "7 tasks" in message
    assert "t0" in message and "..." in message  # first ids, then elided
    assert "provenance" in message
    assert "data-aware" in message  # points at a policy that would work


def test_heft_no_provenance_error_without_submission_context():
    scheduler = bind(HeftScheduler())
    with pytest.raises(SchedulingError) as excinfo:
        scheduler.plan(make_tasks(2))
    message = str(excinfo.value)
    assert "<unsubmitted>" in message
    assert "2 tasks: t0, t1)" in message  # short lists are not elided


def test_heft_prefers_observed_fast_node():
    observations = []
    for stage in ("stage-a", "stage-b", "stage-c", "stage-d"):
        observations += [
            (stage, "worker-0", 10.0, 1.0),
            (stage, "worker-1", 100.0, 1.0),
            (stage, "worker-2", 100.0, 1.0),
        ]
    provenance = make_provenance(observations)
    scheduler = bind(HeftScheduler(), provenance=provenance)
    tasks = chain_tasks()
    scheduler.plan(tasks)
    # The critical chain lands on the uniformly fastest node.
    assert scheduler.placement_for(tasks[0]) == "worker-0"
    assert scheduler.placement_for(tasks[3]) == "worker-0"


def test_heft_zero_default_explores_unobserved():
    # worker-0 observed (even if fast); worker-1/2 never observed.
    observations = [
        (stage, "worker-0", 10.0, 1.0)
        for stage in ("stage-a", "stage-b", "stage-c", "stage-d")
    ]
    provenance = make_provenance(observations)
    scheduler = bind(HeftScheduler(), provenance=provenance)
    tasks = chain_tasks()
    scheduler.plan(tasks)
    placements = {scheduler.placement_for(task) for task in tasks}
    # Zero-default estimates pull work onto the unobserved nodes.
    assert placements & {"worker-1", "worker-2"}


def test_heft_mean_policy_exploits_instead():
    observations = [
        (stage, "worker-0", 10.0, 1.0)
        for stage in ("stage-a", "stage-b", "stage-c", "stage-d")
    ]
    provenance = make_provenance(observations)
    scheduler = bind(HeftScheduler(unobserved="mean"), provenance=provenance)
    tasks = chain_tasks()
    scheduler.plan(tasks)
    # With mean-imputation, unobserved nodes look identical to observed
    # ones, so the chain has no incentive to leave worker-0 (index ties
    # break toward it).
    assert scheduler.placement_for(tasks[0]) == "worker-0"


def test_heft_uses_latest_observation():
    provenance = make_provenance([
        ("stage-a", "worker-0", 10.0, 1.0),
        ("stage-a", "worker-0", 500.0, 2.0),  # later, slower observation
        ("stage-a", "worker-1", 20.0, 1.0),
        ("stage-a", "worker-2", 400.0, 1.0),
        ("stage-b", "worker-0", 1.0, 1.0),
        ("stage-b", "worker-1", 1.0, 1.0),
        ("stage-b", "worker-2", 1.0, 1.0),
        ("stage-c", "worker-0", 1.0, 1.0),
        ("stage-c", "worker-1", 1.0, 1.0),
        ("stage-c", "worker-2", 1.0, 1.0),
        ("stage-d", "worker-0", 1.0, 1.0),
        ("stage-d", "worker-1", 1.0, 1.0),
        ("stage-d", "worker-2", 1.0, 1.0),
    ])
    scheduler = bind(HeftScheduler(), provenance=provenance)
    tasks = chain_tasks()
    scheduler.plan(tasks)
    # worker-0's stale 10s estimate is superseded by the recent 500s.
    assert scheduler.placement_for(tasks[0]) == "worker-1"


def test_heft_rejects_unknown_policy():
    with pytest.raises(SchedulingError):
        HeftScheduler(unobserved="optimism")


def test_heft_seed_shuffles_tie_breaking():
    provenance = make_provenance([])
    placements = set()
    for seed in range(10):
        scheduler = bind(HeftScheduler(seed=seed), provenance=provenance)
        tasks = chain_tasks()
        scheduler.plan(tasks)
        placements.add(scheduler.placement_for(tasks[0]))
    assert len(placements) > 1, "different seeds must explore different nodes"


def test_data_aware_cache_consistency():
    """The locality cache must return what a fresh query would."""
    hdfs = FakeHdfs({
        "/in/0": {"worker-0": 1.0},
        "/in/1": {"worker-1": 0.5},
    })
    scheduler = bind(DataAwareScheduler(), hdfs=hdfs)
    tasks = make_tasks(8)
    for task in tasks:
        scheduler.enqueue(task)
    # Prime the cache, then verify repeated queries stay correct.
    first = scheduler.select_task("worker-0")
    assert first.task_id == "t0"
    second = scheduler.select_task("worker-1")
    assert second.task_id == "t1"
    # Remaining tasks tie at zero locality: FIFO.
    assert scheduler.select_task("worker-0").task_id == "t2"


class FakeBatchHdfs(FakeHdfs):
    """FakeHdfs plus the NameNode-backed batch scoring API."""

    def __init__(self, locality):
        super().__init__(locality)
        self.batch_calls = 0
        self.single_calls = 0

    def local_fraction(self, paths, node_id):
        self.single_calls += 1
        return super().local_fraction(paths, node_id)

    def local_fractions(self, input_lists, node_id):
        self.batch_calls += 1
        return [
            super(FakeBatchHdfs, self).local_fraction(paths, node_id)
            for paths in input_lists
        ]


LOCALITY = {
    "/in/0": {"worker-0": 1.0},
    "/in/1": {"worker-1": 1.0},
    "/in/2": {"worker-2": 1.0},
    "/in/3": {"worker-0": 0.5},
    "/in/4": {"worker-1": 0.25},
    "/in/5": {},
    "/in/6": {},
    "/in/7": {},
}


def drain(scheduler, nodes):
    """Round-robin containers over ``nodes`` until the queue empties."""
    order = []
    while scheduler.pending_count():
        for node in nodes:
            task = scheduler.select_task(node)
            if task is not None:
                order.append((node, task.task_id))
    return order


def test_data_aware_batch_and_fallback_agree():
    batched = bind(DataAwareScheduler(), hdfs=FakeBatchHdfs(LOCALITY))
    fallback = bind(DataAwareScheduler(), hdfs=FakeHdfs(LOCALITY))
    for scheduler in (batched, fallback):
        for task in make_tasks(8):
            scheduler.enqueue(task)
    nodes = list(WORKERS)
    assert drain(batched, nodes) == drain(fallback, nodes)
    assert batched.context.hdfs.batch_calls > 0
    # The deep-queue path must not fall back to per-task queries.
    assert batched.context.hdfs.single_calls == 0


def test_data_aware_take_evicts_whole_cache_entry():
    scheduler = bind(DataAwareScheduler(), hdfs=FakeHdfs(LOCALITY))
    for task in make_tasks(8):
        scheduler.enqueue(task)
    # Deep-queue selections from two nodes prime multi-node entries.
    for node in ("worker-0", "worker-1"):
        scheduler._score_eligible(
            scheduler._eligible_indices(node), node, scheduler.context.hdfs
        )
    assert all(len(v) == 2 for v in scheduler._fraction_cache.values())
    taken = scheduler.select_task("worker-0")
    assert taken.task_id == "t0"
    # Every node's entry for the taken task is gone, not just worker-0's.
    assert "t0" not in scheduler._fraction_cache
    assert "t1" in scheduler._fraction_cache


def test_data_aware_node_crash_clears_cache():
    from repro.obs import EventBus
    from repro.obs.events import NodeCrashed

    bus = EventBus()
    hdfs = FakeHdfs(LOCALITY)
    scheduler = DataAwareScheduler()
    scheduler.bind(SchedulerContext(
        worker_ids=list(WORKERS), hdfs=hdfs, bus=bus,
    ))
    for task in make_tasks(8):
        scheduler.enqueue(task)
    assert scheduler.select_task("worker-0").task_id == "t0"
    assert scheduler._fraction_cache
    bus.emit(NodeCrashed(node_id="worker-0", containers_lost=1))
    assert not scheduler._fraction_cache
    # Unbinding cancels the subscription: later crashes are not observed.
    scheduler.select_task("worker-1")
    scheduler.unbind()
    assert not bus.active
    assert scheduler.context is None
