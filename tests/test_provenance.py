"""Unit tests for the Provenance Manager and its three store backends."""

import copy
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.provenance import (
    DocumentProvenanceStore,
    ProvenanceManager,
    SqlProvenanceStore,
    TraceFileStore,
)
from repro.core.provenance.events import FIELDS
from repro.errors import ProvenanceError
from repro.hdfs.filesystem import FileTransferReport
from repro.langs import TraceSource
from repro.obs import EventBus, EventJournal, iter_events
from repro.obs.events import (
    FileStaged,
    TaskAttemptFinished,
    WorkflowFinished,
    WorkflowStarted,
)
from repro.service import ServiceConfig, ServiceRunner, make_arrivals
from repro.sim import Environment
from repro.workflow import TaskSpec

ALL_STORES = [TraceFileStore, SqlProvenanceStore, DocumentProvenanceStore]

#: Unique record ids: the document store keys its records by them.
_event_ids = itertools.count(1)


def _event_id():
    return f"event-{next(_event_ids):08d}"


def sample_task_record(signature="align", node="worker-0", runtime=10.0,
                       timestamp=1.0, success=True):
    return {
        "workflow_id": "w1", "task_id": f"t-{signature}-{node}-{timestamp}",
        "signature": signature, "tool": signature, "command": f"{signature} x",
        "node_id": node, "timestamp": timestamp, "makespan_seconds": runtime,
        "inputs": ["/in/a"], "outputs": ["/out/b"],
        "output_sizes": {"/out/b": 2.0}, "success": success, "attempt": 1,
        "stdout": "", "stderr": "", "kind": "task", "event_id": _event_id(),
    }


def workflow_record(timestamp=0.0, phase="start", runtime_seconds=None,
                    success=True):
    return {
        "workflow_id": "w1", "workflow_name": "demo", "timestamp": timestamp,
        "phase": phase, "runtime_seconds": runtime_seconds, "success": success,
        "kind": "workflow", "event_id": _event_id(),
    }


def file_record(size_mb=8.0, node="worker-0", timestamp=2.0):
    return {
        "workflow_id": "w1", "task_id": "t", "path": "/in/a",
        "size_mb": size_mb, "transfer_seconds": 1.0, "direction": "in",
        "node_id": node, "timestamp": timestamp, "local_fraction": 0.0,
        "kind": "file", "event_id": _event_id(),
    }


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_store_roundtrip_and_queries(store_cls):
    store = store_cls()
    store.append(workflow_record())
    store.append(sample_task_record(runtime=10.0, timestamp=1.0))
    store.append(sample_task_record(runtime=30.0, timestamp=5.0))
    store.append(sample_task_record(node="worker-1", runtime=99.0, timestamp=2.0))
    assert len(store.records()) == 4
    assert len(store.records(kind="task")) == 3
    assert len(store.records(kind="workflow", workflow_id="w1")) == 1
    # Latest observation wins.
    assert store.latest_task_runtime("align", "worker-0") == 30.0
    assert store.latest_task_runtime("align", "worker-1") == 99.0
    assert store.latest_task_runtime("align", "worker-9") is None
    assert {r["node_id"] for r in store.records(kind="task")} == {
        "worker-0", "worker-1"
    }
    store.clear()
    assert store.records() == []
    assert store.latest_task_runtime("align", "worker-0") is None


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_failed_attempts_do_not_feed_estimates(store_cls):
    store = store_cls()
    store.append(sample_task_record(runtime=10.0, timestamp=1.0))
    store.append(sample_task_record(runtime=0.0, timestamp=9.0, success=False))
    assert store.latest_task_runtime("align", "worker-0") == 10.0
    store.append(sample_task_record(runtime=0.0, timestamp=1.0, success=False))
    assert store.latest_task_runtime("align", "worker-0") == 10.0
    store.append(sample_task_record(node="worker-5", success=False))
    assert store.latest_task_runtime("align", "worker-5") is None


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_equal_timestamps_last_appended_wins(store_cls):
    store = store_cls()
    store.append(sample_task_record(runtime=10.0, timestamp=4.0))
    store.append(sample_task_record(runtime=20.0, timestamp=4.0))
    assert store.latest_task_runtime("align", "worker-0") == 20.0
    store.append(sample_task_record(runtime=15.0, timestamp=4.0))
    assert store.latest_task_runtime("align", "worker-0") == 15.0


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_older_timestamp_appended_later_does_not_win(store_cls):
    store = store_cls()
    store.append(sample_task_record(runtime=10.0, timestamp=5.0))
    store.append(sample_task_record(runtime=99.0, timestamp=2.0))
    assert store.latest_task_runtime("align", "worker-0") == 10.0


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_clear_empties_the_runtime_index(store_cls):
    store = store_cls()
    store.append(sample_task_record(runtime=10.0, timestamp=5.0))
    store.clear()
    assert store.latest_task_runtime("align", "worker-0") is None
    # A stale entry would keep the newer timestamp and reject this one.
    store.append(sample_task_record(runtime=3.0, timestamp=1.0))
    assert store.latest_task_runtime("align", "worker-0") == 3.0


def _contract_records():
    return [
        sample_task_record(runtime=10.0, timestamp=5.0),
        sample_task_record(runtime=20.0, timestamp=5.0),
        sample_task_record(runtime=99.0, timestamp=1.0),
        sample_task_record(runtime=0.0, timestamp=9.0, success=False),
        sample_task_record(node="worker-1", runtime=7.0, timestamp=3.0),
        sample_task_record(signature="sort", node="worker-1", runtime=4.0),
    ]


@pytest.mark.parametrize("rebuild", ["from_jsonl", "load"])
def test_rebuilt_trace_store_answers_like_the_original(rebuild, tmp_path):
    store = TraceFileStore()
    for record in _contract_records():
        store.append(record)
    if rebuild == "from_jsonl":
        restored = TraceFileStore.from_jsonl(store.to_jsonl())
    else:
        path = str(tmp_path / "trace.jsonl")
        store.save(path)
        restored = TraceFileStore.load(path)
    pairs = [(s, n) for s in ("align", "sort", "none")
             for n in ("worker-0", "worker-1", "worker-9")]
    expected = {pair: store.latest_task_runtime(*pair) for pair in pairs}
    assert expected[("align", "worker-0")] == 20.0
    assert {pair: restored.latest_task_runtime(*pair) for pair in pairs} == expected


# -- differential: every store against the linear scan it replaced ----------


def scan_latest_task_runtime(records, signature, node_id):
    """Reference oracle: the linear scan ``TraceFileStore`` used to run
    on every lookup. The latest successful record wins; a record wins
    when its timestamp is ``>=`` the current one, so on equal
    timestamps the last one in the list wins."""
    latest = None
    latest_ts = float("-inf")
    for record in records:
        if (
            record["kind"] == "task"
            and record["signature"] == signature
            and record["node_id"] == node_id
            and record["success"]
            and record["timestamp"] >= latest_ts
        ):
            latest = record["makespan_seconds"]
            latest_ts = record["timestamp"]
    return latest


SIGNATURES = ("align", "sort")
NODES = ("worker-0", "worker-1", "worker-2")

random_appends = st.lists(
    st.tuples(
        st.sampled_from(("task", "task", "task", "workflow", "file")),
        st.sampled_from(SIGNATURES),
        st.sampled_from(NODES),
        st.integers(min_value=0, max_value=4).map(float),  # ties are common
        st.integers(min_value=1, max_value=50).map(float),
        st.booleans(),
    ),
    max_size=40,
)


def _random_record(kind, signature, node, timestamp, runtime, success):
    if kind == "workflow":
        return workflow_record(timestamp=timestamp, phase="end",
                               runtime_seconds=runtime, success=success)
    if kind == "file":
        return file_record(size_mb=runtime, node=node, timestamp=timestamp)
    return sample_task_record(signature=signature, node=node, runtime=runtime,
                              timestamp=timestamp, success=success)


@settings(max_examples=60, deadline=None)
@given(random_appends)
def test_every_store_agrees_with_the_linear_scan(appends):
    stores = [store_cls() for store_cls in ALL_STORES]
    records = []
    pairs = [(s, n) for s in SIGNATURES for n in NODES]
    for spec in appends:
        record = _random_record(*spec)
        records.append(record)
        for store in stores:
            store.append(record)
        expected = [scan_latest_task_runtime(records, *pair) for pair in pairs]
        for store in stores:
            assert [store.latest_task_runtime(*pair) for pair in pairs] == expected
    restored = TraceFileStore.from_jsonl(stores[0].to_jsonl())
    assert [restored.latest_task_runtime(*pair) for pair in pairs] == [
        scan_latest_task_runtime(records, *pair) for pair in pairs
    ]


# -- records: one per bus event ----------------------------------------------


def _one_of_each_event():
    task = TaskSpec(tool="align", inputs=["/in/a"], outputs=["/out/b"],
                    task_id="t1")
    return {
        "workflow": WorkflowFinished(workflow_id="w1", name="demo",
                                     runtime_seconds=3.0, success=False),
        "task": TaskAttemptFinished(workflow_id="w1", task=task,
                                    node_id="worker-0", makespan_seconds=10.0,
                                    output_sizes={"/out/b": 2.0}),
        "file": FileStaged(workflow_id="w1", task=task, report=FileTransferReport(
            path="/in/a", node_id="worker-0", size_mb=8.0, local_mb=2.0,
            remote_mb=6.0, seconds=0.5, direction="in",
        )),
    }


@pytest.mark.parametrize("kind", ["workflow", "task", "file"])
def test_handler_records_follow_the_field_table(kind):
    event = _one_of_each_event()[kind]
    event.t = 2.5
    manager = ProvenanceManager()
    manager.handlers()[type(event)](event)
    [record] = manager.store.records()
    assert list(record) == list(FIELDS[kind])
    assert record["kind"] == kind
    assert record["timestamp"] == 2.5
    assert record["event_id"] == "event-00000001"


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_task_record_shares_no_containers_with_event_or_store(store_cls):
    event = _one_of_each_event()["task"]
    manager = ProvenanceManager(store_cls())
    manager.handlers()[TaskAttemptFinished](event)
    snapshot = copy.deepcopy(manager.store.records())
    assert snapshot[0]["inputs"] == ["/in/a"]
    # The stored record does not follow later changes to the event.
    event.task.inputs.append("/in/late")
    event.task.outputs.append("/out/late")
    event.output_sizes["/out/late"] = 1.0
    assert manager.store.records() == snapshot


def test_trace_store_jsonl_roundtrip():
    store = TraceFileStore()
    store.append(workflow_record())
    store.append(sample_task_record())
    text = store.to_jsonl()
    restored = TraceFileStore.from_jsonl(text)
    assert restored.records() == store.records()


def test_trace_store_save_load(tmp_path):
    store = TraceFileStore()
    store.append(sample_task_record())
    path = tmp_path / "trace.jsonl"
    store.save(str(path))
    restored = TraceFileStore.load(str(path))
    assert restored.records() == store.records()


def test_trace_store_rejects_garbage():
    with pytest.raises(ProvenanceError, match=r"^trace line 1: Expecting value"):
        TraceFileStore.from_jsonl("this is { not json")


def _task_line(drop=(), **overrides):
    record = sample_task_record()
    record.update(overrides)
    for name in drop:
        del record[name]
    return json.dumps(record)


@pytest.mark.parametrize("bad_line", [
    '{"kind": "task", "task_id": "x"}',
    '{"kind": "mystery"}',
    '{"kind": ["task"]}',
    '[1, 2]',
    _task_line(unexpected=1),
    _task_line(timestamp="late"),
    _task_line(signature=["align"]),
    _task_line(drop=["success"]),
    _task_line(drop=["inputs"]),
], ids=["missing-fields", "unknown-kind", "unhashable-kind", "array",
        "extra-field", "timestamp-string", "signature-list", "no-success",
        "no-inputs"])
def test_trace_store_rejects_wrong_shape_with_line_number(bad_line):
    good_line = _task_line()
    with pytest.raises(ProvenanceError, match=r"^trace line 3: "):
        TraceFileStore.from_jsonl(f"{good_line}\n\n{bad_line}\n{good_line}")


def test_document_store_rejects_unknown_kind():
    store = DocumentProvenanceStore()
    with pytest.raises(ProvenanceError):
        store.append({"kind": "bogus", "event_id": "x"})


def _bus_with(manager):
    bus = EventBus(Environment())
    bus.subscribe(manager.handlers())
    return bus


def test_manager_records_and_estimates():
    manager = ProvenanceManager()
    bus = _bus_with(manager)
    task = TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/out/b"])
    bus.emit(WorkflowStarted(workflow_id="w1", name="demo"))
    bus.emit(TaskAttemptFinished(
        workflow_id="w1", task=task, node_id="worker-0", makespan_seconds=42.0,
        output_sizes={"/out/b": 1.0},
    ))
    bus.emit(FileStaged(workflow_id="w1", task=task, report=FileTransferReport(
        path="/in/a", node_id="worker-0", size_mb=8.0, local_mb=8.0,
        remote_mb=0.0, seconds=0.05, direction="in",
    )))
    bus.emit(WorkflowFinished(workflow_id="w1", name="demo",
                              runtime_seconds=100.0))
    assert manager.runtime_estimate("sort", "worker-0") == 42.0
    assert manager.runtime_estimate("sort", "worker-1") == 0.0
    assert manager.has_observation("sort", "worker-0")
    assert not manager.has_observation("sort", "worker-1")
    assert manager.mean_runtime("sort", ["worker-0", "worker-1"]) == 21.0
    kinds = [record["kind"] for record in manager.store.records()]
    assert sorted(kinds) == ["file", "task", "workflow", "workflow"]
    # The trace is valid JSON lines.
    lines = manager.trace_jsonl().splitlines()
    assert len(lines) == 4


def test_manager_with_sql_backend_serves_scheduler_queries():
    manager = ProvenanceManager(SqlProvenanceStore())
    bus = _bus_with(manager)
    task = TaskSpec(tool="sort", inputs=["/in"], outputs=["/out"])
    bus.emit(WorkflowStarted(workflow_id="w1", name="demo"))
    bus.emit(TaskAttemptFinished(workflow_id="w1", task=task,
                                 node_id="worker-3", makespan_seconds=7.5))
    assert manager.runtime_estimate("sort", "worker-3") == 7.5


def test_provenance_rebuilt_from_the_journal_matches_the_live_trace():
    buffer = io.StringIO()
    journal = EventJournal(buffer)
    runner = ServiceRunner(ServiceConfig(workers=4, max_concurrent_apps=2,
                                         seed=7))
    runner.run(make_arrivals("poisson", 20.0 / 3600.0, seed=7),
               horizon_s=1200.0, journal=journal)
    journal.close()
    live = runner.hiway.provenance.trace_jsonl()
    rebuilt = ProvenanceManager()
    handlers = rebuilt.handlers()
    for event in iter_events(io.StringIO(buffer.getvalue())):
        handler = handlers.get(type(event))
        if handler is not None:
            handler(event)
    assert rebuilt.store.records(kind="task")
    assert rebuilt.trace_jsonl() == live
    # The rebuilt trace re-executes: every recorded task once more.
    replay = runner.hiway.run(TraceSource(rebuilt.trace_jsonl()))
    assert replay.success, replay.diagnostics
    assert replay.tasks_completed == len({
        r["task_id"] for r in rebuilt.store.records(kind="task") if r["success"]
    })
