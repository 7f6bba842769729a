"""Unit tests for the Provenance Manager and its three store backends."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.provenance import (
    DocumentProvenanceStore,
    ProvenanceManager,
    SqlProvenanceStore,
    TraceFileStore,
    event_from_dict,
)
from repro.core.provenance.events import FileEvent, TaskEvent, WorkflowEvent
from repro.errors import ProvenanceError
from repro.hdfs.filesystem import FileTransferReport
from repro.sim import Environment
from repro.workflow import TaskSpec

ALL_STORES = [TraceFileStore, SqlProvenanceStore, DocumentProvenanceStore]


def sample_task_event(signature="align", node="worker-0", runtime=10.0,
                      timestamp=1.0, success=True):
    return TaskEvent(
        workflow_id="w1", task_id=f"t-{signature}-{node}-{timestamp}",
        signature=signature, tool=signature, command=f"{signature} x",
        node_id=node, timestamp=timestamp, makespan_seconds=runtime,
        inputs=["/in/a"], outputs=["/out/b"], output_sizes={"/out/b": 2.0},
        success=success,
    )


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_store_roundtrip_and_queries(store_cls):
    store = store_cls()
    store.append(WorkflowEvent(
        workflow_id="w1", workflow_name="demo", timestamp=0.0, phase="start",
    ))
    store.append(sample_task_event(runtime=10.0, timestamp=1.0))
    store.append(sample_task_event(runtime=30.0, timestamp=5.0))
    store.append(sample_task_event(node="worker-1", runtime=99.0, timestamp=2.0))
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
    store.append(sample_task_event(runtime=10.0, timestamp=1.0))
    store.append(sample_task_event(runtime=0.0, timestamp=9.0, success=False))
    assert store.latest_task_runtime("align", "worker-0") == 10.0
    store.append(sample_task_event(runtime=0.0, timestamp=1.0, success=False))
    assert store.latest_task_runtime("align", "worker-0") == 10.0
    store.append(sample_task_event(node="worker-5", success=False))
    assert store.latest_task_runtime("align", "worker-5") is None


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_equal_timestamps_last_appended_wins(store_cls):
    store = store_cls()
    store.append(sample_task_event(runtime=10.0, timestamp=4.0))
    store.append(sample_task_event(runtime=20.0, timestamp=4.0))
    assert store.latest_task_runtime("align", "worker-0") == 20.0
    store.append(sample_task_event(runtime=15.0, timestamp=4.0))
    assert store.latest_task_runtime("align", "worker-0") == 15.0


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_older_timestamp_appended_later_does_not_win(store_cls):
    store = store_cls()
    store.append(sample_task_event(runtime=10.0, timestamp=5.0))
    store.append(sample_task_event(runtime=99.0, timestamp=2.0))
    assert store.latest_task_runtime("align", "worker-0") == 10.0


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_clear_empties_the_runtime_index(store_cls):
    store = store_cls()
    store.append(sample_task_event(runtime=10.0, timestamp=5.0))
    store.clear()
    assert store.latest_task_runtime("align", "worker-0") is None
    # A stale entry would keep the newer timestamp and reject this one.
    store.append(sample_task_event(runtime=3.0, timestamp=1.0))
    assert store.latest_task_runtime("align", "worker-0") == 3.0


def _contract_events():
    return [
        sample_task_event(runtime=10.0, timestamp=5.0),
        sample_task_event(runtime=20.0, timestamp=5.0),
        sample_task_event(runtime=99.0, timestamp=1.0),
        sample_task_event(runtime=0.0, timestamp=9.0, success=False),
        sample_task_event(node="worker-1", runtime=7.0, timestamp=3.0),
        sample_task_event(signature="sort", node="worker-1", runtime=4.0),
    ]


@pytest.mark.parametrize("rebuild", ["from_jsonl", "load"])
def test_rebuilt_trace_store_answers_like_the_original(rebuild, tmp_path):
    store = TraceFileStore()
    for event in _contract_events():
        store.append(event)
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


def _random_event(kind, signature, node, timestamp, runtime, success):
    if kind == "workflow":
        return WorkflowEvent(workflow_id="w1", workflow_name="demo",
                             timestamp=timestamp, phase="end",
                             runtime_seconds=runtime, success=success)
    if kind == "file":
        return FileEvent(workflow_id="w1", task_id="t", path="/in/a",
                         size_mb=runtime, transfer_seconds=1.0,
                         direction="in", node_id=node, timestamp=timestamp)
    return sample_task_event(signature=signature, node=node, runtime=runtime,
                             timestamp=timestamp, success=success)


@settings(max_examples=60, deadline=None)
@given(random_appends)
def test_every_store_agrees_with_the_linear_scan(appends):
    stores = [store_cls() for store_cls in ALL_STORES]
    records = []
    pairs = [(s, n) for s in SIGNATURES for n in NODES]
    for spec in appends:
        event = _random_event(*spec)
        records.append(dataclasses.asdict(event))
        for store in stores:
            store.append(event)
        expected = [scan_latest_task_runtime(records, *pair) for pair in pairs]
        for store in stores:
            assert [store.latest_task_runtime(*pair) for pair in pairs] == expected
    restored = TraceFileStore.from_jsonl(stores[0].to_jsonl())
    assert [restored.latest_task_runtime(*pair) for pair in pairs] == [
        scan_latest_task_runtime(records, *pair) for pair in pairs
    ]


# -- record serialisation -----------------------------------------------------


def _one_of_each_event():
    return [
        WorkflowEvent(workflow_id="w1", workflow_name="demo", timestamp=3.0,
                      phase="end", runtime_seconds=3.0, success=False),
        sample_task_event(),
        FileEvent(workflow_id="w1", task_id="t1", path="/in/a", size_mb=8.0,
                  transfer_seconds=0.5, direction="in", node_id="worker-0",
                  timestamp=2.0, local_fraction=0.25),
    ]


@pytest.mark.parametrize("event", _one_of_each_event(),
                         ids=["workflow", "task", "file"])
def test_to_dict_matches_asdict_in_value_and_key_order(event):
    record = event.to_dict()
    reference = dataclasses.asdict(event)
    assert record == reference
    assert list(record) == list(reference)
    assert list(record) == [f.name for f in dataclasses.fields(event)]


@pytest.mark.parametrize("store_cls", ALL_STORES)
def test_task_record_shares_no_containers_with_event_or_store(store_cls):
    event = sample_task_event()
    snapshot = dataclasses.asdict(event)
    store = store_cls()
    store.append(event)
    record = event.to_dict()
    record["inputs"].append("/in/extra")
    record["outputs"].append("/out/extra")
    record["output_sizes"]["/out/extra"] = 1.0
    assert dataclasses.asdict(event) == snapshot
    assert store.records() == [snapshot]
    # Nor does the stored record follow later changes to the event.
    event.inputs.append("/in/late")
    event.output_sizes["/out/late"] = 1.0
    assert store.records() == [snapshot]


def test_trace_store_jsonl_roundtrip():
    store = TraceFileStore()
    store.append(WorkflowEvent(
        workflow_id="w1", workflow_name="demo", timestamp=0.0, phase="start",
    ))
    store.append(sample_task_event())
    text = store.to_jsonl()
    restored = TraceFileStore.from_jsonl(text)
    assert restored.records() == store.records()


def test_trace_store_save_load(tmp_path):
    store = TraceFileStore()
    store.append(sample_task_event())
    path = tmp_path / "trace.jsonl"
    store.save(str(path))
    restored = TraceFileStore.load(str(path))
    assert restored.records() == store.records()


def test_trace_store_rejects_garbage():
    with pytest.raises(ProvenanceError, match=r"^trace line 1: Expecting value"):
        TraceFileStore.from_jsonl("this is { not json")


def _task_line(**overrides):
    record = sample_task_event().to_dict()
    record.update(overrides)
    return json.dumps(record)


@pytest.mark.parametrize("bad_line", [
    '{"kind": "task", "task_id": "x"}',
    '{"kind": "mystery"}',
    '{"kind": ["task"]}',
    '[1, 2]',
    _task_line(unexpected=1),
    _task_line(timestamp="late"),
    _task_line(signature=["align"]),
], ids=["missing-fields", "unknown-kind", "unhashable-kind", "array",
        "extra-field", "timestamp-string", "signature-list"])
def test_trace_store_rejects_wrong_shape_with_line_number(bad_line):
    good_line = _task_line()
    with pytest.raises(ProvenanceError, match=r"^trace line 3: "):
        TraceFileStore.from_jsonl(f"{good_line}\n\n{bad_line}\n{good_line}")


def test_event_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        event_from_dict({"kind": "mystery"})


def test_event_from_dict_roundtrip():
    event = sample_task_event()
    restored = event_from_dict(event.to_dict())
    assert restored == event


def test_document_store_rejects_unknown_kind():
    store = DocumentProvenanceStore()

    class Bogus:
        def to_dict(self):
            return {"kind": "bogus", "event_id": "x"}

    with pytest.raises(ProvenanceError):
        store.append(Bogus())


def test_manager_records_and_estimates():
    env = Environment()
    manager = ProvenanceManager(env)
    workflow_id = manager.workflow_started("demo")
    task = TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/out/b"])
    manager.task_finished(
        workflow_id, task, "worker-0", 42.0, {"/out/b": 1.0},
        success=True, attempt=1,
    )
    manager.file_moved(workflow_id, task, FileTransferReport(
        path="/in/a", node_id="worker-0", size_mb=8.0, local_mb=8.0,
        remote_mb=0.0, seconds=0.05, direction="in",
    ))
    manager.workflow_finished(workflow_id, "demo", 100.0, success=True)
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
    env = Environment()
    manager = ProvenanceManager(env, SqlProvenanceStore())
    workflow_id = manager.workflow_started("demo")
    task = TaskSpec(tool="sort", inputs=["/in"], outputs=["/out"])
    manager.task_finished(workflow_id, task, "worker-3", 7.5, {},
                          success=True, attempt=1)
    assert manager.runtime_estimate("sort", "worker-3") == 7.5
