"""Integration tests: provenance traces as re-executable workflows."""

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.core import HiWay, HiWayConfig
from repro.langs import DaxSource, detect_language
from repro.langs.tracelang import TraceSource
from repro.sim import Environment
from repro.workloads import MONTAGE_TOOLS, montage_dax, montage_inputs


def fresh_installation(workers=4):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=workers))
    hiway = HiWay(cluster, config=HiWayConfig(
        container_vcores=1, container_memory_mb=1024.0,
    ))
    hiway.install_everywhere(*MONTAGE_TOOLS)
    hiway.stage_inputs(montage_inputs(0.1))
    return hiway


def test_trace_replays_to_same_task_set():
    hiway = fresh_installation()
    original = hiway.run(DaxSource(montage_dax(0.1)), scheduler="fcfs")
    assert original.success, original.diagnostics
    trace = hiway.provenance.trace_jsonl()
    assert detect_language(trace) == "trace"

    # Re-execute the trace on a *different* (fresh) cluster — the paper's
    # point: traces replay, albeit not necessarily on the same nodes.
    replay_host = fresh_installation(workers=2)
    replay = replay_host.run(TraceSource(trace), scheduler="fcfs")
    assert replay.success, replay.diagnostics
    assert replay.tasks_completed == original.tasks_completed
    # The replay produced the same output files with the recorded sizes.
    assert set(replay.output_files) == set(original.output_files)
    for path, size in original.output_files.items():
        assert replay.output_files[path] == pytest.approx(size)


def test_trace_of_replay_matches_trace_of_original():
    hiway = fresh_installation()
    original = hiway.run(DaxSource(montage_dax(0.1)), scheduler="fcfs")
    trace = hiway.provenance.trace_jsonl()

    replay_host = fresh_installation()
    replay = replay_host.run(TraceSource(trace), scheduler="fcfs")
    second_trace = replay_host.provenance.trace_jsonl()

    def signature_multiset(trace_text):
        from repro.core.provenance import TraceFileStore

        store = TraceFileStore.from_jsonl(trace_text)
        return sorted(
            (record["signature"], tuple(sorted(record["outputs"])))
            for record in store.records(kind="task")
            if record["success"]
        )

    assert signature_multiset(trace) == signature_multiset(second_trace)


def test_trace_with_retries_replays_only_successes():
    """Failed attempts recorded in the trace must not become tasks."""
    hiway = fresh_installation(workers=3)
    # Remove one tool from one node to force a retry.
    node = hiway.cluster.node("worker-0")
    node.installed_software.discard("mProjectPP")
    original = hiway.run(DaxSource(montage_dax(0.1)), scheduler="fcfs")
    assert original.success, original.diagnostics
    trace = hiway.provenance.trace_jsonl()

    replay_host = fresh_installation(workers=2)
    replay = replay_host.run(TraceSource(trace), scheduler="fcfs")
    assert replay.success, replay.diagnostics
    assert replay.tasks_completed == original.tasks_completed
