"""Tests for the durable event journal and its offline rebuilds."""

import io
import json

import pytest

from repro.obs.bus import EventBus
from repro.obs.events import (
    SchedulingDecision,
    ServiceSample,
    SubmissionFinished,
    TaskAttemptFinished,
    WorkflowSubmitted,
)
from repro.obs.journal import (
    EVENT_TYPES,
    EventJournal,
    JournalError,
    SCHEMA,
    event_from_dict,
    event_to_dict,
    iter_events,
    load_registry,
    load_service_report,
    read_journal,
    read_meta,
)
from repro.service import ServiceConfig, ServiceRunner, SloTargets, make_arrivals
from repro.workflow.model import TaskSpec


def _stamp(event, t, seq):
    event.t = t
    event.seq = seq
    return event


def test_every_event_type_roundtrips_through_the_codec():
    from repro.hdfs.filesystem import FileTransferReport

    task = TaskSpec(tool="sort", inputs=["/in/a"], outputs=["/out/b"],
                    task_id="t1")
    transfers = tuple(
        FileTransferReport(path=path, node_id="worker-0", size_mb=8.0,
                           local_mb=8.0, remote_mb=0.0, seconds=0.5,
                           direction=direction)
        for path, direction in (("/in/a", "in"), ("/out/b", "out"))
    )
    samples = [
        _stamp(WorkflowSubmitted(name="job-0", tenant="genomics",
                                 workload="snv"), 1.5, 0),
        _stamp(TaskAttemptFinished(workflow_id="wf-1", task=task,
                                   node_id="worker-0", attempt=1,
                                   success=True, makespan_seconds=12.25,
                                   transfers=transfers),
               20.0, 7),
        _stamp(SchedulingDecision(workflow_id="wf-1", policy="data-aware",
                                  kind="placement", task_id="t1",
                                  node_id="worker-0", candidate_kind="node",
                                  candidates=(("worker-0", 3.0),
                                              ("worker-1", 1.0)),
                                  score_name="local MB", better="max",
                                  reason="most local data"), 19.0, 6),
        _stamp(SubmissionFinished(name="job-0", tenant="genomics",
                                  workload="snv", success=True,
                                  rejected=False), 90.0, 40),
        _stamp(ServiceSample(rel_t=60.0, backlog=2.0, queue_depth=1.0,
                             running_apps=3.0, pending_containers=4.0),
               160.0, 41),
    ]
    for event in samples:
        record = json.loads(json.dumps(event_to_dict(event)))
        rebuilt = event_from_dict(record)
        assert type(rebuilt) is type(event)
        assert rebuilt.t == event.t and rebuilt.seq == event.seq
        assert event_to_dict(rebuilt) == event_to_dict(event)
    decision = event_from_dict(event_to_dict(samples[2]))
    assert decision.candidates == (("worker-0", 3.0), ("worker-1", 1.0))
    attempt = event_from_dict(event_to_dict(samples[1]))
    assert attempt.transfers == transfers


def test_unknown_event_names_are_skipped_not_fatal():
    assert event_from_dict({"e": "EventFromTheFuture", "t": 1.0}) is None
    buffer = io.StringIO(
        json.dumps({"schema": SCHEMA, "meta": {}}) + "\n"
        + json.dumps({"e": "EventFromTheFuture", "t": 1.0, "seq": 0}) + "\n"
        + json.dumps(event_to_dict(_stamp(
            SubmissionFinished(name="j", tenant="t", workload="w",
                               success=True, rejected=False), 5.0, 1
        ))) + "\n"
    )
    events = list(iter_events(buffer))
    assert len(events) == 1 and isinstance(events[0], SubmissionFinished)


def test_schema_mismatch_and_garbage_raise_journal_error():
    # One format: journals of the per-file event era (/1) do not load.
    for schema in ("hiway-journal/99", "hiway-journal/1"):
        with pytest.raises(JournalError, match="unsupported journal schema"):
            read_meta(io.StringIO(json.dumps({"schema": schema, "meta": {}})))
    with pytest.raises(JournalError, match="not JSON"):
        read_meta(io.StringIO("not json\n"))
    with pytest.raises(JournalError, match="empty"):
        read_meta(io.StringIO(""))
    bad_line = io.StringIO(
        json.dumps({"schema": SCHEMA, "meta": {}}) + "\n{oops\n"
    )
    with pytest.raises(JournalError, match="line 2"):
        list(iter_events(bad_line))


def _feed(handlers, events):
    """Replay: hand each event to its handler in ``handlers``, if any."""
    for event in events:
        handler = handlers.get(type(event))
        if handler is not None:
            handler(event)


def test_journal_attach_records_bus_traffic_and_replay_preserves_stamps():
    from repro.sim import Environment

    env = Environment()
    bus = EventBus(env)
    buffer = io.StringIO()
    journal = EventJournal(buffer)
    journal.write_header({"run": "unit"})
    subscription = bus.subscribe(journal.handlers())
    env.run(until=42.0)
    bus.emit(WorkflowSubmitted(name="j", tenant="t", workload="w"))
    bus.emit(SubmissionFinished(name="j", tenant="t", workload="w",
                                success=False, rejected=True))
    subscription.cancel()
    bus.emit(WorkflowSubmitted(name="late", tenant="t", workload="w"))
    journal.close()

    meta, events = read_journal(io.StringIO(buffer.getvalue()))
    assert meta == {"run": "unit"}
    assert [(type(e), e.t, e.seq) for e in events] == [
        (WorkflowSubmitted, 42.0, 0), (SubmissionFinished, 42.0, 1),
    ]
    assert events[1].rejected is True

    # Replay hands the decoded events over without re-stamping.
    seen = []
    _feed({SubmissionFinished: seen.append}, events)
    assert seen == [events[1]]
    assert seen[0].t == 42.0 and seen[0].seq == 1


def test_event_type_table_covers_the_whole_vocabulary():
    from repro.obs import events as ev

    for name in ev.__all__:
        cls = getattr(ev, name)
        if isinstance(cls, type) and issubclass(cls, ev.ObsEvent) \
                and cls is not ev.ObsEvent:
            assert name in EVENT_TYPES


def _one_of_each_event():
    """One stamped instance of every event class, each field off its
    default: nested task and transfer reports, tuple-of-pairs fields, a
    ``None``, a non-ASCII string and floats that need full ``repr``."""
    from repro.hdfs.filesystem import FileTransferReport
    from repro.obs import events as ev

    task = TaskSpec(tool="bwa", inputs=["/in/r1", "/in/r2"],
                    outputs=["/out/sam"], task_id="t-7", threads=4,
                    output_size_hints={"/out/sam": 12.5})
    stage_in = FileTransferReport(path="/in/r1", node_id="worker-1",
                                  size_mb=0.1 + 0.2, local_mb=0.25,
                                  remote_mb=0.05, seconds=1 / 3,
                                  direction="in")
    stage_out = FileTransferReport(path="/out/sam", node_id="worker-1",
                                   size_mb=12.5, local_mb=12.5,
                                   remote_mb=25.0, seconds=0.125,
                                   direction="out")
    samples = [
        ev.WorkflowSubmitted(name="job-0", tenant="génomique", workload="snv"),
        ev.WorkflowStarted(workflow_id="wf-1", name="job-0"),
        ev.WorkflowFinished(workflow_id="wf-1", name="job-0",
                            runtime_seconds=123.456, success=False),
        ev.SubmissionFinished(name="job-0", tenant="t", workload="snv",
                              success=False, rejected=True),
        ev.ServiceSample(rel_t=60.0, backlog=2.5, queue_depth=1.0,
                         running_apps=3.0, pending_containers=4.0),
        ev.TaskDispatched(workflow_id="wf-1", task_id="t-7", tool="bwa",
                          attempt=2),
        ev.TaskRetried(workflow_id="wf-1", task_id="t-7", attempt=2,
                       excluded_node="worker-2"),
        ev.TaskAttemptFinished(workflow_id="wf-1", task=task,
                               node_id="worker-1", makespan_seconds=12.25,
                               output_sizes={"/out/sam": 12.5}, success=False,
                               attempt=2, stderr="RuntimeError('boom')"),
        ev.TaskAttemptFinished(workflow_id="wf-1", task=task,
                               node_id="worker-1", makespan_seconds=14.5,
                               output_sizes={"/out/sam": 12.5}, success=True,
                               attempt=3, transfers=(stage_in, stage_out)),
        ev.SchedulingDecision(workflow_id="wf-1", policy="heft", kind="plan",
                              task_id="t-7", node_id="worker-1",
                              candidate_kind="node",
                              candidates=(("worker-1", 3.5), ("worker-0", 7.0)),
                              score_name="eft", better="min",
                              reason="earliest finish", tenant="t"),
        ev.AdmissionDecision(name="job-0", tenant="t", outcome="queued"),
        ev.ApplicationRegistered(app_id="app-1", name="job-0", tenant="t"),
        ev.ApplicationUnregistered(app_id="app-1"),
        ev.ContainerRequested(app_id="app-1", request_id=5, vcores=2,
                              memory_mb=1024.0, preferred_node=None,
                              strict=True, tenant="t"),
        ev.ContainerAllocated(app_id="app-1", request_id=5,
                              container_id="c-9", node_id="worker-1",
                              wait_seconds=0.75, tenant="t"),
        ev.ContainerLaunched(app_id="app-1", container_id="c-9",
                             node_id="worker-1"),
        ev.ContainerFinished(app_id="app-1", container_id="c-9",
                             node_id="worker-1", success=False,
                             state="killed"),
        ev.ContainerReleased(app_id="app-1", container_id="c-9",
                             node_id="worker-1"),
        ev.NodeCrashed(node_id="worker-2", containers_lost=3),
        ev.BlocksPlaced(path="/in/r1", size_mb=300.0,
                        placements=(("worker-0", "worker-1"), ("worker-2",))),
        ev.InputsStaged(transfers=(stage_out,)),
        ev.FaultInjected(node_id="worker-2", planned_at=90.0),
    ]
    return [_stamp(event, 10.0 + 0.1 * seq, seq)
            for seq, event in enumerate(samples)]


def test_journal_lines_match_the_pinned_format_byte_for_byte():
    """The bytes ``record`` writes for every event class are frozen in
    ``golden/journal_format.jsonl``; a codec rewrite must keep them."""
    import pathlib

    from repro.obs import events as ev

    samples = _one_of_each_event()
    assert {type(e).__name__ for e in samples} == set(ev.__all__) - {"ObsEvent"}
    buffer = io.StringIO()
    journal = EventJournal(buffer)
    journal.write_header({"run": "pin"})
    for event in samples:
        journal.record(event)
    journal.close()
    golden = pathlib.Path(__file__).parent / "golden" / "journal_format.jsonl"
    assert buffer.getvalue() == golden.read_text(encoding="utf-8")


def test_close_is_idempotent_on_owned_and_borrowed_handles(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with EventJournal(path) as journal:
        journal.record(_stamp(WorkflowSubmitted(name="j"), 1.0, 0))
        journal.close()
    journal.close()
    meta, events = read_journal(path)
    assert meta == {} and len(events) == 1

    buffer = io.StringIO()
    journal = EventJournal(buffer)
    journal.close()
    journal.close()
    assert not buffer.closed
    assert buffer.getvalue().count("\n") == 1  # the header, once


def _serve(journal=None, monitor=None, **config):
    runner = ServiceRunner(ServiceConfig(
        workers=2, max_concurrent_apps=2, sample_period_s=120.0, seed=0,
        **config,
    ))
    report = runner.run(
        make_arrivals("poisson", 20.0 / 3600.0, seed=3),
        horizon_s=3600.0,
        targets=SloTargets(p99_s=4000.0),
        journal=journal,
        monitor=monitor,
    )
    return runner, report


def _journalled(monitor=None, **config):
    """(runner, live report, journal text) of one service run."""
    buffer = io.StringIO()
    journal = EventJournal(buffer)
    runner, live = _serve(journal=journal, monitor=monitor, **config)
    journal.close()
    return runner, live, buffer.getvalue()


@pytest.mark.parametrize("config", [
    pytest.param({}, id="drain"),
    pytest.param({"drain": False, "admission_overflow": "reject"},
                 id="no-drain-reject"),
    pytest.param({"max_series_points": 8}, id="max-series-points-8"),
])
def test_service_report_rebuilds_byte_identically_from_journal(config):
    runner, live, text = _journalled(**config)
    rebuilt = load_service_report(io.StringIO(text))
    assert rebuilt.render() == live.render()
    assert rebuilt.passed() == live.passed()
    assert load_registry(io.StringIO(text)).to_json() \
        == runner.registry.to_json()
    if not config.get("drain", True):
        assert live.rejected and live.unfinished
    if config.get("max_series_points"):
        sampled = live.backlog[-1][0] / 120.0 + 1  # before decimation
        assert len(rebuilt.backlog) <= 8 < sampled


def test_the_journal_writes_one_task_spec_per_attempt():
    """Only ``TaskAttemptFinished`` lines carry a ``task``, and every
    successful attempt's staged files ride on that line as its
    ``transfers``."""
    _, _, text = _journalled()
    records = [json.loads(line) for line in text.splitlines()[1:]]
    attempts = [r for r in records if r["e"] == "TaskAttemptFinished"]
    assert attempts
    assert [r for r in records if "task" in r] == attempts
    assert all(r["transfers"] for r in attempts if r["success"])


@pytest.mark.parametrize("max_series_points", [None, 8],
                         ids=["unbounded", "max-series-points-8"])
def test_load_registry_matches_the_live_registry(max_series_points):
    runner, _, text = _journalled(max_series_points=max_series_points)
    offline = load_registry(io.StringIO(text))
    assert offline.to_json() == runner.registry.to_json()
    assert offline.to_prometheus() == runner.registry.to_prometheus()


def test_live_monitor_matches_a_monitor_fed_the_decoded_journal():
    """Live = replay for the streaming monitor: the one a service run
    feeds and one fed the run's decoded journal (what ``slo-watch``
    does) close the same windows and print the same summary."""
    from repro.obs.live import LiveMonitor
    from repro.service.slo import run_epoch, slo_targets

    live = LiveMonitor(window_s=600.0)
    _, _, text = _journalled(monitor=live)
    meta, events = read_journal(io.StringIO(text))
    replayed = LiveMonitor(window_s=600.0,
                           targets=slo_targets(meta["service"]),
                           epoch=run_epoch(events))
    _feed(replayed.handlers(), events)
    replayed.close()

    lines = [window.line() for window in live.all_windows()]
    assert len(lines) > 1
    assert [window.line() for window in replayed.all_windows()] == lines
    assert replayed.summary() == live.summary()


def test_load_service_report_requires_service_metadata():
    buffer = io.StringIO()
    with EventJournal(buffer) as journal:
        journal.write_header({"run": "not-a-service"})
    with pytest.raises(JournalError, match="service"):
        load_service_report(io.StringIO(buffer.getvalue()))


# -- single-workflow views: live = journal replay -----------------------------

#: The Montage inputs the CI report loop stages.
MONTAGE_INPUTS = {f"/data/2mass/raw-{index:02d}.fits": 4.2 for index in range(5)}


def _journalled_montage(engine, scheduler):
    """Montage 0.1 on ``engine`` with every event recorded twice: as the
    live event list and through an :class:`EventJournal`. Returns
    (final clock, live events, live registry, journal text)."""
    from repro.baselines.cloudman import GalaxyCloudMan
    from repro.baselines.tez import TezApplicationMaster
    from repro.cluster import Cluster, ClusterSpec, M3_LARGE
    from repro.core import HiWay, HiWayConfig
    from repro.hdfs import HdfsClient
    from repro.langs import parse_workflow
    from repro.obs.registry import MetricsRegistry
    from repro.sim import Environment
    from repro.tools import default_registry
    from repro.workloads import montage_dax
    from repro.yarn import ResourceManager

    source = parse_workflow(montage_dax(0.1), language="dax")
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=3))
    registry = MetricsRegistry()
    cluster.bus.subscribe(registry.handlers())
    live = []
    cluster.bus.subscribe(dict.fromkeys(EVENT_TYPES.values(), live.append))
    buffer = io.StringIO()
    journal = EventJournal(buffer)
    cluster.bus.subscribe(journal.handlers())
    tools = default_registry()
    for node in cluster.all_nodes():
        node.install(*tools.names())
    if engine == "hiway":
        hiway = HiWay(cluster, tools=tools,
                      config=HiWayConfig(scheduler=scheduler))
        hiway.stage_inputs(MONTAGE_INPUTS)
        result = hiway.run(source, scheduler=scheduler)
    elif engine == "tez":
        hdfs = HdfsClient(cluster, seed=0)
        hdfs.stage_many(MONTAGE_INPUTS, seed=0)
        am = TezApplicationMaster(cluster, hdfs, ResourceManager(env, cluster),
                                  tools, source.graph)
        process = env.process(am.run())
        env.run(until=process)
        result = process.value
    else:
        cloudman = GalaxyCloudMan(cluster, tools, slots_per_node=3)
        cloudman.stage_inputs(MONTAGE_INPUTS)
        result = cloudman.run(source.graph)
    journal.close()
    assert result.success, result.diagnostics
    return env.now, live, registry, buffer.getvalue()


@pytest.mark.parametrize("engine, scheduler", [
    ("hiway", "data-aware"),
    ("hiway", "heft"),
    ("tez", None),
    ("cloudman", None),
], ids=["hiway-data-aware", "hiway-heft", "tez", "cloudman"])
def test_single_workflow_views_match_journal_replay(engine, scheduler):
    """The journal is the record every single-workflow view rebuilds
    from: the Chrome trace, the critical-path report, every task's
    decision account and the timeline come out the same from the
    decoded events as from the live ones, and the same again from just
    the event types each view declares (what the CLI records)."""
    from repro.obs.analysis import (
        ANALYSIS_EVENTS, analyze, latest_finished, render_report,
    )
    from repro.obs.decisions import DECISION_EVENTS, explain, task_ids
    from repro.obs.journal import replay_registry
    from repro.obs.timeline import TIMELINE_EVENTS, render_timeline
    from repro.obs.tracer import TRACE_EVENTS, trace_records

    now, live, registry, text = _journalled_montage(engine, scheduler)
    meta, decoded = read_journal(io.StringIO(text))
    assert len(decoded) == len(live)

    def declared(event_types):
        return [event for event in live if type(event) in event_types]

    trace = trace_records(live, now)
    assert trace_records(decoded, now) == trace
    assert trace_records(declared(TRACE_EVENTS), now) == trace

    def report(events, registry):
        return render_report(latest_finished(analyze(events)),
                             registry=registry)

    rendered = report(live, registry)
    assert "critical path: 9 task(s)" in rendered
    assert report(decoded, replay_registry(meta, decoded)) == rendered
    assert report(declared(ANALYSIS_EVENTS), registry) == rendered

    decided = task_ids(live)
    assert len(decided) == 17
    assert task_ids(decoded) == decided
    for task_id in decided:
        account = explain(live, task_id)
        assert explain(decoded, task_id) == account
        assert explain(declared(DECISION_EVENTS), task_id) == account

    timeline = render_timeline(live)
    assert timeline.startswith("timeline: 17 task attempt(s)")
    assert render_timeline(decoded) == timeline
    assert render_timeline(declared(TIMELINE_EVENTS)) == timeline
