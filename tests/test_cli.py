"""Tests for the command-line client."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads import montage_dax, trapline_galaxy_json


CUNEIFORM = """
deftask shout( loud : quiet )in bash *{ tool: sort }*
shout( quiet: '/in/whisper' );
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_cuneiform_workflow(tmp_path, capsys):
    workflow = write(tmp_path, "wf.cf", CUNEIFORM)
    code = main([
        "run", workflow,
        "--workers", "2",
        "--input", "/in/whisper=16",
        "--scheduler", "fcfs",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "SUCCEEDED" in out
    assert "tasks completed:   1" in out


def test_run_fails_without_input(tmp_path, capsys):
    workflow = write(tmp_path, "wf.cf", CUNEIFORM)
    code = main(["run", workflow, "--workers", "2", "--quiet"])
    assert code == 1


def test_run_dax_with_trace_roundtrip(tmp_path, capsys):
    dax = write(tmp_path, "montage.dax", montage_dax(0.1))
    trace_path = str(tmp_path / "run.trace")
    inputs = []
    for index in range(5):
        inputs += ["--input", f"/data/2mass/raw-{index:02d}.fits=4.2"]
    code = main([
        "run", dax, "--workers", "3", "--trace-out", trace_path, *inputs,
    ])
    assert code == 0
    # The saved trace is itself runnable (Hi-WAY's 4th language).
    replay_inputs = inputs  # same staged files
    code = main([
        "run", trace_path, "--workers", "2", "--quiet", *replay_inputs,
    ])
    assert code == 0


def test_run_galaxy_with_bindings(tmp_path, capsys):
    galaxy = write(tmp_path, "trapline.ga", trapline_galaxy_json())
    args = ["run", galaxy, "--workers", "2",
            "--node-type", "c3.2xlarge",
            "--container-vcores", "8",
            "--container-memory-mb", "14000",
            "--containers-per-node", "1"]
    for condition in ("young", "aged"):
        for replicate in range(3):
            label = f"reads-{condition}-rep{replicate}"
            path = f"/data/geo/GSE62762/{condition}-rep{replicate}.fastq"
            args += ["--bind", f"{label}={path}", "--input", f"{path}=100"]
    assert main(args) == 0
    assert "SUCCEEDED" in capsys.readouterr().out


def test_unparseable_workflow_reports_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.dax", "<adag><job/></adag>")
    code = main(["run", bad, "--language", "dax"])
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_report_subcommand_prints_critical_path(tmp_path, capsys):
    workflow = write(tmp_path, "wf.cf", CUNEIFORM)
    metrics_path = str(tmp_path / "metrics.json")
    prom_path = str(tmp_path / "metrics.prom")
    code = main([
        "report", workflow,
        "--workers", "2",
        "--input", "/in/whisper=16",
        "--metrics-out", metrics_path,
        "--prometheus-out", prom_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "critical path:" in out
    assert "per-task slack" in out
    assert "time breakdown" in out
    assert "hdfs read locality hit rate:" in out

    document = json.loads(open(metrics_path).read())
    assert document["hiway_task_attempts_total"]["values"]["outcome=success"] == 1
    assert "# TYPE hiway_task_attempts_total counter" in open(prom_path).read()


def _montage_args(tmp_path):
    dax = write(tmp_path, "montage.dax", montage_dax(0.1))
    inputs = []
    for index in range(5):
        inputs += ["--input", f"/data/2mass/raw-{index:02d}.fits=4.2"]
    return [dax, "--workers", "3", "--quiet", *inputs]


def test_explain_subcommand_names_node_and_scores(tmp_path, capsys):
    base = _montage_args(tmp_path)
    for scheduler, kind in [
        ("fcfs", "queue-bind"),
        ("data-aware", "queue-bind"),
        ("adaptive-queue", "queue-bind"),
        ("round-robin", "static-plan"),
        ("heft", "static-plan"),
    ]:
        code = main(["explain", *base, "--scheduler", scheduler, "bgmodel"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{scheduler} [{kind}] chose node worker-" in out
        assert "candidates" in out


def test_explain_unknown_task_lists_known_ids(tmp_path, capsys):
    code = main(["explain", *_montage_args(tmp_path), "no-such-task"])
    assert code == 1
    err = capsys.readouterr().err
    assert "no scheduling decisions" in err
    assert "bgmodel" in err


def test_argument_validation():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "wf", "--input", "missing-equals"])
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "wf", "--bind", "nopath="])
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "wf", "--scheduler", "magic"])


@pytest.mark.parametrize("argv", [
    [command, "wf", "--workers", "0"]
    for command in ("run", "trace", "report", "explain")
] + [
    ["serve-sim", "--workers", "0"],
    ["serve-sim", "--containers-per-node", "0"],
    ["serve-sim", "--backbone-mb-s", "0"],
    ["run", "wf", "--containers-per-node", "0"],
    ["run", "wf", "--container-vcores", "0"],
    ["run", "wf", "--container-memory-mb", "0"],
    ["run", "wf", "--backbone-mb-s", "0"],
    ["report", "wf", "--max-tasks", "-1"],
    ["explain-submission", "journal.jsonl", "--max-attempts", "-1"],
], ids=lambda argv: " ".join(arg for arg in argv if arg != "wf"))
def test_out_of_range_counts_are_usage_errors(argv, capsys):
    """Empty clusters, zero-capacity links and negative row caps exit 2
    at parse time instead of raising, hanging or mislabelling rows."""
    if argv[0] == "explain":
        argv = argv[:2] + ["task"] + argv[2:]
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_report_from_journal_without_a_workflow_is_an_error(tmp_path, capsys):
    from repro.obs.journal import EventJournal

    journal = tmp_path / "empty.jsonl"
    EventJournal(str(journal)).close()
    code = main(["report", "--from-journal", str(journal)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no workflows observed\n"
    assert captured.out == ""


@pytest.mark.parametrize("engine, app_prefix, chooser", [
    ("hiway", "workflow-", "data-aware"),
    ("tez", "application_", "tez-fifo"),
    ("cloudman", "cloudman-", "slurm-fifo"),
])
def test_report_and_explain_on_every_engine(tmp_path, capsys, engine,
                                            app_prefix, chooser):

    base = _montage_args(tmp_path)
    metrics_path = str(tmp_path / f"metrics-{engine}.json")
    loud = [arg for arg in base if arg != "--quiet"]
    code = main(["report", *loud, "--engine", engine,
                 "--metrics-out", metrics_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "  tasks completed:   17 (failures: 0)\n" in out
    assert f"workflow 'montage-0.1' ({app_prefix}" in out
    assert "succeeded in" in out and "17 task(s)" in out
    assert "critical path: 9 task(s)" in out
    assert "hdfs read locality hit rate:" in out
    document = json.loads(open(metrics_path).read())
    attempts = document["hiway_task_attempts_total"]["values"]
    assert attempts["outcome=success"] == 17
    assert document["hiway_workflows_total"]["values"]["outcome=success"] == 1

    code = main(["explain", *base, "--engine", engine, "bgmodel"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"task bgmodel: {chooser} [queue-bind] chose node" in out
    assert "candidates" in out


def test_trace_subcommand_exports_sorted_chrome_trace(tmp_path, capsys):

    workflow = write(tmp_path, "wf.cf", CUNEIFORM)
    out_path = tmp_path / "trace.json"
    code = main(["trace", workflow, "--workers", "2",
                 "--input", "/in/whisper=16", "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"chrome trace saved to {out_path}" in out
    # The summary is read off the metrics registry, not the tracer.
    assert "  task attempts (success): 1\n" in out
    assert "  containers launched: 1\n" in out
    assert "  hdfs read locality: " in out
    document = json.loads(out_path.read_text())
    assert document["displayTimeUnit"] == "ms"
    timed = [r for r in document["traceEvents"] if r["ph"] != "M"]
    stamps = [r["ts"] for r in timed]
    assert stamps == sorted(stamps)
    spans = [r for r in timed if r["ph"] == "X"]
    assert spans
    # Observers attach before staging, so the input's write is traced.
    assert any(r["name"] == "write:/in/whisper" for r in spans)


def _task_line_without(name):
    record = {
        "workflow_id": "w1", "task_id": "t1", "signature": "sort",
        "tool": "sort", "command": "sort /in/whisper", "node_id": "worker-0",
        "timestamp": 1.0, "makespan_seconds": 2.0, "inputs": ["/in/whisper"],
        "outputs": ["/out/loud"], "output_sizes": {"/out/loud": 1.0},
        "success": True, "attempt": 1, "stdout": "sort: ok", "stderr": "",
        "kind": "task", "event_id": "event-00000001",
    }
    del record[name]
    return json.dumps(record)


@pytest.mark.parametrize("line", [
    '{"kind": "task", "task_id": "x"}',
    '{"kind": "mystery"}',
    _task_line_without("success"),
    _task_line_without("inputs"),
], ids=["missing-fields", "unknown-kind", "no-success", "no-inputs"])
def test_run_malformed_trace_is_a_parse_error(tmp_path, capsys, line):
    trace = write(tmp_path, "x.trace", line + "\n")
    code = main(["run", trace, "--workers", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse workflow: trace line 1: ")
