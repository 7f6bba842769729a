"""Unit tests for the DAX, Galaxy, and trace language frontends."""

import json

import pytest

from repro.errors import LanguageError
from repro.langs import (
    detect_language,
    parse_dax,
    parse_galaxy,
    parse_workflow,
    register_language,
)
from repro.langs.tracelang import TraceSource, parse_trace

DAX = """
<adag name="mini-montage">
  <job id="ID01" name="mProjectPP">
    <uses file="/in/img1.fits" link="input" size="2000000"/>
    <uses file="/work/p1.fits" link="output" size="3400000"/>
  </job>
  <job id="ID02" name="mProjectPP">
    <uses file="/in/img2.fits" link="input" size="2000000"/>
    <uses file="/work/p2.fits" link="output" size="3400000"/>
  </job>
  <job id="ID03" name="mAdd">
    <uses file="/work/p1.fits" link="input"/>
    <uses file="/work/p2.fits" link="input"/>
    <uses file="/out/mosaic.fits" link="output" size="7000000"/>
  </job>
  <child ref="ID03">
    <parent ref="ID01"/>
    <parent ref="ID02"/>
  </child>
</adag>
"""

GALAXY = json.dumps({
    "name": "mini-trapline",
    "steps": {
        "0": {"id": 0, "type": "data_input", "label": "reads",
              "outputs": [{"name": "output"}]},
        "1": {"id": 1, "type": "tool", "tool_id": "tophat2",
              "input_connections": {"input": {"id": 0, "output_name": "output"}},
              "outputs": [{"name": "accepted_hits"}]},
        "2": {"id": 2, "type": "tool", "tool_id": "cufflinks",
              "input_connections": {"input": {"id": 1,
                                              "output_name": "accepted_hits"}},
              "outputs": [{"name": "transcripts"}]},
    },
})


def test_parse_dax_builds_graph():
    graph = parse_dax(DAX)
    assert graph.name == "mini-montage"
    assert len(graph) == 3
    assert graph.input_files() == ["/in/img1.fits", "/in/img2.fits"]
    assert graph.output_files() == ["/out/mosaic.fits"]
    add_task = graph.tasks["ID03"]
    assert add_task.tool == "mAdd"
    assert graph.dependencies_of(add_task) == {"ID01", "ID02"}
    # Byte sizes become MB hints.
    assert graph.tasks["ID01"].hinted_size("/work/p1.fits") == pytest.approx(3.4)


def test_dax_rejects_malformed_xml():
    with pytest.raises(LanguageError, match="malformed"):
        parse_dax("<adag><job></adag>")


def test_dax_rejects_wrong_root():
    with pytest.raises(LanguageError, match="adag"):
        parse_dax("<workflow/>")


def test_dax_rejects_undeclared_dependency():
    bad = DAX.replace('<parent ref="ID02"/>', "")
    with pytest.raises(LanguageError, match="ID02"):
        parse_dax(bad)


def test_dax_rejects_job_without_id():
    with pytest.raises(LanguageError, match="id"):
        parse_dax('<adag><job name="x"/></adag>')


def test_parse_galaxy_resolves_input_bindings():
    graph = parse_galaxy(GALAXY, input_bindings={"reads": "/in/sample.fastq"})
    assert len(graph) == 2
    tophat = graph.tasks["mini-trapline-step-1"]
    assert tophat.inputs == ["/in/sample.fastq"]
    cufflinks = graph.tasks["mini-trapline-step-2"]
    assert cufflinks.inputs == tophat.outputs
    assert graph.input_files() == ["/in/sample.fastq"]


def test_galaxy_unbound_input_rejected():
    with pytest.raises(LanguageError, match="unbound"):
        parse_galaxy(GALAXY)


def test_galaxy_malformed_json_rejected():
    with pytest.raises(LanguageError, match="malformed"):
        parse_galaxy("{not json")
    with pytest.raises(LanguageError, match="steps"):
        parse_galaxy('{"name": "x"}')


def test_galaxy_unknown_connection_rejected():
    document = json.loads(GALAXY)
    document["steps"]["2"]["input_connections"]["input"]["id"] = 99
    with pytest.raises(LanguageError, match="unknown step"):
        parse_galaxy(json.dumps(document), input_bindings={"reads": "/in/x"})


def make_trace():
    """A hand-written two-task trace."""
    lines = [
        {"kind": "workflow", "workflow_id": "w1", "workflow_name": "demo",
         "timestamp": 0.0, "phase": "start", "runtime_seconds": None,
         "success": True, "event_id": "event-1"},
        {"kind": "task", "workflow_id": "w1", "task_id": "t1",
         "signature": "sort", "tool": "sort", "command": "sort /in/a",
         "node_id": "worker-0", "timestamp": 5.0, "makespan_seconds": 5.0,
         "inputs": ["/in/a"], "outputs": ["/mid/b"],
         "output_sizes": {"/mid/b": 12.5}, "success": True, "attempt": 1,
         "stdout": "", "stderr": "", "event_id": "event-2"},
        {"kind": "task", "workflow_id": "w1", "task_id": "t2",
         "signature": "grep", "tool": "grep", "command": "grep /mid/b",
         "node_id": "worker-1", "timestamp": 9.0, "makespan_seconds": 4.0,
         "inputs": ["/mid/b"], "outputs": ["/out/c"],
         "output_sizes": {"/out/c": 1.25}, "success": True, "attempt": 1,
         "stdout": "", "stderr": "", "event_id": "event-3"},
    ]
    return "\n".join(json.dumps(line) for line in lines)


def test_parse_trace_rebuilds_dag_with_recorded_sizes():
    graph = parse_trace(make_trace())
    assert len(graph) == 2
    assert graph.input_files() == ["/in/a"]
    assert graph.output_files() == ["/out/c"]
    sort_task = graph.tasks["replay-t1"]
    assert sort_task.hinted_size("/mid/b") == 12.5


def test_parse_trace_rejects_empty_and_failed_only():
    with pytest.raises(LanguageError, match="no task events"):
        parse_trace('{"kind": "workflow", "workflow_id": "w", '
                    '"workflow_name": "x", "timestamp": 0, "phase": "start", '
                    '"runtime_seconds": null, "success": true, '
                    '"event_id": "e1"}')


def test_detect_language():
    assert detect_language(DAX) == "dax"
    assert detect_language(GALAXY) == "galaxy"
    assert detect_language(make_trace()) == "trace"
    assert detect_language("x = 'a'; x;") == "cuneiform"
    with pytest.raises(LanguageError):
        detect_language("   ")


def test_parse_workflow_dispatches():
    assert parse_workflow(DAX).name == "mini-montage"
    assert parse_workflow(GALAXY, input_bindings={"reads": "/in/r"}).name == (
        "mini-trapline"
    )
    assert parse_workflow("x = 'a'; x;").name == "cuneiform"
    assert isinstance(parse_workflow(make_trace()), TraceSource)
    with pytest.raises(LanguageError, match="unknown workflow language"):
        parse_workflow("x;", language="nextflow")


def test_register_custom_language():
    from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph

    def parse_lines(text, **kwargs):
        graph = WorkflowGraph("lines")
        for index, line in enumerate(text.splitlines()):
            tool, _, path = line.partition(" ")
            graph.add_task(TaskSpec(
                tool=tool, inputs=[path], outputs=[f"/out/{index}"],
            ))
        return StaticTaskSource(graph)

    register_language("lines", parse_lines)
    source = parse_workflow("sort /in/a\ngrep /in/b", language="lines")
    assert len(source.graph) == 2
