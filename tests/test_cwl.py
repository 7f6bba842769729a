"""Tests for the CWL frontend (the paper's extension interface at work)."""

import json

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import HiWay
from repro.errors import LanguageError
from repro.langs import detect_language, parse_workflow
from repro.langs.cwl import CwlSource, parse_cwl
from repro.sim import Environment


def tool(base, outputs):
    return {
        "class": "CommandLineTool",
        "baseCommand": base,
        "inputs": [],
        "outputs": [{"id": o, "type": "File"} for o in outputs],
    }


CWL = json.dumps({
    "cwlVersion": "v1.0",
    "class": "Workflow",
    "id": "rna-mini",
    "inputs": [{"id": "reads", "type": "File"}],
    "outputs": [
        {"id": "final", "type": "File", "outputSource": "quantify/transcripts"},
    ],
    "steps": [
        {
            "id": "align",
            "run": tool("tophat2", ["hits"]),
            "in": [{"id": "input", "source": "reads"}],
            "out": ["hits"],
        },
        {
            "id": "quantify",
            "run": tool("cufflinks", ["transcripts"]),
            "in": [{"id": "alignments", "source": "align/hits"}],
            "out": ["transcripts"],
        },
    ],
}, indent=2)


def test_parse_builds_wired_graph():
    graph = parse_cwl(CWL, input_bindings={"reads": "/in/reads.fastq"})
    assert graph.name == "rna-mini"
    assert len(graph) == 2
    align = graph.tasks["rna-mini-align"]
    quantify = graph.tasks["rna-mini-quantify"]
    assert align.tool == "tophat2"
    assert align.inputs == ["/in/reads.fastq"]
    assert quantify.inputs == align.outputs
    assert graph.input_files() == ["/in/reads.fastq"]


def test_detection_recognises_cwl():
    assert detect_language(CWL) == "cwl"
    source = parse_workflow(CWL, input_bindings={"reads": "/in/r"})
    assert isinstance(source, CwlSource)


def test_unbound_file_input_rejected():
    with pytest.raises(LanguageError, match="unbound"):
        parse_cwl(CWL)


def test_map_form_sections_accepted():
    document = json.loads(CWL)
    document["steps"] = {
        step.pop("id"): step for step in document["steps"]
    }
    document["inputs"] = {"reads": {"type": "File"}}
    graph = parse_cwl(json.dumps(document),
                      input_bindings={"reads": "/in/reads.fastq"})
    assert len(graph) == 2


def test_unsupported_features_rejected_clearly():
    document = json.loads(CWL)
    document["steps"][0]["scatter"] = "input"
    with pytest.raises(LanguageError, match="scatter"):
        parse_cwl(json.dumps(document), input_bindings={"reads": "/in/r"})

    document = json.loads(CWL)
    document["steps"][0]["run"] = {"class": "ExpressionTool"}
    with pytest.raises(LanguageError, match="CommandLineTool"):
        parse_cwl(json.dumps(document), input_bindings={"reads": "/in/r"})

    document = json.loads(CWL)
    del document["steps"][0]["run"]["baseCommand"]
    with pytest.raises(LanguageError, match="baseCommand"):
        parse_cwl(json.dumps(document), input_bindings={"reads": "/in/r"})


def test_wrong_class_and_bad_json_rejected():
    with pytest.raises(LanguageError, match="Workflow"):
        parse_cwl('{"class": "CommandLineTool"}')
    with pytest.raises(LanguageError, match="malformed"):
        parse_cwl("cwlVersion: v1.0\nclass: Workflow")  # raw YAML


def test_unresolvable_source_rejected():
    document = json.loads(CWL)
    document["steps"][1]["in"][0]["source"] = "nowhere/out"
    with pytest.raises(LanguageError, match="unresolvable"):
        parse_cwl(json.dumps(document), input_bindings={"reads": "/in/r"})


def test_cwl_workflow_runs_on_hiway():
    from repro.cluster import C3_2XLARGE
    from repro.core import HiWayConfig

    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=C3_2XLARGE, worker_count=2))
    hiway = HiWay(cluster, max_containers_per_node=1, config=HiWayConfig(
        container_vcores=8, container_memory_mb=9_000.0,
    ))
    hiway.install_everywhere("tophat2", "cufflinks")
    hiway.stage_inputs({"/in/reads.fastq": 64.0})
    result = hiway.run(
        CwlSource(CWL, input_bindings={"reads": "/in/reads.fastq"})
    )
    assert result.success, result.diagnostics
    assert result.tasks_completed == 2
    assert "/cwl/rna-mini/quantify/transcripts" in result.output_files
