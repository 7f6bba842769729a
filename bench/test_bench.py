"""Smoke tests of the benchmark at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``; the
repository's default test run (``testpaths = tests``) does not collect
this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import time

import pytest

import compare
import layers
import pace
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def tiny_reps(tmp_path_factory):
    """One timed and three traced reps of every workload, tiny sizes."""
    workdir = str(tmp_path_factory.mktemp("work"))
    reps = run.collect(
        run.WORKLOAD_NAMES, seed=0, size="tiny", min_reps=1, seconds=0.0,
        trace=True, workdir=workdir,
    )
    return {name: run.summarise(**reps[name]) for name in run.WORKLOAD_NAMES}


def test_uninstall_restores_every_patched_attribute():
    tracer = layers.LayerTracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches and not tracer.missing
        for owner, name, original in patches:
            assert vars(owner)[name] is not original
    finally:
        tracer.uninstall()
    for owner, name, original in patches:
        assert vars(owner)[name] is original


def test_pace_samples_a_phase_and_restores_the_alarm_handler():
    handler = signal.getsignal(signal.SIGALRM)
    sampler = pace.Pace()
    begin = sampler.start()
    try:
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            pace.probe()
        end, _ = sampler.mark()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    probe_s, speed = sampler.phase(begin, end)
    assert len(sampler.samples) >= 4
    assert 0.0 < probe_s < end - begin
    assert 0.0 < speed < 10.0


def test_traced_reps_count_identical_calls(tiny_reps):
    for name, summary in tiny_reps.items():
        assert summary["checks"]["traced reps count identical calls"], name
        assert summary["per_layer"]["sim.engine.resumes"]["value"] > 0


def test_traced_and_untraced_reps_share_the_sim_digest(tiny_reps):
    for name, summary in tiny_reps.items():
        assert summary["checks"]["sim_digest identical in every rep, traced or not"], name
        assert summary["correct"], (name, summary["checks"])


def test_fig9_workload_reproduces_the_experiment(tmp_path):
    from repro.experiments.fig9 import Fig9Config, _one_experiment

    workload = workloads.Fig9Heft(0, {"heft_runs": 2}, str(tmp_path))
    workload.run()
    fcfs, heft, _ = _one_experiment(
        Fig9Config(consecutive_heft_runs=2, experiment_repeats=1), 0
    )
    assert workload.runtimes() == [fcfs, *heft]


def test_snv_workload_reproduces_the_experiment(tmp_path):
    from repro.experiments.table2 import Table2Config, run_weak_scaling_once

    workload = workloads.SnvWide(0, {"snv_workers": 2}, str(tmp_path))
    workload.run()
    runtime, _ = run_weak_scaling_once(Table2Config(runs=1), 2, 0)
    assert workload.result.runtime_seconds == runtime


def test_summaries_hold_exactly_the_declared_metrics(tiny_reps):
    declared = _declared()
    end_to_end = {metric["name"] for metric in declared["end_to_end"]}
    per_layer = {metric["name"] for metric in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for summary in tiny_reps.values():
        assert set(summary["end_to_end"]) == end_to_end
        assert set(summary["per_layer"]) == per_layer
        for section in ("end_to_end", "per_layer"):
            for name, stats in summary[section].items():
                assert stats["unit"] == units[name]
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_the_declared_metrics(trace, section):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", "snv_wide", "--tiny", "--trace", str(trace),
        ])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _declared()[section]}


def test_compare_verdicts():
    def stats(*samples):
        ordered = sorted(samples)
        return {"value": ordered[1], "p25": ordered[0], "p75": ordered[2],
                "samples": list(samples)}

    base = stats(0.99, 1.0, 1.01)
    assert compare.verdict(base, stats(1.19, 1.2, 1.21), "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, stats(0.79, 0.8, 0.81), "lower", 0.1)[0] == "better"
    assert compare.verdict(base, stats(1.02, 1.03, 1.04), "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(base, stats(1.19, 1.2, 1.21), "higher", 0.1)[0] == "better"
    wide = stats(0.7, 1.1, 1.5)
    assert compare.verdict(base, wide, "lower", 0.1)[0] == "unresolved"
