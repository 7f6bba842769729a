"""Tests for the open-loop service tier.

Covers the arrival-process generators (determinism per generator,
shapes), the traffic model, the SLO percentile math against an
independent reference, the admission queue drain-order regression
(a rejected-then-retried tenant must not starve queued tenants under
``tenant-fair``), a quick-scale open-loop smoke run, and the
``serve-sim`` CLI contract (report rendering, exit codes, byte
determinism).
"""

import json
import math
import random

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.experiments.common import percentile
from repro.obs.spans import SubmissionSpan
from repro.service import (
    ARRIVAL_NAMES,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    DEFAULT_TENANTS,
    ServiceConfig,
    ServiceReport,
    ServiceRunner,
    SloTargets,
    TenantProfile,
    build_schedule,
    make_arrivals,
    rate_from_users,
)
from repro.sim import Environment
from repro.yarn import ResourceManager
from repro.yarn.allocation import AdmissionController


# -- arrival processes --------------------------------------------------------


@pytest.mark.parametrize("name", ARRIVAL_NAMES)
def test_arrival_generators_are_deterministic_per_seed(name):
    first = make_arrivals(name, 0.02, seed=7).times(3600.0)
    second = make_arrivals(name, 0.02, seed=7).times(3600.0)
    other = make_arrivals(name, 0.02, seed=8).times(3600.0)
    assert first == second
    assert first != other
    assert first, "a 3600 s horizon at 72/h must produce arrivals"
    assert all(0.0 <= t < 3600.0 for t in first)
    assert first == sorted(first)
    assert len(set(first)) == len(first)  # strictly increasing


def test_poisson_count_matches_rate():
    rate = 0.05
    times = PoissonArrivals(rate, seed=3).times(40_000.0)
    assert len(times) == pytest.approx(rate * 40_000.0, rel=0.15)


def test_diurnal_shape_and_validation():
    arrivals = DiurnalArrivals(1.0, seed=0, amplitude=0.5, period_s=400.0)
    assert arrivals.rate_at(100.0) == pytest.approx(1.5)  # quarter period
    assert arrivals.rate_at(300.0) == pytest.approx(0.5)  # three quarters
    assert arrivals.peak_rate == pytest.approx(1.5)
    assert arrivals.mean_rate(400.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="amplitude"):
        DiurnalArrivals(1.0, amplitude=1.5)
    with pytest.raises(ValueError, match="period_s"):
        DiurnalArrivals(1.0, period_s=0.0)


def test_burst_shape_and_analytic_mean_rate():
    arrivals = BurstArrivals(
        0.01, seed=1, burst_multiplier=8.0, burst_at_s=300.0,
        burst_duration_s=600.0,
    )
    assert arrivals.rate_at(0.0) == pytest.approx(0.01)
    assert arrivals.rate_at(300.0) == pytest.approx(0.08)
    assert arrivals.rate_at(899.9) == pytest.approx(0.08)
    assert arrivals.rate_at(900.0) == pytest.approx(0.01)
    assert arrivals.peak_rate == pytest.approx(0.08)
    # 1200 s horizon: 600 s boosted by (8 - 1) on top of the base.
    assert arrivals.mean_rate(1200.0) == pytest.approx(
        0.01 * (1200.0 + 600.0 * 7.0) / 1200.0
    )
    # The flash crowd must actually show up in the sampled times.
    times = arrivals.times(1200.0)
    in_burst = sum(1 for t in times if 300.0 <= t < 900.0)
    assert in_burst > len(times) - in_burst


def test_arrival_factory_and_rate_helpers():
    assert make_arrivals("poisson", 0.5).name == "poisson"
    assert make_arrivals("diurnal", 0.5, amplitude=0.2).name == "diurnal"
    assert make_arrivals("burst", 0.5).name == "burst"
    with pytest.raises(ValueError, match="unknown arrival"):
        make_arrivals("weibull", 0.5)
    with pytest.raises(ValueError, match="rate_per_s"):
        PoissonArrivals(0.0)
    assert rate_from_users(100, 0.5) == pytest.approx(100 * 0.5 / 3600.0)
    with pytest.raises(ValueError):
        rate_from_users(-1, 0.5)
    for name in ARRIVAL_NAMES:
        assert "seed" in make_arrivals(name, 0.01, seed=5).describe()


# -- traffic model ------------------------------------------------------------


def test_build_schedule_is_deterministic_and_well_formed():
    arrivals = PoissonArrivals(0.02, seed=11)
    first = build_schedule(arrivals, horizon_s=3600.0)
    second = build_schedule(arrivals, horizon_s=3600.0)
    assert first == second
    assert first
    names = [spec.name for spec in first]
    assert len(set(names)) == len(names)
    mixes = {tenant.name: set(tenant.mix) for tenant in DEFAULT_TENANTS}
    for spec in first:
        assert spec.kind in mixes[spec.tenant]
        assert spec.name == f"job-{spec.index:05d}-{spec.kind}"
    truncated = build_schedule(arrivals, horizon_s=3600.0, max_submissions=3)
    assert truncated == first[:3]


def test_build_schedule_seed_separates_times_from_draws():
    """Changing the draw seed reshuffles tenants but not arrival times."""
    arrivals = PoissonArrivals(0.02, seed=11)
    base = build_schedule(arrivals, horizon_s=3600.0)
    reseeded = build_schedule(arrivals, horizon_s=3600.0, seed=99)
    assert [s.at for s in base] == [s.at for s in reseeded]
    assert [s.tenant for s in base] != [s.tenant for s in reseeded]


def test_tenant_profile_validation():
    with pytest.raises(ValueError, match="weight"):
        TenantProfile("t", weight=0.0)
    with pytest.raises(ValueError, match="unknown workload kind"):
        TenantProfile("t", mix={"spark": 1.0})
    with pytest.raises(ValueError, match=">= 0"):
        TenantProfile("t", mix={"snv": -1.0})
    with pytest.raises(ValueError, match="positive total"):
        TenantProfile("t", mix={"snv": 0.0})
    with pytest.raises(ValueError, match="unique"):
        build_schedule(
            PoissonArrivals(0.01),
            tenants=(TenantProfile("a"), TenantProfile("a")),
        )
    with pytest.raises(ValueError, match="at least one tenant"):
        build_schedule(PoissonArrivals(0.01), tenants=())


# -- SLO math -----------------------------------------------------------------


def _reference_percentile(values, q):
    """Independent linear-interpolation percentile (numpy's default)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    position = (q / 100.0) * (n - 1)
    below = ordered[min(int(position), n - 1)]
    above = ordered[min(int(position) + 1, n - 1)]
    return below + (above - below) * (position - math.floor(position))


def test_percentile_matches_reference_implementation():
    rng = random.Random(13)
    for size in (1, 2, 5, 17, 100):
        values = [rng.uniform(0, 500) for _ in range(size)]
        for q in (0, 25, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                _reference_percentile(values, q)
            )
    assert percentile([], 50) == 0.0
    assert percentile([3.0], 99) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)


def _record(index, submitted, admitted=None, finished=None,
            success=True, rejected=False, tenant="genomics", kind="snv"):
    return SubmissionSpan(
        name=f"job-{index:05d}-{kind}", tenant=tenant, workload=kind,
        submitted_at=submitted, admitted_at=admitted, finished_at=finished,
        success=success, rejected=rejected,
    )


def test_submission_record_derived_times():
    record = _record(0, submitted=10.0, admitted=25.0, finished=100.0)
    assert record.completed
    assert record.latency_s == pytest.approx(90.0)
    assert record.queue_wait_s == pytest.approx(15.0)
    assert record.makespan_s == pytest.approx(75.0)
    unfinished = _record(1, submitted=10.0)
    assert not unfinished.completed
    assert unfinished.latency_s is None
    rejected = _record(2, submitted=10.0, finished=10.0,
                       success=False, rejected=True)
    assert not rejected.completed and rejected.rejected


def test_service_report_verdicts_and_render():
    records = [
        _record(i, submitted=i * 10.0, admitted=i * 10.0 + 5.0,
                finished=i * 10.0 + 50.0 + i)
        for i in range(10)
    ]
    records.append(_record(10, submitted=200.0, finished=200.0,
                           success=False, rejected=True, tenant="astro",
                           kind="montage"))
    report = ServiceReport(
        traffic="poisson (rate 0.0100/s, seed 0)",
        setup="test setup",
        horizon_s=3600.0,
        records=records,
        backlog=[(0.0, 1.0), (60.0, 3.0), (120.0, 0.0)],
        targets=SloTargets(p50_s=60.0, p99_s=50.0, max_rejection_rate=0.5),
    )
    assert report.submitted == 11
    assert len(report.completed) == 10
    assert len(report.rejected) == 1
    assert report.rejection_rate == pytest.approx(1 / 11)
    assert report.throughput_per_h == pytest.approx(10 * 3600.0 / 3600.0)
    assert report.latency_percentile(50) == pytest.approx(
        _reference_percentile([50.0 + i for i in range(10)], 50)
    )
    verdicts = {criterion: ok for criterion, ok, _, _ in report.verdicts()}
    assert verdicts["p50 latency <= 60 s"] is True
    assert verdicts["p99 latency <= 50 s"] is False
    assert verdicts["rejection rate <= 50.0%"] is True
    assert not report.passed()
    text = report.render()
    assert text.startswith("open-loop service report")
    assert "FAIL" in text and "overall: FAIL" in text
    assert "per-tenant:" in text and "astro" in text
    # Vacuous verdict: no targets means the run passes.
    report.targets = None
    assert report.passed()
    assert "SLO verdict" not in report.render()


def test_service_report_empty_distributions_render():
    report = ServiceReport(traffic="t", setup="s", horizon_s=0.0, records=[])
    assert report.throughput_per_h == 0.0
    assert report.rejection_rate == 0.0
    assert "p50       0.0" in report.render()


# -- admission drain order (regression) ---------------------------------------


def _admission_rm(drain):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=2))
    rm = ResourceManager(
        env, cluster,
        admission=AdmissionController(max_concurrent_apps=1, drain=drain),
    )
    return env, rm


def test_tenant_fair_drain_prevents_retry_starvation():
    """A tenant re-submitting after each admission cannot occupy every
    freed slot while another tenant waits (the drain-order bugfix)."""
    env, rm = _admission_rm("tenant-fair")
    running = rm.submit_application("a-1", tenant="greedy")
    assert running.admitted
    retry = rm.submit_application("a-retry", tenant="greedy")
    queued = rm.submit_application("b-1", tenant="patient")
    assert not retry.admitted and not queued.admitted
    rm.unregister_application(running.handle)
    # Queue order is [a-retry, b-1] but the greedy tenant has already
    # been admitted once, so the freed slot goes to the patient tenant.
    assert queued.event.triggered
    assert not retry.event.triggered
    rm.unregister_application(queued.event.value)
    assert retry.event.triggered
    assert retry.event.value.name == "a-retry"


def test_fifo_drain_admits_in_queue_order():
    """The pre-fix behaviour, kept as the default: strict queue order
    lets a head-of-queue retry win the slot."""
    env, rm = _admission_rm("fifo")
    running = rm.submit_application("a-1", tenant="greedy")
    retry = rm.submit_application("a-retry", tenant="greedy")
    queued = rm.submit_application("b-1", tenant="patient")
    rm.unregister_application(running.handle)
    assert retry.event.triggered
    assert not queued.event.triggered


def test_tenant_fair_drain_round_robins_under_sustained_retries():
    env, rm = _admission_rm("tenant-fair")
    running = rm.submit_application("g-0", tenant="greedy")
    waiting = [rm.submit_application(f"p-{i}", tenant=f"tenant-{i}")
               for i in range(3)]
    admitted_order = []
    handle = running.handle
    for step in range(3):
        rm.submit_application(f"g-retry-{step}", tenant="greedy")
        rm.unregister_application(handle)
        fired = [t for t in waiting if t.event.triggered
                 and t.name not in admitted_order]
        assert len(fired) == 1, "each freed slot must go to a new tenant"
        admitted_order.append(fired[0].name)
        handle = fired[0].event.value
    assert admitted_order == ["p-0", "p-1", "p-2"]


def test_admission_controller_drain_validation():
    with pytest.raises(ValueError, match="drain"):
        AdmissionController(max_concurrent_apps=1, drain="lifo")
    fair = AdmissionController(max_concurrent_apps=1, drain="tenant-fair")
    assert fair.select_queued([("only", None)]) == 0
    # Tenant-less entries key by name, so distinct names stay fair.
    fair.record_admission("solo-app", None)
    assert fair.select_queued([("solo-app", None), ("other", None)]) == 1


# -- open-loop smoke run ------------------------------------------------------


SMOKE_CONFIG = ServiceConfig(
    workers=4,
    containers_per_node=2,
    max_concurrent_apps=2,
    sample_period_s=120.0,
    seed=0,
)


def test_service_runner_smoke_and_report_determinism():
    def run_once():
        runner = ServiceRunner(SMOKE_CONFIG)
        report = runner.run(
            PoissonArrivals(20.0 / 3600.0, seed=5), horizon_s=1800.0
        )
        return runner, report

    runner, report = run_once()
    assert report.submitted > 0
    assert len(report.completed) == report.submitted
    assert not report.failed and not report.unfinished
    assert report.backlog, "backlog series must not be empty"
    assert max(value for _, value in report.backlog) > 0
    p50 = report.latency_percentile(50)
    p99 = report.latency_percentile(99)
    assert 0 < p50 <= p99
    assert all(wait >= 0 for wait in report.queue_waits_s)
    # The series ride the metrics registry export.
    exported = json.loads(runner.registry.to_json())
    assert "hiway_service_backlog_depth" in exported
    samples = exported["hiway_service_backlog_depth"]["values"][""]["samples"]
    assert [tuple(s) for s in samples] == report.backlog
    # A fresh installation replaying the same seed renders byte-identically.
    _, again = run_once()
    assert again.render() == report.render()


def test_service_runner_no_drain_cuts_off_at_horizon():
    """drain=False must run to the horizon (not stop at the first
    event — Timeouts are born triggered) and leave late submissions
    unfinished."""
    from dataclasses import replace

    config = replace(SMOKE_CONFIG, drain=False, max_concurrent_apps=1)
    runner = ServiceRunner(config)
    report = runner.run(
        PoissonArrivals(60.0 / 3600.0, seed=5), horizon_s=900.0
    )
    assert report.horizon_s == pytest.approx(900.0)
    assert report.submitted > 1
    assert len(report.completed) > 0, "the run must progress past t=0"
    assert report.unfinished, "a 1-app cap at 60/h must leave work in flight"
    assert all(r.latency_s is None for r in report.unfinished)
    # The sampler ran the whole horizon, not just the first event.
    assert report.backlog[-1][0] >= 900.0 - config.sample_period_s


def test_service_runner_reject_overflow_records_rejections():
    from dataclasses import replace

    config = replace(
        SMOKE_CONFIG, max_concurrent_apps=1, admission_overflow="reject"
    )
    report = ServiceRunner(config).run(
        BurstArrivals(
            30.0 / 3600.0, seed=2, burst_multiplier=6.0,
            burst_duration_s=900.0,
        ),
        horizon_s=1800.0,
        targets=SloTargets(max_rejection_rate=0.0),
    )
    assert report.rejected, "the burst must overflow a 1-app cap"
    assert all(r.finished_at is not None for r in report.rejected)
    assert all(not r.completed for r in report.rejected)
    assert not report.passed()  # rejection-rate SLO of 0 must fail
    assert "FAIL" in report.render()


# -- serve-sim CLI ------------------------------------------------------------


SERVE_SMOKE_ARGS = [
    "serve-sim", "--rate-per-h", "20", "--horizon-s", "1200",
    "--workers", "4", "--containers-per-node", "2",
    "--max-concurrent-apps", "2", "--seed", "7",
]


def test_cli_serve_sim_smoke(capsys, tmp_path):
    from repro.cli import main

    out = tmp_path / "report.txt"
    metrics = tmp_path / "metrics.json"
    code = main(SERVE_SMOKE_ARGS + [
        "--out", str(out), "--metrics-out", str(metrics),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "open-loop service report" in captured
    assert out.read_text().startswith("open-loop service report")
    exported = json.loads(metrics.read_text())
    assert exported["hiway_service_backlog_depth"]["values"][""]["samples"]


def test_cli_serve_sim_is_byte_deterministic(capsys, tmp_path):
    from repro.cli import main

    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    assert main(SERVE_SMOKE_ARGS + ["--quiet", "--out", str(first)]) == 0
    assert main(SERVE_SMOKE_ARGS + ["--quiet", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_cli_replayed_metrics_match_the_live_run_byte_for_byte(
        capsys, tmp_path):
    from repro.cli import main

    journal = tmp_path / "journal.jsonl"
    live, replayed = tmp_path / "live.json", tmp_path / "replayed.json"
    assert main(SERVE_SMOKE_ARGS + [
        "--quiet", "--max-series-points", "8", "--events-out", str(journal),
        "--metrics-out", str(live),
    ]) == 0
    assert main(["report", "--from-journal", str(journal), "--quiet",
                 "--metrics-out", str(replayed)]) == 0
    capsys.readouterr()
    assert replayed.read_bytes() == live.read_bytes()


@pytest.mark.parametrize("argv", [
    ["serve-sim", "--sample-period-s", "0"],
    ["serve-sim", "--sample-period-s", "-5"],
    ["serve-sim", "--live-period-s", "0"],
    ["serve-sim", "--max-series-points", "1"],
    ["slo-watch", "journal.jsonl", "--window-s", "0"],
    ["slo-watch", "journal.jsonl", "--window-s", "-1"],
    ["serve-sim", "--amplitude", "2"],
    ["serve-sim", "--period-s", "0"],
    ["serve-sim", "--horizon-s", "-5"],
    ["serve-sim", "--burst-multiplier", "-1"],
    ["serve-sim", "--burst-at-s", "-1"],
    ["serve-sim", "--burst-duration-s", "-10"],
    ["serve-sim", "--users", "-5"],
    ["serve-sim", "--requests-per-user-hour", "-1"],
    ["serve-sim", "--max-concurrent-apps", "-1"],
    ["serve-sim", "--max-submissions", "-1"],
])
def test_cli_rejects_out_of_range_periods_as_usage_errors(argv, capsys):
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("period", [0.0, -5.0])
def test_service_config_rejects_non_positive_sample_period(period):
    with pytest.raises(ValueError, match="sample_period_s"):
        ServiceConfig(sample_period_s=period)


@pytest.mark.parametrize("field", ["workers", "containers_per_node"])
@pytest.mark.parametrize("value", [0, -1])
def test_service_config_rejects_an_empty_cluster(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        ServiceConfig(**{field: value})


def test_cli_serve_sim_slo_gate_exit_code(capsys):
    from repro.cli import main

    assert main(SERVE_SMOKE_ARGS + ["--quiet", "--slo-p50-s", "0.001"]) == 1
    capsys.readouterr()


def test_cli_explain_submission_lists_a_truncated_journal(capsys, tmp_path):
    """A journal cut part-way through a submission lists it IN FLIGHT
    with '-' for the missing latency instead of crashing."""
    from repro.cli import main

    journal = tmp_path / "journal.jsonl"
    code = main([
        "serve-sim", "--arrival", "poisson", "--rate-per-h", "40",
        "--horizon-s", "1800", "--workers", "2",
        "--containers-per-node", "1", "--max-concurrent-apps", "1",
        "--admission-overflow", "reject", "--seed", "7", "--quiet",
        "--events-out", str(journal),
    ])
    assert code == 0
    lines = journal.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:100]))
    capsys.readouterr()
    trace = tmp_path / "spans.json"
    assert main(["explain-submission", str(cut),
                 "--trace-out", str(trace)]) == 0
    listing = capsys.readouterr().out
    in_flight = [row for row in listing.splitlines() if "IN FLIGHT" in row]
    assert in_flight, listing
    assert all(row.split("latency")[1].split()[0] == "-" for row in in_flight)
    records = json.loads(trace.read_text())["traceEvents"]
    assert any(r.get("args", {}).get("incomplete") for r in records)


def test_cli_serve_sim_users_and_tenant_profiles(capsys):
    from repro.cli import main

    code = main([
        "serve-sim", "--users", "40", "--requests-per-user-hour", "0.5",
        "--horizon-s", "1200", "--workers", "4",
        "--containers-per-node", "2", "--max-concurrent-apps", "2",
        "--seed", "3",
        "--tenant-profile", "genomics:2=snv:3,kmeans:1",
        "--tenant-profile", "astro=montage",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "genomics" in captured and "astro" in captured
    assert "analytics" not in captured  # defaults replaced, not merged


def test_cli_tenant_profile_parser():
    import argparse

    from repro.cli import _parse_tenant_profile

    profile = _parse_tenant_profile("genomics:2=snv:3,rnaseq:1")
    assert profile.name == "genomics"
    assert profile.weight == 2.0
    assert profile.mix == {"snv": 3.0, "rnaseq": 1.0}
    bare = _parse_tenant_profile("astro")
    assert bare.weight == 1.0 and set(bare.mix) == set(
        ("snv", "montage", "kmeans", "rnaseq")
    )
    with pytest.raises((argparse.ArgumentTypeError, ValueError)):
        _parse_tenant_profile("")
    with pytest.raises((argparse.ArgumentTypeError, ValueError)):
        _parse_tenant_profile("t=spark:1")
