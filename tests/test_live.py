"""Tests for the streaming SLO monitor (windows, burn rates, stragglers)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.events import (
    SubmissionFinished,
    TaskAttemptFinished,
    WorkflowSubmitted,
)
from repro.obs.live import Alert, BurnRateRule, LiveMonitor, StragglerAlert
from repro.stats import percentile
from repro.workflow.model import TaskSpec


def _submit(handlers, name, t, tenant="t"):
    event = WorkflowSubmitted(name=name, tenant=tenant, workload="w")
    event.t = t
    handlers[type(event)](event)


def _finish(handlers, name, t, success=True, rejected=False, tenant="t"):
    event = SubmissionFinished(name=name, tenant=tenant, workload="w",
                               success=success, rejected=rejected)
    event.t = t
    handlers[type(event)](event)


def _attempt(handlers, task_id, tool, t, makespan, success=True):
    event = TaskAttemptFinished(
        workflow_id="wf", node_id="worker-0", success=success,
        makespan_seconds=makespan,
        task=TaskSpec(tool=tool, inputs=[], outputs=[], task_id=task_id),
    )
    event.t = t
    handlers[type(event)](event)


def _monitored(window_s=300.0, **kwargs):
    monitor = LiveMonitor(window_s=window_s, **kwargs)
    return monitor, monitor.handlers()


# -- windowed percentiles vs the offline reference ----------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5000.0),   # submit time
            st.floats(min_value=0.1, max_value=2000.0),   # latency
        ),
        min_size=1, max_size=60,
    ),
    st.floats(min_value=10.0, max_value=1000.0),          # window width
)
def test_streaming_windows_match_offline_recomputation(jobs, window_s):
    """Streaming aggregation == grouping the full journal offline.

    The offline reference buckets every finished submission by
    ``floor(finish_t / window_s)`` and computes percentiles over the
    full lists — the streaming monitor must agree exactly, since both
    use :func:`repro.stats.percentile`.
    """
    monitor, handlers = _monitored(window_s=window_s)
    finishes = []
    for index, (submit_t, latency) in enumerate(jobs):
        finishes.append((submit_t + latency, f"job-{index}", submit_t))
    for index, (submit_t, _) in enumerate(jobs):
        _submit(handlers, f"job-{index}", submit_t)
    for finish_t, name, _ in sorted(finishes):
        _finish(handlers, name, finish_t)
    monitor.close()

    offline: dict[int, list[float]] = {}
    for finish_t, _, submit_t in finishes:
        offline.setdefault(int(finish_t // window_s), []).append(
            finish_t - submit_t
        )
    streamed = {w.index: w for w in monitor.windows if w.finished}
    assert set(streamed) == set(offline)
    for index, latencies in offline.items():
        window = streamed[index]
        assert window.completed == len(latencies)
        assert sorted(window.latencies) == pytest.approx(sorted(latencies))
        for q in (50, 95, 99):
            assert window.latency_percentile(q) == pytest.approx(
                percentile(latencies, q)
            )


def test_windows_are_tumbling_and_sparse():
    monitor, handlers = _monitored(window_s=100.0)
    _submit(handlers, "a", 10.0)
    _finish(handlers, "a", 50.0)
    _submit(handlers, "b", 20.0)
    _finish(handlers, "b", 950.0)  # long gap: windows 1..8 never materialise
    monitor.close()
    assert [w.index for w in monitor.windows] == [0, 9]
    assert monitor.windows[0].start == 0.0
    assert monitor.windows[0].end == 100.0
    assert monitor.windows[1].start == 900.0


def test_epoch_shifts_the_window_grid():
    monitor, handlers = _monitored(window_s=100.0, epoch=1000.0)
    _submit(handlers, "a", 1010.0)
    _finish(handlers, "a", 1050.0)
    monitor.close()
    assert [w.index for w in monitor.windows] == [0]
    assert monitor.windows[0].latencies == [40.0]


# -- burn-rate alerting -------------------------------------------------------


def _burn_monitor():
    rule = BurnRateRule("test", long_window_s=1000.0, short_window_s=100.0,
                        threshold=10.0, budget=0.01)
    return _monitored(window_s=100.0, rules=(rule,))


def test_burn_rate_alert_fires_once_and_resets():
    monitor, handlers = _burn_monitor()
    # 20 good submissions, then a solid run of failures: burn hits 100x.
    for index in range(20):
        t = index * 10.0
        _submit(handlers, f"ok-{index}", t)
        _finish(handlers, f"ok-{index}", t + 1.0)
    assert monitor.alerts == []
    for index in range(20):
        t = 200.0 + index * 10.0
        _submit(handlers, f"bad-{index}", t)
        _finish(handlers, f"bad-{index}", t + 1.0, success=False)
    assert len(monitor.alerts) == 1  # deduplicated while it keeps firing
    alert = monitor.alerts[0]
    assert isinstance(alert, Alert) and alert.rule == "test"
    assert alert.burn_short >= 10.0
    assert monitor.active_alerts() == ["test"]
    # A long stretch of good traffic clears the rule...
    for index in range(60):
        t = 500.0 + index * 20.0
        _submit(handlers, f"heal-{index}", t)
        _finish(handlers, f"heal-{index}", t + 1.0)
    assert monitor.active_alerts() == []
    # ...and a second incident raises a second alert.
    for index in range(30):
        t = 2000.0 + index * 10.0
        _submit(handlers, f"again-{index}", t)
        _finish(handlers, f"again-{index}", t + 1.0, success=False)
    assert len(monitor.alerts) == 2


def test_short_window_alone_does_not_fire():
    monitor, handlers = _burn_monitor()
    # One bad submission in otherwise good traffic: the short window
    # spikes but the long window stays calm -> no alert.
    for index in range(100):
        t = index * 10.0
        _submit(handlers, f"j-{index}", t)
        _finish(handlers, f"j-{index}", t + 1.0, success=(index != 99))
    assert monitor.alerts == []


def test_rejections_and_latency_breaches_count_as_bad():
    from repro.service import SloTargets

    rule = BurnRateRule("test", 1000.0, 100.0, threshold=1.0, budget=0.5)
    monitor, handlers = _monitored(window_s=100.0, rules=(rule,),
                              targets=SloTargets(p99_s=50.0))
    _submit(handlers, "slow", 0.0)
    _finish(handlers, "slow", 500.0)   # 500s latency > 50s target -> bad
    _submit(handlers, "rej", 510.0)
    _finish(handlers, "rej", 511.0, success=False, rejected=True)
    assert monitor.alerts  # every submission bad, burn = 1/0.5 = 2x
    window = monitor.all_windows()[-1]
    assert window.rejected == 1


# -- straggler detection ------------------------------------------------------


def test_straggler_flagged_against_running_median_of_same_tool():
    monitor, handlers = _monitored(straggler_factor=3.0, straggler_min_samples=3)
    for index in range(4):
        _attempt(handlers, f"t{index}", "bwa", t=100.0 + index, makespan=10.0)
    assert monitor.stragglers == []
    _attempt(handlers, "t-slow", "bwa", t=200.0, makespan=31.0)  # > 3 x 10s
    assert len(monitor.stragglers) == 1
    straggler = monitor.stragglers[0]
    assert isinstance(straggler, StragglerAlert)
    assert straggler.tool == "bwa" and straggler.median_s == 10.0
    assert straggler.ratio == pytest.approx(3.1)
    # Another tool with its own (slower) median is not flagged.
    for index in range(4):
        _attempt(handlers, f"m{index}", "mAdd", t=300.0 + index, makespan=40.0)
    assert len(monitor.stragglers) == 1


def test_straggler_needs_min_samples_and_ignores_failures():
    monitor, handlers = _monitored(straggler_min_samples=3)
    _attempt(handlers, "a", "bwa", t=1.0, makespan=1.0)
    _attempt(handlers, "b", "bwa", t=2.0, makespan=1.0)
    _attempt(handlers, "huge", "bwa", t=3.0, makespan=500.0)  # only 2 priors
    assert monitor.stragglers == []
    _attempt(handlers, "fail", "bwa", t=4.0, makespan=900.0, success=False)
    assert monitor.stragglers == []


# -- snapshot / summary -------------------------------------------------------


def test_snapshot_and_summary_render():
    monitor, handlers = _monitored(window_s=100.0)
    _submit(handlers, "a", 10.0)
    _finish(handlers, "a", 60.0)
    text = monitor.snapshot(now=90.0)
    assert "fin 1" in text and "in flight 0" in text
    summary = monitor.summary()
    assert "finished  : 1" in summary


def test_monitor_rejects_non_positive_window():
    with pytest.raises(ValueError):
        LiveMonitor(window_s=0.0)
