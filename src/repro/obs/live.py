"""Streaming service telemetry: rolling windows, burn rates, stragglers.

The end-of-run :class:`~repro.service.slo.ServiceReport` answers "did we
meet the SLO"; this module answers "are we meeting it *right now*". A
:class:`LiveMonitor`'s handler table is subscribed to the observability
bus (or fed the decoded events of a journal) and maintains three things
incrementally:

* **Tumbling windows** — per fixed ``window_s`` bucket of event time,
  the finished-submission latencies and their p50/p95/p99, throughput
  and rejection rate. Percentiles use the same
  :func:`~repro.stats.percentile` as the offline reports,
  so a streaming window and an offline recomputation over the same
  journal agree exactly (property-tested in ``tests/test_live.py``).
* **Multi-window burn-rate alerts** — the SRE-style rule: with an SLO
  goal of ``1 - budget`` good submissions, the burn rate over a
  trailing window is ``bad_fraction / budget``; a rule fires when
  *both* its long and its short window burn above the threshold (the
  long window for significance, the short one so the alert resets
  quickly once the problem stops). A submission is *bad* when it was
  rejected, failed, or exceeded the p99 latency target.
* **A straggler detector** — a successful attempt whose duration
  exceeds ``straggler_factor`` x the running median of completed
  attempts of the same tool (given at least ``straggler_min_samples``
  priors) is flagged, the speculation signal of Sec. 3.1 without the
  re-execution.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.stats import percentile
from repro.obs import events as ev

__all__ = [
    "BurnRateRule",
    "DEFAULT_RULES",
    "WindowStats",
    "Alert",
    "StragglerAlert",
    "LiveMonitor",
]


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule.

    ``budget`` is the error budget fraction (an SLO goal of 99% good
    submissions leaves a budget of 0.01); the burn rate of a trailing
    window is its bad fraction divided by the budget, i.e. 1.0 means
    "spending the budget exactly as fast as allowed".
    """

    name: str
    long_window_s: float
    short_window_s: float
    threshold: float
    budget: float = 0.01


#: The classic SRE pairing: a fast burn (1 h / 5 m at 14.4x — the
#: monthly budget gone in ~2 days) and a slow burn (6 h / 30 m at 6x).
DEFAULT_RULES = (
    BurnRateRule("fast-burn", 3600.0, 300.0, 14.4),
    BurnRateRule("slow-burn", 21600.0, 1800.0, 6.0),
)


@dataclass
class WindowStats:
    """Aggregates of one tumbling window of event time.

    ``start``/``end`` are relative to the monitor's epoch. Only windows
    that saw at least one event materialise.
    """

    index: int
    start: float
    end: float
    arrivals: int = 0
    finished: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    #: End-to-end latencies of completed submissions finishing in this
    #: window (submission time may lie in an earlier window).
    latencies: list[float] = field(default_factory=list)

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def throughput_per_h(self) -> float:
        width = self.end - self.start
        return self.completed * 3600.0 / width if width > 0 else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.finished if self.finished else 0.0

    def line(self) -> str:
        """One fixed-width summary line (slo-watch output)."""
        return (
            f"[{self.start:>8.0f}s..{self.end:>8.0f}s] "
            f"fin {self.finished:>4} ok {self.completed:>4} "
            f"rej {self.rejected:>3} fail {self.failed:>3} | "
            f"p50 {self.latency_percentile(50):>8.1f}s "
            f"p95 {self.latency_percentile(95):>8.1f}s "
            f"p99 {self.latency_percentile(99):>8.1f}s | "
            f"{self.throughput_per_h:>6.1f}/h"
        )


@dataclass(frozen=True)
class Alert:
    """A burn-rate rule started firing at ``t`` (relative seconds)."""

    t: float
    rule: str
    burn_long: float
    burn_short: float

    def line(self) -> str:
        return (
            f"[{self.t:>8.0f}s] ALERT {self.rule}: "
            f"burn {self.burn_long:.1f}x over long window, "
            f"{self.burn_short:.1f}x over short window"
        )


@dataclass(frozen=True)
class StragglerAlert:
    """A successful attempt ran far beyond its tool's running median."""

    t: float
    workflow_id: str
    task_id: str
    tool: str
    node_id: str
    duration_s: float
    median_s: float

    @property
    def ratio(self) -> float:
        return self.duration_s / self.median_s if self.median_s else 0.0

    def line(self) -> str:
        return (
            f"[{self.t:>8.0f}s] STRAGGLER {self.task_id} ({self.tool}) "
            f"on {self.node_id}: {self.duration_s:.1f}s = "
            f"{self.ratio:.1f}x the {self.median_s:.1f}s median"
        )


class LiveMonitor:
    """Incremental service-health view over the event stream."""

    def __init__(
        self,
        window_s: float = 300.0,
        targets=None,
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
        straggler_factor: float = 3.0,
        straggler_min_samples: int = 3,
        epoch: float = 0.0,
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        #: Optional :class:`~repro.service.slo.SloTargets`; only
        #: ``p99_s`` participates (it defines a *bad* submission).
        self.targets = targets
        self.rules = tuple(rules)
        self.straggler_factor = straggler_factor
        self.straggler_min_samples = straggler_min_samples
        #: Absolute simulated time the relative clocks count from.
        self.epoch = epoch
        #: Closed tumbling windows, in order; :meth:`close` flushes the
        #: last open one.
        self.windows: list[WindowStats] = []
        self.alerts: list[Alert] = []
        self.stragglers: list[StragglerAlert] = []
        self._current: Optional[WindowStats] = None
        self._submitted: dict[str, float] = {}
        self._finished_total = 0
        #: Trailing (rel_t, bad) pairs for burn-rate evaluation,
        #: trimmed to the longest rule window.
        self._trail: deque[tuple[float, bool]] = deque()
        self._retention = max(
            [rule.long_window_s for rule in self.rules] or [0.0]
        )
        self._active_rules: set[str] = set()
        self._tool_durations: dict[str, list[float]] = {}

    def handlers(self) -> dict:
        """Handler table of the three event types the monitor consumes."""
        return {
            ev.WorkflowSubmitted: self.on_submitted,
            ev.SubmissionFinished: self.on_finished,
            ev.TaskAttemptFinished: self.on_attempt,
        }

    # -- window bookkeeping -----------------------------------------------------

    def _window_for(self, rel_t: float) -> WindowStats:
        index = int(rel_t // self.window_s)
        current = self._current
        if current is not None and current.index == index:
            return current
        if current is not None and index > current.index:
            self.windows.append(current)
        self._current = WindowStats(
            index=index,
            start=index * self.window_s,
            end=(index + 1) * self.window_s,
        )
        return self._current

    def close(self) -> None:
        """Flush the open window (end of run / end of journal)."""
        if self._current is not None:
            self.windows.append(self._current)
            self._current = None

    def all_windows(self) -> list[WindowStats]:
        """Closed windows plus the open one, without flushing."""
        if self._current is not None:
            return self.windows + [self._current]
        return list(self.windows)

    # -- event handlers ---------------------------------------------------------

    def on_submitted(self, event: ev.WorkflowSubmitted) -> None:
        rel_t = event.t - self.epoch
        self._submitted[event.name] = event.t
        self._window_for(rel_t).arrivals += 1

    def on_finished(self, event: ev.SubmissionFinished) -> None:
        rel_t = event.t - self.epoch
        window = self._window_for(rel_t)
        window.finished += 1
        self._finished_total += 1
        latency: Optional[float] = None
        submitted = self._submitted.get(event.name)
        if submitted is not None:
            latency = event.t - submitted
        if event.rejected:
            window.rejected += 1
        else:
            window.completed += 1
            if not event.success:
                window.failed += 1
            if latency is not None:
                window.latencies.append(latency)
        bad = event.rejected or not event.success or (
            self.targets is not None
            and getattr(self.targets, "p99_s", None) is not None
            and latency is not None
            and latency > self.targets.p99_s
        )
        self._trail.append((rel_t, bad))
        while self._trail and self._trail[0][0] < rel_t - self._retention:
            self._trail.popleft()
        self._evaluate_rules(rel_t)

    def on_attempt(self, event: ev.TaskAttemptFinished) -> None:
        if not event.success or event.task is None:
            return
        durations = self._tool_durations.setdefault(event.task.tool, [])
        if len(durations) >= self.straggler_min_samples:
            median = percentile(durations, 50)
            if median > 0 and event.makespan_seconds > self.straggler_factor * median:
                self.stragglers.append(StragglerAlert(
                    t=event.t - self.epoch,
                    workflow_id=event.workflow_id,
                    task_id=event.task.task_id,
                    tool=event.task.tool,
                    node_id=event.node_id,
                    duration_s=event.makespan_seconds,
                    median_s=median,
                ))
        bisect.insort(durations, event.makespan_seconds)

    # -- burn rates -------------------------------------------------------------

    def _bad_fraction(self, now: float, window_s: float) -> float:
        total = bad = 0
        for t, is_bad in reversed(self._trail):
            if t <= now - window_s:
                break
            total += 1
            bad += is_bad
        return bad / total if total else 0.0

    def burn_rate(self, now: float, window_s: float, budget: float = 0.01) -> float:
        """Error-budget burn over the trailing ``window_s`` at ``now``."""
        return self._bad_fraction(now, window_s) / budget if budget else 0.0

    def _evaluate_rules(self, now: float) -> None:
        for rule in self.rules:
            burn_long = self.burn_rate(now, rule.long_window_s, rule.budget)
            burn_short = self.burn_rate(now, rule.short_window_s, rule.budget)
            firing = (
                burn_long >= rule.threshold and burn_short >= rule.threshold
            )
            if firing and rule.name not in self._active_rules:
                self._active_rules.add(rule.name)
                self.alerts.append(Alert(
                    t=now, rule=rule.name,
                    burn_long=burn_long, burn_short=burn_short,
                ))
            elif not firing:
                self._active_rules.discard(rule.name)

    def active_alerts(self) -> list[str]:
        """Names of rules currently firing, sorted."""
        return sorted(self._active_rules)

    # -- snapshot ---------------------------------------------------------------

    def in_flight(self) -> int:
        return len(self._submitted) - self._finished_total

    def snapshot(self, now: float) -> str:
        """The operator's one-glance view at relative time ``now``.

        Rolling (not tumbling) stats over the trailing ``window_s``:
        what finished recently, current percentiles, backlog, firing
        alerts and the straggler count so far.
        """
        cutoff = now - self.window_s
        finished = completed = rejected = 0
        latencies: list[float] = []
        for window in self.all_windows():
            if window.end <= cutoff:
                continue
            # Tumbling windows are coarser than the rolling cutoff; for
            # the snapshot the window granularity is accurate enough
            # and keeps the monitor O(windows) instead of O(events).
            finished += window.finished
            completed += window.completed
            rejected += window.rejected
            latencies.extend(window.latencies)
        lines = [
            (
                f"[t={now:>8.0f}s] last {self.window_s:.0f}s: "
                f"fin {finished} ok {completed} rej {rejected} | "
                f"p50 {percentile(latencies, 50):>7.1f}s "
                f"p95 {percentile(latencies, 95):>7.1f}s "
                f"p99 {percentile(latencies, 99):>7.1f}s | "
                f"in flight {self.in_flight()}"
            )
        ]
        for name in self.active_alerts():
            lines.append(f"  ALERT firing: {name}")
        if self.stragglers:
            lines.append(f"  stragglers so far: {len(self.stragglers)}")
        return "\n".join(lines)

    def summary(self) -> str:
        """End-of-stream digest (slo-watch footer)."""
        windows = self.all_windows()
        lines = [
            f"windows   : {len(windows)} x {self.window_s:.0f}s",
            f"finished  : {self._finished_total} "
            f"(alerts {len(self.alerts)}, stragglers {len(self.stragglers)})",
        ]
        for alert in self.alerts:
            lines.append("  " + alert.line())
        for straggler in self.stragglers:
            lines.append("  " + straggler.line())
        return "\n".join(lines)
