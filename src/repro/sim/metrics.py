"""Utilisation accounting for simulated resources.

The paper instruments its EC2 machines with ``uptime`` (CPU load),
``iostat`` (I/O utilisation) and ``ifstat`` (network throughput) to produce
Figure 6. In the simulation we can do better than sampling: rates are
piecewise constant between flow events, so integrating usage over time is
exact. The recorder keeps, per resource, the running integral of usage and
an optional step series for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs import events as obs_events
from repro.obs.registry import MetricsRegistry
from repro.sim.flows import FlowNetwork, Resource

__all__ = ["ResourceUsage", "MetricRecorder"]


@dataclass
class ResourceUsage:
    """Accumulated usage of one resource."""

    name: str
    kind: str
    capacity: float
    #: Integral of the usage rate over time (e.g. core-seconds, bytes).
    integral: float = 0.0
    #: Peak instantaneous usage rate observed.
    peak: float = 0.0
    #: Step series of (time, rate) points, recorded when enabled.
    series: list[tuple[float, float]] = field(default_factory=list)
    #: Rate in effect since :attr:`last_time`; the pending (not yet
    #: integrated) segment of the integral.
    last_rate: float = 0.0
    #: Simulated time up to which :attr:`integral` is settled.
    last_time: float = 0.0

    def average(self, duration: float) -> float:
        """Mean usage rate over ``duration`` seconds."""
        return self.integral / duration if duration > 0 else 0.0

    def average_utilization(self, duration: float) -> float:
        """Mean usage as a fraction of capacity over ``duration``."""
        return self.average(duration) / self.capacity


class MetricRecorder:
    """Integrates resource usage over simulated time.

    Attach with :meth:`FlowNetwork.set_recorder`; the network calls
    :meth:`observe` with just the resources it refreshed on every rate
    change, so recording cost tracks the size of the dirty region rather
    than the whole cluster. Each :class:`ResourceUsage` carries its own
    settle clock (``last_rate``/``last_time``): rates are piecewise
    constant between a resource's own refreshes, so integrating each
    resource lazily over its own segments is still exact.
    """

    def __init__(self, network: FlowNetwork, keep_series: bool = False):
        self._network = network
        self._keep_series = keep_series
        self._last_time = network.env.now
        self.usages: dict[str, ResourceUsage] = {}
        self.started_at = network.env.now
        #: Typed event aggregations (counters/gauges/histograms), fed
        #: once whoever builds the installation subscribes
        #: ``registry.handlers()`` to the observability bus.
        self.registry = MetricsRegistry()
        network.set_recorder(self)
        self.snapshot(network.env.now)

    def _usage_for(self, resource: Resource) -> ResourceUsage:
        usage = self.usages.get(resource.name)
        if usage is None:
            usage = ResourceUsage(resource.name, resource.kind, resource.capacity)
            usage.last_time = self._last_time
            self.usages[resource.name] = usage
        return usage

    def _observe_one(self, resource: Resource, now: float) -> None:
        usage = self._usage_for(resource)
        elapsed = now - usage.last_time
        if elapsed > 0 and usage.last_rate:
            usage.integral += usage.last_rate * elapsed
        usage.last_time = now
        rate = resource.cached_usage
        if rate > usage.peak:
            usage.peak = rate
        usage.last_rate = rate
        if self._keep_series:
            series = usage.series
            if not series or series[-1][1] != rate:
                series.append((now, rate))

    def observe(self, now: float, resources: Iterable[Resource]) -> None:
        """Record a rate change limited to the refreshed ``resources``.

        Called by the network at the end of each rebalance with exactly
        the resources it touched; everything else keeps accruing at its
        previous (still current) rate.
        """
        for resource in resources:
            self._observe_one(resource, now)
        if now > self._last_time:
            self._last_time = now

    def snapshot(self, now: float) -> None:
        """Settle every resource's integral up to ``now``."""
        # One flush up front, then read the refreshed caches directly.
        self._network.flush()
        for resource in self._network.resources.values():
            self._observe_one(resource, now)
        if now > self._last_time:
            self._last_time = now

    def finish(self, now: Optional[float] = None) -> None:
        """Settle integrals up to ``now`` (defaults to the current clock).

        Also closes every step series with a ``(now, rate)`` sample:
        :meth:`snapshot` only appends on rate *changes*, so without this
        a rate that stayed constant until run end would leave the series
        ending before the run does, silently truncating the final
        plateau from any plot drawn from it.
        """
        now = self._network.env.now if now is None else now
        self.snapshot(now)
        if self._keep_series:
            for usage in self.usages.values():
                series = usage.series
                if series and series[-1][0] != now:
                    series.append((now, series[-1][1]))

    # -- observability bus ------------------------------------------------------

    def handlers(self) -> dict:
        """Handler table finishing the recorder when a workflow completes,
        so step series are closed without the caller having to remember
        :meth:`finish`. Subscribed after :attr:`registry`'s table."""
        return {obs_events.WorkflowFinished: lambda event: self.finish()}

    # -- report helpers ----------------------------------------------------

    def duration(self) -> float:
        """Seconds covered by this recorder so far."""
        return self._last_time - self.started_at

    def average_rate(self, name: str) -> float:
        """Mean usage rate of resource ``name`` over the recorded window."""
        usage = self.usages.get(name)
        if usage is None:
            return 0.0
        return usage.average(self.duration())

    def average_utilization(self, name: str) -> float:
        """Mean utilisation (0..1) of resource ``name``."""
        usage = self.usages.get(name)
        if usage is None:
            return 0.0
        return usage.average_utilization(self.duration())

    def aggregate(self, kind: str, prefix: str = "") -> dict[str, float]:
        """Summarise all resources of ``kind`` whose names share ``prefix``.

        Returns mean rate, mean utilisation and peak rate averaged across
        the matching resources — the quantities plotted in Figure 6.
        """
        matching = [
            usage
            for usage in self.usages.values()
            if usage.kind == kind and usage.name.startswith(prefix)
        ]
        duration = self.duration()
        if not matching or duration <= 0:
            return {"mean_rate": 0.0, "mean_utilization": 0.0, "peak_rate": 0.0}
        mean_rate = sum(u.average(duration) for u in matching) / len(matching)
        mean_util = sum(u.average_utilization(duration) for u in matching) / len(
            matching
        )
        peak = max(u.peak for u in matching)
        return {
            "mean_rate": mean_rate,
            "mean_utilization": mean_util,
            "peak_rate": peak,
        }
