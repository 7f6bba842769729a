"""Utilisation accounting for simulated resources.

The paper instruments its EC2 machines with ``uptime`` (CPU load),
``iostat`` (I/O utilisation) and ``ifstat`` (network throughput) to produce
Figure 6. In the simulation we can do better than sampling: a flow crosses
each of its resources at one rate, so the integral of a resource's usage
over time is exactly the work done by the flows that crossed it. The
recorder banks each flow's work when the flow ends and adds the progress
of the flows still running when read, so a rebalance does no utilisation
bookkeeping.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.sim.flows import Flow, FlowNetwork, Resource

__all__ = ["MetricRecorder"]


class MetricRecorder:
    """Integrates resource usage over simulated time.

    Attach with :meth:`FlowNetwork.set_recorder`; the network calls
    :meth:`observe` with every flow it drops, finished or cancelled.
    Reads are exact at any instant and, like :attr:`Flow.work`, never
    touch the network's state.
    """

    def __init__(self, network: FlowNetwork):
        self._network = network
        #: Work banked per resource by the flows that ended.
        self._work: dict[Resource, float] = {}
        self.started_at = network.env.now
        #: Typed event aggregations (counters/gauges/histograms), fed
        #: once whoever builds the installation subscribes
        #: ``registry.handlers()`` to the observability bus.
        self.registry = MetricsRegistry()
        network.set_recorder(self)

    def observe(self, flow: Flow) -> None:
        """Credit an ending ``flow``'s work to every resource it crossed."""
        work = flow.work
        banked = self._work
        for resource in flow.resources:
            banked[resource] = banked.get(resource, 0.0) + work

    # -- report helpers ----------------------------------------------------

    def duration(self) -> float:
        """Seconds covered by this recorder so far."""
        return self._network.env.now - self.started_at

    def integral(self, name: str) -> float:
        """Usage of resource ``name`` integrated up to now (e.g.
        core-seconds or MB); zero for an unknown resource."""
        resource = self._network.resources.get(name)
        if resource is None:
            return 0.0
        total = self._work.get(resource, 0.0)
        for flow in resource.flows:
            total += flow.work
        return total

    def average_rate(self, name: str) -> float:
        """Mean usage rate of resource ``name`` over the recorded window."""
        duration = self.duration()
        return self.integral(name) / duration if duration > 0 else 0.0

    def average_utilization(self, name: str) -> float:
        """Mean utilisation (0..1) of resource ``name``."""
        resource = self._network.resources.get(name)
        if resource is None:
            return 0.0
        return self.average_rate(name) / resource.capacity
