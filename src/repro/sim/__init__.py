"""Discrete-event simulation kernel and flow-level resource model."""

from repro.sim.engine import (
    AllOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.flows import SOLVER_VERSION, Flow, FlowNetwork, Resource
from repro.sim.metrics import MetricRecorder

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Flow",
    "FlowNetwork",
    "Resource",
    "MetricRecorder",
    "SOLVER_VERSION",
]
