"""Discrete-event simulation kernel and flow-level resource model."""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    ScheduledCall,
    Timeout,
)
from repro.sim.flows import SOLVER_VERSION, Flow, FlowNetwork, Resource
from repro.sim.metrics import MetricRecorder, ResourceUsage

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "ScheduledCall",
    "Timeout",
    "Flow",
    "FlowNetwork",
    "Resource",
    "MetricRecorder",
    "ResourceUsage",
    "SOLVER_VERSION",
]
