"""Open-loop traffic harness: run the installation as a *service*.

The paper's experiments are batch runs; this package subjects one
long-lived Hi-WAY installation (one RM, one HDFS, one admission
controller) to a continuous stream of workflow submissions and grades
the outcome against service-level objectives:

* :mod:`repro.service.arrivals` — seeded Poisson / diurnal / burst
  arrival processes mapping a user population to submission times;
* :mod:`repro.service.traffic` — tenant profiles and workload mixes
  turning arrival times into concrete submissions;
* :mod:`repro.service.runner` — the long-lived installation driver;
* :mod:`repro.service.slo` — the report as one fold over the event
  stream: p50/p95/p99 latency, throughput, backlog and rejection-rate
  evaluation with a PASS/FAIL verdict.

Entry points: ``python -m repro serve-sim`` (CLI) and the ``openloop``
experiment (capacity planning: 2x traffic, more nodes, fifo vs fair vs
drf).
"""

from repro.service.arrivals import (
    ARRIVAL_NAMES,
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
    rate_from_users,
)
from repro.service.runner import ServiceConfig, ServiceRunner
from repro.service.slo import ServiceReport, SloTargets
from repro.service.traffic import (
    DEFAULT_TENANTS,
    WORKLOAD_KINDS,
    SubmissionSpec,
    TenantProfile,
    build_schedule,
)

__all__ = [
    "ARRIVAL_NAMES",
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "BurstArrivals",
    "make_arrivals",
    "rate_from_users",
    "ServiceConfig",
    "ServiceRunner",
    "ServiceReport",
    "SloTargets",
    "WORKLOAD_KINDS",
    "DEFAULT_TENANTS",
    "TenantProfile",
    "SubmissionSpec",
    "build_schedule",
]
