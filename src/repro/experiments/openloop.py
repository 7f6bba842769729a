"""Open-loop capacity planning: what happens when traffic doubles?

Not a figure from the paper — a service-era question asked *of* the
paper's system: a Hi-WAY installation serving a steady workflow stream
meets 2x traffic. Does the p99 end-to-end latency survive, and what
helps more — switching the RM allocation policy (fifo -> fair/drf) or
adding nodes?

Every cell plays the same seeded arrival schedule through
:class:`~repro.service.ServiceRunner` (one long-lived RM + admission
controller), so the comparison isolates the knob under study. The
committed reference output lives in ``results/openloop.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.common import ExperimentTable
from repro.perf import run_grid

__all__ = ["OpenLoopConfig", "run_openloop"]


@dataclass(frozen=True)
class OpenLoopConfig:
    """Parameters of the open-loop what-if grid."""

    workers: int = 6
    #: Workers in the "add capacity" scenario.
    scaled_workers: int = 12
    #: Two containers per node keeps the cluster container-bound at 2x
    #: traffic — the regime where the RM allocation policy decides who
    #: waits (an uncontended cluster makes every policy look identical).
    containers_per_node: int = 2
    max_concurrent_apps: int = 8
    #: Baseline mean arrival rate (workflows per hour).
    rate_per_h: float = 36.0
    #: The what-if traffic multiplier (>= 2 per the service question).
    traffic_multiplier: float = 2.0
    horizon_s: float = 3600.0
    policies: tuple[str, ...] = ("fifo", "fair", "drf")
    #: Wider-than-default workloads (4-sample SNV, 0.5-degree mosaics,
    #: 8-partition k-means) so single workflows can hog the container
    #: pool — the contention fair/drf exist to arbitrate.
    snv_samples: int = 4
    montage_degree: float = 0.5
    kmeans_partitions: int = 8
    seed: int = 42

    @classmethod
    def quick(cls) -> "OpenLoopConfig":
        """A smoke-sized variant preserving the grid's shape."""
        return cls(
            workers=4,
            scaled_workers=8,
            max_concurrent_apps=4,
            rate_per_h=24.0,
            horizon_s=1800.0,
            snv_samples=2,
            montage_degree=0.25,
            kmeans_partitions=4,
        )


def _openloop_unit(
    config: OpenLoopConfig, multiplier: float, workers: int, policy: str
) -> tuple[int, int, int, float, float, float, float]:
    """One grid cell (picklable for the process-pool runner).

    Returns ``(submitted, completed, rejected, p50, p95, p99,
    backlog_max)`` for one full service run.
    """
    # Imported here, not at module scope: repro.service pulls in
    # repro.experiments.common, so a top-level import would be circular.
    from repro.service import ServiceConfig, ServiceRunner, make_arrivals

    runner = ServiceRunner(ServiceConfig(
        workers=workers,
        containers_per_node=config.containers_per_node,
        rm_policy=policy,
        max_concurrent_apps=config.max_concurrent_apps,
        snv_samples=config.snv_samples,
        montage_degree=config.montage_degree,
        kmeans_partitions=config.kmeans_partitions,
        seed=config.seed,
    ))
    report = runner.run(
        make_arrivals(
            "poisson",
            config.rate_per_h * multiplier / 3600.0,
            seed=config.seed,
        ),
        horizon_s=config.horizon_s,
    )
    return (
        report.submitted,
        len(report.completed),
        len(report.rejected),
        report.latency_percentile(50),
        report.latency_percentile(95),
        report.latency_percentile(99),
        max((value for _, value in report.backlog), default=0.0),
    )


def run_openloop(
    config: OpenLoopConfig | None = None,
    quick: bool = False,
    jobs: int | None = 1,
    policies: tuple[str, ...] | None = None,
) -> ExperimentTable:
    """The traffic-doubling what-if grid, one service run per row.

    Rows: the 1x baseline (fair), then 2x traffic under every RM
    policy on the same cluster, then 2x traffic on the scaled-out
    cluster (fair) — i.e. "policy change vs capacity add" side by side.
    """
    if config is None:
        config = OpenLoopConfig.quick() if quick else OpenLoopConfig()
    if policies is not None:
        config = replace(config, policies=tuple(policies))
    m = config.traffic_multiplier
    cells = [("baseline 1x", 1.0, config.workers, "fair")]
    cells += [
        (f"traffic {m:g}x", m, config.workers, policy)
        for policy in config.policies
    ]
    cells.append((
        f"{m:g}x + nodes", m, config.scaled_workers, "fair"
    ))
    table = ExperimentTable(
        experiment_id="openloop",
        title="Open-loop service under 2x traffic: policy change vs capacity add",
        columns=[
            "scenario", "workers", "policy",
            "submitted", "done", "rejected",
            "p50_s", "p95_s", "p99_s",
            "backlog_max",
        ],
        notes=(
            f"poisson arrivals at {config.rate_per_h:g}/h baseline over "
            f"{config.horizon_s:.0f} s, admission cap "
            f"{config.max_concurrent_apps} (queue), seed {config.seed}; "
            f"p50/p95/p99 are end-to-end latency"
        ),
    )
    params = [
        (config, multiplier, workers, policy)
        for _, multiplier, workers, policy in cells
    ]
    results = iter(run_grid(_openloop_unit, params, jobs=jobs))
    for (scenario, _, workers, policy), result in zip(cells, results):
        submitted, done, rejected, p50, p95, p99, backlog_max = result
        table.add_row(
            scenario, workers, policy,
            submitted, done, rejected,
            p50, p95, p99,
            backlog_max,
        )
    return table
