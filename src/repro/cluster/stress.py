"""Synthetic background load, mirroring the Linux ``stress`` tool.

Section 4.3 of the paper perturbs ten of eleven workers with ``stress``:
five machines get 1/4/16/64/256 CPU-bound hogs, five get the same counts
of disk writers. This module reproduces that setup with permanent flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.sim.flows import Flow

__all__ = ["StressProfile", "apply_stress", "paper_fig9_stress"]


@dataclass(frozen=True)
class StressProfile:
    """Per-node background load: counts of CPU hogs and disk writers.

    ``weight`` is the fair-share weight of each stress process relative
    to a container task. 1.0 is plain Linux CFS fairness; the Fig. 9
    profile uses a small weight to model YARN's cgroup ``cpu.shares``
    favouring containers over unprivileged background load (without
    which 256 hogs on a two-core VM would starve tasks ~130x, far
    beyond the perturbation the paper's runtimes exhibit).
    """

    cpu_hogs: dict[str, int] = field(default_factory=dict)
    io_writers: dict[str, int] = field(default_factory=dict)
    weight: float = 1.0


def apply_stress(cluster: Cluster, profile: StressProfile) -> list[Flow]:
    """Launch the permanent load flows described by ``profile``.

    Returns the created flows so callers can ``cancel()`` them later.
    """
    flows: list[Flow] = []
    # Each node's hogs are identical, so they collapse into one aggregate
    # flow per (node, kind) — exact under weighted max-min and the reason
    # the Fig. 9 cluster (682 stress processes) rebalances in O(tasks)
    # rather than O(stress processes).
    for node_id, count in profile.cpu_hogs.items():
        if count:
            flows.append(cluster.node(node_id).start_background_cpu(
                label=f"stress-c:{node_id}", weight=profile.weight, count=count,
            ))
    for node_id, count in profile.io_writers.items():
        if count:
            flows.append(cluster.node(node_id).start_background_io(
                label=f"stress-d:{node_id}", weight=profile.weight, count=count,
            ))
    return flows


#: Fair-share weight of one stress process vs a containerised task in
#: the Fig. 9 reproduction (see StressProfile docstring).
FIG9_STRESS_WEIGHT = 0.05


def paper_fig9_stress(worker_ids: list[str], weight: float = FIG9_STRESS_WEIGHT) -> StressProfile:
    """The exact Section 4.3 perturbation for an eleven-worker cluster.

    Worker 0 stays unperturbed; workers 1-5 receive 1, 4, 16, 64, 256
    CPU hogs; workers 6-10 receive 1, 4, 16, 64, 256 disk writers.
    """
    if len(worker_ids) != 11:
        raise ValueError("the Fig. 9 stress profile needs exactly 11 workers")
    counts = [1, 4, 16, 64, 256]
    cpu = {worker_ids[1 + i]: counts[i] for i in range(5)}
    io = {worker_ids[6 + i]: counts[i] for i in range(5)}
    return StressProfile(cpu_hogs=cpu, io_writers=io, weight=weight)
