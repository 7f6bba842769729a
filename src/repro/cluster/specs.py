"""Hardware profiles for the machines used in the paper's experiments.

Units used throughout the package:

* data sizes and bandwidths: **MB** and **MB/s**;
* compute work: **core-seconds at reference speed 1.0** (a node with
  ``speed=1.25`` finishes the same work 25 % faster per core);
* memory: **MB**;
* money: US dollars.

The concrete profiles below correspond to the three machine types in the
paper (Sec. 4): the local cluster's dual Xeon E5-2620 boxes, EC2 m3.large
and EC2 c3.2xlarge. Bandwidth figures are era-appropriate estimates; the
experiments only depend on their relative magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "NodeSpec",
    "ClusterSpec",
    "M3_LARGE",
    "C3_2XLARGE",
    "XEON_E5_2620",
    "GIGABIT_MB_S",
]

#: One gigabit per second expressed in MB/s.
GIGABIT_MB_S = 125.0


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one machine type."""

    name: str
    #: Number of (virtual) cores exposed to the scheduler.
    cores: int
    #: Relative per-core speed (1.0 = reference core).
    speed: float
    #: Usable main memory in MB.
    memory_mb: float
    #: Local disk bandwidth in MB/s (SSD for the EC2 types).
    disk_mb_s: float
    #: Network link bandwidth in MB/s.
    link_mb_s: float
    #: On-demand price in dollars per hour (0 for owned hardware).
    cost_per_hour: float = 0.0

    def scaled(self, speed: float) -> "NodeSpec":
        """A copy of this spec with a different per-core speed."""
        return replace(self, speed=speed)


#: EC2 m3.large: 2 vCPU, 7.5 GB RAM, 32 GB SSD (Sec. 4.1, 4.3).
M3_LARGE = NodeSpec(
    name="m3.large",
    cores=2,
    speed=1.0,
    memory_mb=7_680.0,
    disk_mb_s=150.0,
    link_mb_s=GIGABIT_MB_S,
    cost_per_hour=0.146,
)

#: EC2 c3.2xlarge: 8 vCPU, 15 GB RAM, 2x80 GB SSD (Sec. 4.2).
C3_2XLARGE = NodeSpec(
    name="c3.2xlarge",
    cores=8,
    speed=1.1,
    memory_mb=15_360.0,
    disk_mb_s=250.0,
    link_mb_s=GIGABIT_MB_S,
    cost_per_hour=0.42,
)

#: Local cluster box: two Xeon E5-2620 (24 virtual cores), 24 GB RAM,
#: spinning disks, one-gigabit switch (Sec. 4.1, first experiment).
XEON_E5_2620 = NodeSpec(
    name="xeon-e5-2620",
    cores=24,
    speed=0.9,
    memory_mb=24_576.0,
    disk_mb_s=180.0,
    link_mb_s=GIGABIT_MB_S,
    cost_per_hour=0.0,
)


@dataclass(frozen=True)
class ClusterSpec:
    """Description of a whole cluster to be provisioned.

    ``masters`` host Hadoop's ResourceManager/NameNode (and, when
    isolated as in Sec. 4.1, the Hi-WAY AM); ``workers`` run containers.
    Masters are the worker machine type.
    """

    worker_spec: NodeSpec
    worker_count: int
    master_count: int = 1
    #: Aggregate switch capacity in MB/s. The paper's local cluster hangs
    #: off a single one-gigabit switch; EC2 placement gives much more.
    backbone_mb_s: float = 10_000.0
    #: Aggregate bandwidth of the external S3 endpoint, if inputs are
    #: streamed from S3 (second Sec. 4.1 experiment).
    s3_mb_s: float = 12_800.0
    #: Aggregate bandwidth of a shared EBS volume (CloudMan baseline).
    ebs_mb_s: float = 180.0
    #: Per-worker speed factors overriding the spec (heterogeneity).
    worker_speeds: tuple[float, ...] = field(default=())
    #: Number of racks workers are spread over (round-robin). With more
    #: than one rack, each rack gets its own top-of-rack switch and only
    #: cross-rack traffic crosses the core ``backbone``.
    racks: int = 1
    #: Uplink capacity of each top-of-rack switch in MB/s.
    rack_uplink_mb_s: float = 1_250.0

    def __post_init__(self) -> None:
        if self.worker_count < 1:
            raise ValueError("a cluster needs at least one worker")
        if self.worker_speeds and len(self.worker_speeds) != self.worker_count:
            raise ValueError("worker_speeds must match worker_count")
        if self.racks < 1:
            raise ValueError("a cluster needs at least one rack")

    def rack_of(self, worker_index: int) -> int:
        """Rack hosting the worker with the given index."""
        return worker_index % self.racks

    def hourly_cost(self) -> float:
        """Aggregate on-demand price of the whole cluster per hour."""
        return (
            self.worker_count * self.worker_spec.cost_per_hour
            + self.master_count * self.worker_spec.cost_per_hour
        )
