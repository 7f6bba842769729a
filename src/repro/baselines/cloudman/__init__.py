"""Galaxy CloudMan baseline: Slurm scheduling over shared EBS storage."""

from repro.baselines.cloudman.engine import (
    CLOUDMAN_MAX_NODES,
    EbsVolume,
    GalaxyCloudMan,
)
from repro.baselines.cloudman.slurm import SlurmJob, SlurmScheduler

__all__ = [
    "GalaxyCloudMan",
    "EbsVolume",
    "SlurmScheduler",
    "SlurmJob",
    "CLOUDMAN_MAX_NODES",
]
