"""Block-level metadata for the simulated HDFS."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["Block", "HdfsFile", "BlockPlacementPolicy", "DefaultPlacementPolicy"]

#: HDFS default block size.
DEFAULT_BLOCK_SIZE_MB = 128.0


@dataclass
class Block:
    """One block of a file and the nodes holding replicas of it."""

    index: int
    size_mb: float
    replicas: tuple[str, ...]

    def is_local_to(self, node_id: str) -> bool:
        """Whether ``node_id`` holds a replica of this block."""
        return node_id in self.replicas


@dataclass
class HdfsFile:
    """Namespace entry: an immutable, fully written file."""

    path: str
    size_mb: float
    blocks: list[Block] = field(default_factory=list)


def split_into_block_sizes(size_mb: float, block_size_mb: float) -> list[float]:
    """Sizes of the blocks a file of ``size_mb`` splits into."""
    if size_mb <= 0:
        return [0.0]
    sizes = []
    remaining = size_mb
    while remaining > block_size_mb:
        sizes.append(block_size_mb)
        remaining -= block_size_mb
    sizes.append(remaining)
    return sizes


class BlockPlacementPolicy:
    """Strategy choosing replica nodes for a new block."""

    def choose_replicas(
        self, writer: str | None, candidates: list[str], replication: int
    ) -> tuple[str, ...]:  # pragma: no cover - interface
        raise NotImplementedError


class DefaultPlacementPolicy(BlockPlacementPolicy):
    """HDFS's default policy, flattened to a single rack.

    The first replica lands on the writer (if the writer is a DataNode),
    the remaining replicas on distinct nodes chosen uniformly at random
    from the rest of the cluster. A seeded RNG keeps runs reproducible.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose_replicas(
        self, writer: str | None, candidates: list[str], replication: int
    ) -> tuple[str, ...]:
        replication = min(replication, len(candidates))
        chosen: list[str] = []
        if writer is not None and writer in candidates:
            chosen.append(writer)
        others = [node for node in candidates if node not in chosen]
        self._rng.shuffle(others)
        chosen.extend(others[: replication - len(chosen)])
        return tuple(chosen)


class RackAwarePlacementPolicy(BlockPlacementPolicy):
    """HDFS's actual default for multi-rack clusters.

    First replica on the writer, second and third together on one
    *different* rack (tolerating the loss of a whole rack while keeping
    two of three replicas one hop apart), further replicas at random.
    """

    def __init__(self, rack_of: dict[str, int], seed: int = 0):
        self._rack_of = dict(rack_of)
        self._rng = random.Random(seed)

    def choose_replicas(
        self, writer: str | None, candidates: list[str], replication: int
    ) -> tuple[str, ...]:
        replication = min(replication, len(candidates))
        chosen: list[str] = []
        if writer is not None and writer in candidates:
            chosen.append(writer)
        elif candidates:
            chosen.append(self._rng.choice(candidates))
        writer_rack = self._rack_of.get(chosen[0], 0) if chosen else 0
        remote = [
            node for node in candidates
            if node not in chosen and self._rack_of.get(node, 0) != writer_rack
        ]
        self._rng.shuffle(remote)
        if remote and replication > 1:
            # Second replica on some remote rack ...
            second = remote[0]
            chosen.append(second)
            second_rack = self._rack_of.get(second, 0)
            # ... third replica on that same remote rack when possible.
            same_remote_rack = [
                node for node in remote[1:]
                if self._rack_of.get(node, 0) == second_rack
            ]
            if same_remote_rack and replication > 2:
                chosen.append(same_remote_rack[0])
        # Fill any shortfall (small clusters, high replication) randomly.
        leftovers = [node for node in candidates if node not in chosen]
        self._rng.shuffle(leftovers)
        chosen.extend(leftovers[: replication - len(chosen)])
        return tuple(chosen[:replication])
