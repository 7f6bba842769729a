"""The simulated NameNode: namespace and block map.

Metadata operations charge a small amount of CPU work on the master node
hosting the NameNode, so that Figure 6's "Hadoop master" utilisation curve
emerges from actual bookkeeping load rather than being faked.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.node import Node
from repro.errors import FileNotFoundInHdfs, HdfsError
from repro.obs.bus import EventBus
from repro.obs.events import BlocksPlaced
from repro.hdfs.blocks import (
    Block,
    BlockPlacementPolicy,
    DEFAULT_BLOCK_SIZE_MB,
    DefaultPlacementPolicy,
    HdfsFile,
    split_into_block_sizes,
)

__all__ = ["NameNode"]

#: CPU work (reference core-seconds) charged per metadata operation.
METADATA_OP_WORK = 0.003
#: Permanent CPU load (cores) for one DataNode's block reports.
BLOCK_REPORT_LOAD_PER_DN = 0.0004


class NameNode:
    """Namespace, block map, and replica placement."""

    def __init__(
        self,
        datanodes: list[str],
        replication: int = 3,
        block_size_mb: float = DEFAULT_BLOCK_SIZE_MB,
        placement: Optional[BlockPlacementPolicy] = None,
        host: Optional[Node] = None,
        bus: Optional[EventBus] = None,
    ):
        if replication < 1:
            raise HdfsError("replication factor must be >= 1")
        #: Observability bus (a private idle one when constructed bare).
        self.bus = bus if bus is not None else EventBus()
        self._files: dict[str, HdfsFile] = {}
        self._datanodes = list(datanodes)
        self.replication = replication
        self.block_size_mb = block_size_mb
        self._placement = placement or DefaultPlacementPolicy()
        self._host = host
        # Per-node inverted locality index: node_id -> {path -> MB of the
        # file resident on that node}. Maintained on block placement,
        # file deletion and DataNode loss, so locality queries are dict
        # lookups instead of block-list scans (the data-aware scheduler
        # issues them in a tight loop).
        self._local_index: dict[str, dict[str, float]] = {
            node_id: {} for node_id in self._datanodes
        }
        #: Number of metadata RPCs served (create/lookup/delete).
        self.ops = 0
        self._report_flows = {}
        if host is not None:
            for node_id in self._datanodes:
                self._report_flows[node_id] = host._network.start_flow(
                    size=None,
                    resources=[host.cpu],
                    cap=BLOCK_REPORT_LOAD_PER_DN,
                    label=f"nn-blockreport:{node_id}",
                )

    # -- bookkeeping ---------------------------------------------------------

    def _charge(self) -> None:
        self.ops += 1
        if self._host is not None:
            # Fire-and-forget: metadata work contends with other master load.
            self._host.compute(METADATA_OP_WORK, threads=1, label="nn-op")

    @property
    def datanodes(self) -> list[str]:
        """Ids of the registered DataNodes."""
        return list(self._datanodes)

    def remove_datanode(self, node_id: str) -> None:
        """Drop a DataNode, e.g. after a simulated crash.

        Replicas on the node are forgotten; files remain readable while at
        least one replica per block survives (the redundancy property the
        paper relies on in Sec. 3.1).
        """
        if node_id in self._datanodes:
            self._datanodes.remove(node_id)
        self._local_index.pop(node_id, None)
        report_flow = self._report_flows.pop(node_id, None)
        if report_flow is not None:
            report_flow.cancel()
        for hdfs_file in self._files.values():
            for index, block in enumerate(hdfs_file.blocks):
                if node_id in block.replicas:
                    survivors = tuple(r for r in block.replicas if r != node_id)
                    hdfs_file.blocks[index] = Block(
                        block.index, block.size_mb, survivors
                    )

    # -- namespace -----------------------------------------------------------

    def create(self, path: str, size_mb: float, writer: Optional[str]) -> HdfsFile:
        """Create ``path`` and place its blocks. Returns the new entry."""
        self._charge()
        if path in self._files:
            raise HdfsError(f"path already exists: {path!r}")
        if size_mb < 0:
            raise HdfsError("file size must be non-negative")
        hdfs_file = HdfsFile(path, size_mb)
        for index, block_size in enumerate(
            split_into_block_sizes(size_mb, self.block_size_mb)
        ):
            replicas = self._placement.choose_replicas(
                writer, self._datanodes, self.replication
            )
            if not replicas:
                raise HdfsError("no DataNodes available for placement")
            hdfs_file.blocks.append(Block(index, block_size, replicas))
        self._files[path] = hdfs_file
        local_index = self._local_index
        for block in hdfs_file.blocks:
            for replica in block.replicas:
                node_map = local_index.setdefault(replica, {})
                node_map[path] = node_map.get(path, 0.0) + block.size_mb
        if self.bus.wants(BlocksPlaced):
            self.bus.emit(BlocksPlaced(
                path=path,
                size_mb=size_mb,
                placements=tuple(
                    tuple(block.replicas) for block in hdfs_file.blocks
                ),
            ))
        return hdfs_file

    def lookup(self, path: str) -> HdfsFile:
        """Fetch the namespace entry for ``path``."""
        self._charge()
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInHdfs(path) from None

    def exists(self, path: str) -> bool:
        """Whether ``path`` is in the namespace (no charge; cheap probe)."""
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove ``path`` from the namespace."""
        self._charge()
        hdfs_file = self._files.pop(path, None)
        if hdfs_file is None:
            raise FileNotFoundInHdfs(path)
        local_index = self._local_index
        for block in hdfs_file.blocks:
            for replica in block.replicas:
                node_map = local_index.get(replica)
                if node_map is not None:
                    node_map.pop(path, None)

    def list_paths(self) -> list[str]:
        """All paths currently in the namespace."""
        return sorted(self._files)

    # -- locality ------------------------------------------------------------

    def local_bytes(self, path: str, node_id: str) -> float:
        """MB of ``path`` with a replica on ``node_id`` (no RPC charge).

        The Hi-WAY data-aware scheduler calls this in a tight loop; in the
        real system the information is served from the client-side block
        cache, so it is not billed as a NameNode RPC here.
        """
        if path not in self._files:
            raise FileNotFoundInHdfs(path)
        node_map = self._local_index.get(node_id)
        return node_map.get(path, 0.0) if node_map else 0.0

    def local_fraction(self, paths: list[str], node_id: str) -> float:
        """Fraction of the aggregate bytes of ``paths`` local to ``node_id``."""
        files = self._files
        node_map = self._local_index.get(node_id) or {}
        total = 0.0
        local = 0.0
        for path in paths:
            hdfs_file = files.get(path)
            if hdfs_file is None:
                continue  # External inputs (e.g. S3) have no local replicas.
            total += hdfs_file.size_mb
            local += node_map.get(path, 0.0)
        return local / total if total > 0 else 0.0

    def batch_local_fractions(
        self,
        input_lists: list[list[str]],
        node_id: str,
        external_mb: Optional[list[float]] = None,
    ) -> list[float]:
        """Locality fractions of many candidate input sets vs one node.

        ``input_lists[i]`` is a list of HDFS paths (a missing path raises
        :class:`FileNotFoundInHdfs`, matching the lookup-based client
        path); ``external_mb[i]``, when given, adds that many MB of
        necessarily non-local (e.g. S3-hosted) input to the denominator.
        Like :meth:`local_bytes`, this is served from the client-side
        block cache in the real system, so it is not billed as RPCs.
        """
        files = self._files
        node_map = self._local_index.get(node_id) or {}
        fractions = []
        for index, paths in enumerate(input_lists):
            hdfs_total = 0.0
            local = 0.0
            for path in paths:
                hdfs_file = files.get(path)
                if hdfs_file is None:
                    raise FileNotFoundInHdfs(path)
                hdfs_total += hdfs_file.size_mb
                local += node_map.get(path, 0.0)
            total = hdfs_total + (external_mb[index] if external_mb else 0.0)
            fractions.append(local / total if total > 0 else 0.0)
        return fractions
