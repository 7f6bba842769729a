"""Data-plane client for the simulated HDFS (plus S3-style externals).

Reads and writes are generator processes: run them with ``env.process``
and they return a :class:`FileTransferReport` describing how many MB moved
locally vs. across the network and how long the operation took — exactly
the per-file provenance Hi-WAY records (Sec. 3.5).

Paths starting with ``s3://`` address the external endpoint: they are
readable from any node (streaming through the node link but not the
cluster backbone) and have no HDFS replicas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.errors import FileNotFoundInHdfs, HdfsError
from repro.hdfs.blocks import BlockPlacementPolicy, DEFAULT_BLOCK_SIZE_MB
from repro.hdfs.namenode import NameNode
from repro.obs.events import InputsStaged

__all__ = ["FileTransferReport", "HdfsClient", "S3_PREFIX"]

S3_PREFIX = "s3://"


@dataclass(frozen=True)
class FileTransferReport:
    """Outcome of moving one file between storage and a node."""

    path: str
    node_id: str
    size_mb: float
    local_mb: float
    remote_mb: float
    seconds: float
    direction: str  # "in" (stage-in) or "out" (stage-out)

    @property
    def local_fraction(self) -> float:
        """Share of bytes that never left the node."""
        return self.local_mb / self.size_mb if self.size_mb > 0 else 1.0

    @property
    def external(self) -> bool:
        """Whether the file lives on the external (S3) endpoint."""
        return self.path.startswith(S3_PREFIX)


class HdfsClient:
    """HDFS facade bound to one simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        replication: int = 3,
        block_size_mb: float = DEFAULT_BLOCK_SIZE_MB,
        placement: Optional[BlockPlacementPolicy] = None,
        seed: int = 0,
    ):
        self.cluster = cluster
        namenode_host = cluster.masters[0] if cluster.masters else None
        if placement is None and cluster.rack_switches:
            # Multi-rack clusters get HDFS's real rack-aware policy.
            from repro.hdfs.blocks import RackAwarePlacementPolicy

            placement = RackAwarePlacementPolicy(
                {node.node_id: node.rack for node in cluster.workers},
                seed=seed,
            )
        self.bus = cluster.bus
        self.namenode = NameNode(
            datanodes=cluster.worker_ids,
            replication=replication,
            block_size_mb=block_size_mb,
            placement=placement,
            host=namenode_host,
            bus=cluster.bus,
        )
        self._rng = random.Random(seed)
        self._external: dict[str, float] = {}

    # -- external (S3) files ---------------------------------------------------

    def register_external(self, path: str, size_mb: float) -> None:
        """Declare an S3-hosted input of ``size_mb`` MB."""
        if not path.startswith(S3_PREFIX):
            raise HdfsError(f"external paths must start with {S3_PREFIX!r}: {path}")
        self._external[path] = float(size_mb)

    def is_external(self, path: str) -> bool:
        """Whether ``path`` lives on the external endpoint."""
        return path.startswith(S3_PREFIX)

    # -- namespace passthroughs -------------------------------------------------

    def exists(self, path: str) -> bool:
        """Whether the path is readable (HDFS namespace or S3 catalog)."""
        if self.is_external(path):
            return path in self._external
        return self.namenode.exists(path)

    def size_of(self, path: str) -> float:
        """Size in MB of an existing file."""
        if self.is_external(path):
            try:
                return self._external[path]
            except KeyError:
                raise FileNotFoundInHdfs(path) from None
        return self.namenode.lookup(path).size_mb

    def local_fraction(self, paths: list[str], node_id: str) -> float:
        """Fraction of the given files' bytes already on ``node_id``.

        This is the quantity Hi-WAY's data-aware scheduler maximises.
        External files count as non-local.
        """
        hdfs_paths = [p for p in paths if not self.is_external(p)]
        hdfs_total = sum(self.namenode.lookup(p).size_mb for p in hdfs_paths)
        external_total = sum(self._external.get(p, 0.0) for p in paths if self.is_external(p))
        if hdfs_total + external_total <= 0:
            return 0.0
        local = sum(self.namenode.local_bytes(p, node_id) for p in hdfs_paths)
        return local / (hdfs_total + external_total)

    def local_fractions(
        self, input_lists: list[list[str]], node_id: str
    ) -> list[float]:
        """Batch :meth:`local_fraction` over many input sets, one NN call.

        Schedulers score every eligible task against a freed container;
        doing it in one call against the NameNode's inverted locality
        index keeps that scoring O(paths) per task. Served from the
        client-side block cache (not billed as metadata RPCs), matching
        how Hi-WAY's data-aware selector reads block locations.
        """
        is_external = self.is_external
        external = self._external
        hdfs_lists = []
        external_totals = []
        for paths in input_lists:
            hdfs_lists.append([p for p in paths if not is_external(p)])
            external_totals.append(
                sum(external.get(p, 0.0) for p in paths if is_external(p))
            )
        return self.namenode.batch_local_fractions(
            hdfs_lists, node_id, external_totals
        )

    # -- data plane ---------------------------------------------------------------

    def read(self, path: str, node_id: str):
        """Generator process staging ``path`` onto ``node_id``.

        Local blocks only touch the node's disk; remote blocks stream from
        a randomly chosen replica holder across the network. Returns a
        :class:`FileTransferReport`.
        """
        env = self.cluster.env
        started = env.now
        if self.is_external(path):
            size = self.size_of(path)
            yield self.cluster.s3_download(node_id, size, label=f"s3-get:{path}")
            return FileTransferReport(
                path, node_id, size, 0.0, size, env.now - started, "in"
            )
        hdfs_file = self.namenode.lookup(path)
        local_mb = 0.0
        by_source: dict[str, float] = {}
        for block in hdfs_file.blocks:
            if block.is_local_to(node_id):
                local_mb += block.size_mb
            else:
                if not block.replicas:
                    raise HdfsError(f"block {block.index} of {path!r} lost all replicas")
                source = self._rng.choice(block.replicas)
                by_source[source] = by_source.get(source, 0.0) + block.size_mb
        pending = []
        if local_mb > 0:
            pending.append(
                self.cluster.node(node_id).disk_io(local_mb, label=f"hdfs-local:{path}")
            )
        for source, size in by_source.items():
            pending.append(
                self.cluster.transfer(source, node_id, size, label=f"hdfs-get:{path}")
            )
        if pending:
            yield env.all_of(pending)
        remote_mb = hdfs_file.size_mb - local_mb
        return FileTransferReport(
            path, node_id, hdfs_file.size_mb, local_mb, remote_mb,
            env.now - started, "in",
        )

    def write(self, path: str, size_mb: float, node_id: str):
        """Generator process writing ``size_mb`` MB from ``node_id``.

        The namespace entry is created first (placing replicas, first one
        writer-local when possible), then the data moves: a local disk
        write for the writer-resident replica plus one network transfer
        per remote replica. Returns a :class:`FileTransferReport`.
        """
        env = self.cluster.env
        started = env.now
        hdfs_file = self.namenode.create(path, size_mb, writer=node_id)
        local_mb = 0.0
        by_target: dict[str, float] = {}
        for block in hdfs_file.blocks:
            for replica in block.replicas:
                if replica == node_id:
                    local_mb += block.size_mb
                else:
                    by_target[replica] = by_target.get(replica, 0.0) + block.size_mb
        pending = []
        if local_mb > 0:
            pending.append(
                self.cluster.node(node_id).disk_io(local_mb, label=f"hdfs-putl:{path}")
            )
        for target, size in by_target.items():
            pending.append(
                self.cluster.transfer(node_id, target, size, label=f"hdfs-put:{path}")
            )
        if pending:
            yield env.all_of(pending)
        remote_mb = sum(by_target.values())
        return FileTransferReport(
            path, node_id, size_mb, local_mb, remote_mb, env.now - started, "out"
        )

    def stage_many(self, files: dict[str, float], seed: int = 0) -> None:
        """Synchronously materialise input files (setup machinery).

        Writers are chosen by a seeded shuffle rather than round-robin:
        input data is produced by earlier jobs or ingest pipelines whose
        write pattern is uncorrelated with the later run's container
        allocation order, and a correlated pattern would hand
        locality-blind schedulers artificial data locality. The writes
        are published as one :class:`~repro.obs.events.InputsStaged`.
        """
        env = self.cluster.env
        workers = self.cluster.worker_ids
        rng = random.Random(seed ^ 0x5EED)
        processes = []
        for path, size_mb in sorted(files.items()):
            if self.is_external(path):
                self.register_external(path, size_mb)
                continue
            processes.append(
                env.process(self.write(path, size_mb, rng.choice(workers)))
            )
        if processes:
            env.run(until=env.all_of(processes))
            if self.bus.wants(InputsStaged):
                self.bus.emit(InputsStaged(
                    transfers=tuple(process.value for process in processes)
                ))

    def delete(self, path: str) -> None:
        """Remove a file from the namespace (frees no simulated time)."""
        if self.is_external(path):
            self._external.pop(path, None)
        else:
            self.namenode.delete(path)
