"""Cluster assembly: nodes, switch backbone, and external endpoints."""

from __future__ import annotations

from typing import Iterator

from repro.cluster.node import Node
from repro.cluster.specs import ClusterSpec
from repro.errors import SimulationError
from repro.obs.bus import EventBus
from repro.sim.engine import Environment, Event
from repro.sim.flows import FlowNetwork, Resource
from repro.sim.metrics import MetricRecorder

__all__ = ["Cluster"]


class Cluster:
    """All simulated hardware for one experiment run.

    Worker nodes are named ``worker-0 .. worker-(n-1)``, masters
    ``master-0 ..``. Every data movement between two distinct nodes
    crosses both host links plus the shared ``backbone`` resource, which
    is what makes the paper's one-gigabit-switch experiments network-bound.
    Two external endpoints exist: ``s3`` (high aggregate bandwidth, used
    when inputs are streamed from the 1000-Genomes bucket) and ``ebs``
    (a shared network volume, used by the Galaxy CloudMan baseline).
    """

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        record_series: bool = False,
    ):
        self.env = env
        self.spec = spec
        #: The observability spine: every layer running on this cluster
        #: (YARN RM/NM, HDFS, failure injector, Hi-WAY AMs) publishes
        #: its events here. Idle until a subscriber attaches.
        self.bus = EventBus(env)
        self.network = FlowNetwork(env)
        self.backbone: Resource = self.network.add_resource(
            "backbone", spec.backbone_mb_s, kind="backbone"
        )
        self.s3: Resource = self.network.add_resource(
            "ext:s3", spec.s3_mb_s, kind="external"
        )
        self.ebs: Resource = self.network.add_resource(
            "ext:ebs", spec.ebs_mb_s, kind="external"
        )
        #: Top-of-rack switches (only materialised for multi-rack specs).
        self.rack_switches: list[Resource] = [
            self.network.add_resource(
                f"rack:{rack}", spec.rack_uplink_mb_s, kind="rack"
            )
            for rack in range(spec.racks)
        ] if spec.racks > 1 else []
        self.workers: list[Node] = []
        for index in range(spec.worker_count):
            speed = spec.worker_speeds[index] if spec.worker_speeds else None
            self.workers.append(
                Node(
                    f"worker-{index}",
                    spec.worker_spec,
                    self.network,
                    role="worker",
                    speed=speed,
                    rack=spec.rack_of(index),
                )
            )
        self.masters: list[Node] = [
            Node(
                f"master-{index}",
                spec.effective_master_spec,
                self.network,
                role="master",
                rack=0,
            )
            for index in range(spec.master_count)
        ]
        self._nodes = {node.node_id: node for node in self.all_nodes()}
        self.metrics = MetricRecorder(self.network, keep_series=record_series)

    # -- lookup --------------------------------------------------------------

    def all_nodes(self) -> Iterator[Node]:
        """All nodes, workers first."""
        yield from self.workers
        yield from self.masters

    def node(self, node_id: str) -> Node:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id!r}") from None

    @property
    def worker_ids(self) -> list[str]:
        """Ids of all worker nodes in index order."""
        return [node.node_id for node in self.workers]

    # -- data movement primitives ---------------------------------------------

    def transfer(
        self, src: str, dst: str, size_mb: float, label: str = ""
    ) -> Event:
        """Move ``size_mb`` from node ``src`` to node ``dst``.

        Local moves only touch the disk; remote moves cross the source
        disk, both host links, the backbone, and the destination disk.
        """
        if src == dst:
            return self.node(src).disk_io(size_mb, label=label or f"local:{src}")
        source, target = self.node(src), self.node(dst)
        resources = [source.disk, source.link]
        if self.rack_switches and source.rack == target.rack:
            # Rack-local traffic only crosses the top-of-rack switch.
            resources.append(self.rack_switches[source.rack])
        elif self.rack_switches:
            resources += [
                self.rack_switches[source.rack],
                self.backbone,
                self.rack_switches[target.rack],
            ]
        else:
            resources.append(self.backbone)
        resources += [target.link, target.disk]
        flow = self.network.start_flow(
            size=size_mb,
            resources=resources,
            label=label or f"xfer:{src}->{dst}",
        )
        return flow.done

    def same_rack(self, a: str, b: str) -> bool:
        """Whether two nodes share a rack (always true for flat specs)."""
        return self.node(a).rack == self.node(b).rack

    def s3_download(self, dst: str, size_mb: float, label: str = "") -> Event:
        """Stream ``size_mb`` from the external S3 endpoint onto ``dst``.

        S3 traffic enters through the node's own link but does not cross
        the intra-cluster backbone (it is not switched through the same
        fabric), matching the paper's rationale for moving inputs to S3.
        """
        target = self.node(dst)
        flow = self.network.start_flow(
            size=size_mb,
            resources=[self.s3, target.link, target.disk],
            label=label or f"s3->{dst}",
        )
        return flow.done

    def ebs_io(self, node_id: str, size_mb: float, label: str = "") -> Event:
        """Read or write ``size_mb`` on the shared EBS volume from ``node_id``.

        EBS is network-attached: traffic crosses the node link and the
        backbone and contends on the volume's aggregate throughput.
        """
        node = self.node(node_id)
        flow = self.network.start_flow(
            size=size_mb,
            resources=[self.ebs, node.link, self.backbone],
            label=label or f"ebs:{node_id}",
        )
        return flow.done

    # -- cost accounting -------------------------------------------------------

    def run_cost(self, runtime_seconds: float) -> float:
        """Dollar cost of holding the whole cluster for ``runtime_seconds``.

        Matches the paper's Table 2 footnote: per-minute billing of every
        provisioned VM at its hourly on-demand price.
        """
        minutes = runtime_seconds / 60.0
        return minutes * self.spec.hourly_cost() / 60.0

    def utilization_report(self) -> dict[str, dict[str, float]]:
        """Aggregate utilisation per resource kind and role (Figure 6)."""
        self.metrics.finish()
        report: dict[str, dict[str, float]] = {}
        for role, prefix in (("worker", "worker-"), ("master", "master-")):
            for kind, resource_prefix in (
                ("cpu", "cpu:"),
                ("disk", "disk:"),
                ("link", "link:"),
            ):
                key = f"{role}_{kind}"
                report[key] = self.metrics.aggregate(
                    kind, prefix=f"{resource_prefix}{prefix}"
                )
        report["backbone"] = self.metrics.aggregate("backbone")
        return report
