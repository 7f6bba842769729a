"""A simulated machine: CPU, local disk, network link, installed software."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.cluster.specs import NodeSpec
from repro.errors import SimulationError
from repro.sim.flows import Flow, FlowNetwork, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Event

__all__ = ["Node"]


class Node:
    """One machine in the simulated cluster.

    The node registers three resources with the cluster-wide flow network:
    ``cpu:<id>`` (capacity = cores), ``disk:<id>`` and ``link:<id>``
    (capacities in MB/s). Compute work is expressed in reference
    core-seconds; the node's speed factor is applied when the flow is
    created, so a faster node drains the same work sooner.
    """

    def __init__(
        self,
        node_id: str,
        spec: NodeSpec,
        network: FlowNetwork,
        role: str = "worker",
        speed: Optional[float] = None,
        rack: int = 0,
    ):
        self.node_id = node_id
        self.spec = spec
        self.role = role
        #: Rack this machine lives in (0 for flat, single-rack clusters).
        self.rack = rack
        self.speed = spec.speed if speed is None else speed
        if self.speed <= 0:
            raise SimulationError(f"node {node_id}: speed must be positive")
        self._network = network
        self.cpu: Resource = network.add_resource(
            f"cpu:{node_id}", float(spec.cores), kind="cpu"
        )
        self.disk: Resource = network.add_resource(
            f"disk:{node_id}", spec.disk_mb_s, kind="disk"
        )
        self.link: Resource = network.add_resource(
            f"link:{node_id}", spec.link_mb_s, kind="link"
        )
        #: Executables available on this machine (installed via recipes).
        self.installed_software: set[str] = set()
        #: Whether the node currently accepts work (False after a crash).
        self.alive = True

    # -- software ----------------------------------------------------------

    def install(self, *packages: str) -> None:
        """Make the named executables available on this node."""
        self.installed_software.update(packages)

    def has_software(self, package: str) -> bool:
        """Whether ``package`` is installed here."""
        return package in self.installed_software

    # -- activity ----------------------------------------------------------

    def compute(self, work: float, threads: int, label: str = "") -> "Event":
        """Burn ``work`` reference core-seconds using up to ``threads`` cores.

        Returns the completion event of the underlying flow.
        """
        if work < 0:
            raise SimulationError("work must be non-negative")
        threads = max(1, int(threads))
        flow = self._network.start_flow(
            size=work / self.speed,
            resources=[self.cpu],
            cap=float(threads),
            label=label or f"compute@{self.node_id}",
        )
        return flow.done

    def charge(self, work: float) -> None:
        """Burn ``work`` reference core-seconds on one core, unawaited
        (control-plane bookkeeping; see :meth:`FlowNetwork.burn`)."""
        self._network.burn(self.cpu, work / self.speed)

    def disk_io(self, size_mb: float, label: str = "") -> "Event":
        """Read or write ``size_mb`` on the local disk."""
        flow = self._network.start_flow(
            size=size_mb,
            resources=[self.disk],
            label=label or f"disk@{self.node_id}",
        )
        return flow.done

    def start_background_cpu(
        self, label: str = "stress-cpu", weight: float = 1.0, count: int = 1,
        cores: float = 1.0,
    ) -> Flow:
        """Pin ``count`` hogs of ``cores`` each as permanent load
        (``stress -c N``, or one daemon's per-node load).

        ``weight`` < 1 models nodes whose cgroups prioritise YARN
        containers over unprivileged background processes.

        The ``count`` identical hogs are modelled as a single aggregate
        flow with cap ``count * cores`` and weight ``count * weight``:
        under weighted max-min each individual hog would receive
        ``min(cores, weight * level)``, so the aggregate receives exactly
        ``count`` times that at every fill level. This keeps the solver's
        per-rebalance cost independent of the hog count (Fig. 9 runs 682
        stress processes).
        """
        if count < 1:
            raise SimulationError("stress count must be >= 1")
        return self._network.start_flow(
            size=None,
            resources=[self.cpu],
            cap=count * cores,
            label=label,
            weight=count * weight,
        )

    def start_background_io(
        self, label: str = "stress-io", weight: float = 1.0, count: int = 1
    ) -> Flow:
        """``count`` permanent greedy disk writers (``stress -d N``).

        Aggregated into one flow of weight ``count * weight``; exact for
        uncapped flows under weighted max-min (see
        :meth:`start_background_cpu`).
        """
        if count < 1:
            raise SimulationError("stress count must be >= 1")
        return self._network.start_flow(
            size=None, resources=[self.disk], label=label, weight=count * weight
        )

    def __repr__(self) -> str:
        return f"Node({self.node_id!r}, {self.spec.name}, role={self.role!r})"
