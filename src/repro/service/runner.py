"""The open-loop service runner: one installation, a day of traffic.

Everything before this module ran the installation *per experiment* —
build a cluster, submit N workflows, tear it down. ``ServiceRunner``
holds one RM, one HDFS and one admission controller alive for the whole
run and feeds it submissions as an arrival process fires on the
simulated clock, the way the paper's Sec. 3.1 "many independent AMs on
one installation" deployment would actually be operated.

The runner keeps no per-submission state. It publishes each arrival
(``WorkflowSubmitted``) and final state (``SubmissionFinished``) on the
bus, and a sampler publishes backlog, admission queue depth, running
applications and pending container requests every ``sample_period_s``
as ``ServiceSample`` events, which the registry records as
:class:`~repro.obs.registry.Series`. The report (queue wait, makespan
and end-to-end latency per submission) is
:meth:`~repro.service.slo.ServiceReport.from_events` over those events:
the fold ``report --from-journal`` applies to a journal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.cluster import Cluster, ClusterSpec, XEON_E5_2620
from repro.core import HiWay, HiWayConfig
from repro.hdfs import HdfsClient
from repro.langs import CuneiformSource, DaxSource, GalaxySource
from repro.obs import events as ev
from repro.service.arrivals import ArrivalProcess
from repro.service.slo import REPORT_EVENTS, ServiceReport, SloTargets
from repro.service.traffic import (
    DEFAULT_TENANTS,
    SubmissionSpec,
    TenantProfile,
    build_schedule,
)
from repro.sim import SOLVER_VERSION, Environment
from repro.workflow.model import TaskSource
from repro.workloads import (
    KMEANS_TOOLS,
    MONTAGE_TOOLS,
    RNASEQ_TOOLS,
    SNV_TOOLS,
    kmeans_cuneiform,
    kmeans_inputs,
    montage_dax,
    montage_inputs,
    sample_read_files,
    snv_cuneiform,
    trapline_galaxy_json,
    trapline_input_bindings,
    trapline_inputs,
)

__all__ = ["ServiceConfig", "ServiceRunner"]

#: Diagnostics prefix the AM reports when admission refused it.
_REJECTED_PREFIX = "admission rejected"


@dataclass(frozen=True)
class ServiceConfig:
    """One service deployment: cluster size, policies, workload widths."""

    #: Cluster shape.
    workers: int = 8
    containers_per_node: int = 3
    backbone_mb_s: float = 100.0
    #: RM cross-application allocation policy ("fifo", "fair", "drf").
    rm_policy: str = "fair"
    #: Admission control (None = no cap).
    max_concurrent_apps: Optional[int] = 8
    admission_overflow: str = "queue"
    admission_drain: str = "fifo"
    #: Workflow scheduler every AM runs.
    scheduler: str = "data-aware"
    #: Size each container to its task's tool profile instead of one
    #: fixed installation-wide capability. On by default here: a mixed
    #: service runs everything from 200 MB k-means checks to 8 GB
    #: TopHat2 mappings, which no single fixed size serves well.
    adaptive_container_sizing: bool = True
    #: Seconds between backlog/queue-depth samples.
    sample_period_s: float = 60.0
    #: Bound on retained samples per service time series (None = keep
    #: all). Long runs decimate deterministically; see
    #: :class:`~repro.obs.registry.Series`.
    max_series_points: Optional[int] = None
    #: Whether the run drains every admitted workflow after the last
    #: arrival (True) or cuts off at the horizon leaving in-flight
    #: submissions unfinished (False).
    drain: bool = True
    #: Workload widths (service-sized, far below the paper's scale).
    snv_samples: int = 2
    snv_files_per_sample: int = 2
    snv_mb_per_file: float = 64.0
    montage_degree: float = 0.25
    kmeans_partitions: int = 4
    kmeans_mb_per_partition: float = 32.0
    kmeans_iterations: int = 3
    rnaseq_mb_per_replicate: float = 64.0
    #: Seed for HDFS placement and input staging.
    seed: int = 0

    def __post_init__(self) -> None:
        # A cluster with no workers or no container slots never drains
        # its admission queue, so the run would never end.
        for name in ("workers", "containers_per_node"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if not self.sample_period_s > 0:
            raise ValueError(
                f"sample_period_s must be > 0, got {self.sample_period_s}"
            )

    def setup_line(self) -> str:
        """One deterministic line describing the deployment, ending with
        the flow solver version stamp."""
        cap = (
            "uncapped" if self.max_concurrent_apps is None
            else (
                f"cap {self.max_concurrent_apps} "
                f"({self.admission_overflow}, {self.admission_drain} drain)"
            )
        )
        return (
            f"{self.workers} workers x {self.containers_per_node} containers, "
            f"{self.rm_policy} rm, {cap}, {self.scheduler} scheduler, "
            f"solver {SOLVER_VERSION}"
        )


class ServiceRunner:
    """Drives one long-lived installation through an arrival schedule."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.env = Environment()
        self.cluster = Cluster(
            self.env,
            ClusterSpec(
                worker_spec=XEON_E5_2620,
                worker_count=cfg.workers,
                master_count=1,
                backbone_mb_s=cfg.backbone_mb_s,
            ),
        )
        self.hiway = HiWay(
            self.cluster,
            hdfs=HdfsClient(self.cluster, seed=cfg.seed),
            config=HiWayConfig(
                container_vcores=1,
                container_memory_mb=1024.0,
                adaptive_container_sizing=cfg.adaptive_container_sizing,
                scheduler=cfg.scheduler,
                rm_policy=cfg.rm_policy,
                max_concurrent_apps=cfg.max_concurrent_apps,
                admission_overflow=cfg.admission_overflow,
                admission_drain=cfg.admission_drain,
            ),
            max_containers_per_node=cfg.containers_per_node,
        )
        self.bus = self.hiway.bus
        self.registry = self.hiway.registry
        # Submissions that arrived / reached a final state (the backlog).
        self._arrived = 0
        self._finished = 0
        self._t0 = 0.0
        self._staged = False

    # -- workload materialisation -----------------------------------------------

    def _shared_inputs(self, kinds: set[str]) -> dict[str, float]:
        """Input manifest shared (read-only) by every submission."""
        cfg = self.config
        inputs: dict[str, float] = {}
        if "snv" in kinds:
            inputs.update(sample_read_files(
                cfg.snv_samples,
                files_per_sample=cfg.snv_files_per_sample,
                mb_per_file=cfg.snv_mb_per_file,
            ))
        if "montage" in kinds:
            inputs.update(montage_inputs(cfg.montage_degree))
        if "kmeans" in kinds:
            inputs.update(kmeans_inputs(
                cfg.kmeans_partitions, cfg.kmeans_mb_per_partition
            ))
        if "rnaseq" in kinds:
            inputs.update(trapline_inputs(cfg.rnaseq_mb_per_replicate))
        return inputs

    def _source_for(self, spec: SubmissionSpec) -> TaskSource:
        """Build the task source for one submission.

        Output paths must not collide across concurrent submissions:
        Cuneiform scopes outputs by source name and Galaxy by workflow
        name (the unique ``spec.name`` suffices), while the Montage DAX
        carries absolute ``/work``/``/out`` paths and gets a unique
        ``work_prefix``. Inputs stay shared — they are read-only.
        """
        cfg = self.config
        if spec.kind == "snv":
            inputs = sample_read_files(
                cfg.snv_samples,
                files_per_sample=cfg.snv_files_per_sample,
                mb_per_file=cfg.snv_mb_per_file,
            )
            return CuneiformSource(snv_cuneiform(inputs), name=spec.name)
        if spec.kind == "montage":
            return DaxSource(
                montage_dax(cfg.montage_degree, work_prefix=f"/svc/{spec.name}"),
                name=spec.name,
            )
        if spec.kind == "kmeans":
            return CuneiformSource(
                kmeans_cuneiform(
                    cfg.kmeans_partitions,
                    iterations_until_convergence=cfg.kmeans_iterations,
                ),
                name=spec.name,
            )
        if spec.kind == "rnaseq":
            return GalaxySource(
                trapline_galaxy_json(),
                input_bindings=trapline_input_bindings(),
                name=spec.name,
            )
        raise ValueError(f"unknown workload kind {spec.kind!r}")

    def _stage(self, kinds: set[str]) -> None:
        """Install tools and stage shared inputs (runs the sim clock)."""
        if self._staged:
            return
        tools: tuple[str, ...] = ()
        if "snv" in kinds:
            tools += SNV_TOOLS
        if "montage" in kinds:
            tools += MONTAGE_TOOLS
        if "kmeans" in kinds:
            tools += KMEANS_TOOLS
        if "rnaseq" in kinds:
            tools += RNASEQ_TOOLS
        self.hiway.install_everywhere(*tools)
        self.hiway.stage_inputs(self._shared_inputs(kinds), seed=self.config.seed)
        self._staged = True

    # -- simulation processes ---------------------------------------------------

    def _drive(self, spec: SubmissionSpec):
        """One submission's life: wait for its arrival time, submit, wait."""
        delay = self._t0 + spec.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self._arrived += 1
        self.bus.emit(ev.WorkflowSubmitted(
            name=spec.name, tenant=spec.tenant, workload=spec.kind
        ))
        result = yield self.hiway.submit(
            self._source_for(spec),
            scheduler=self.config.scheduler,
            name=spec.name,
            tenant=spec.tenant,
        )
        rejected = not result.success and any(
            diagnostic.startswith(_REJECTED_PREFIX)
            for diagnostic in result.diagnostics
        )
        self._finished += 1
        self.bus.emit(ev.SubmissionFinished(
            name=spec.name, tenant=spec.tenant, workload=spec.kind,
            success=result.success, rejected=rejected,
        ))

    def _sampler(self):
        while True:
            self._sample()
            yield self.env.timeout(self.config.sample_period_s)

    def _sample(self) -> None:
        # Published as an event (not recorded directly): the subscribed
        # registry folds it into the hiway_service_* series, and the
        # same handler reproduces them from a journal replay.
        self.bus.emit(ev.ServiceSample(
            rel_t=self.env.now - self._t0,
            backlog=float(self._arrived - self._finished),
            queue_depth=float(self.hiway.rm.admission_queue_depth()),
            running_apps=float(self.hiway.rm.active_application_count()),
            pending_containers=float(self.hiway.rm.pending_request_count()),
        ))

    def _snapshot_loop(self, monitor, every_s: float, sink):
        while True:
            yield self.env.timeout(every_s)
            sink(monitor.snapshot(self.env.now - self._t0))

    # -- entry point ------------------------------------------------------------

    def run(
        self,
        arrivals: ArrivalProcess,
        tenants: Sequence[TenantProfile] = DEFAULT_TENANTS,
        horizon_s: float = 3600.0,
        targets: Optional[SloTargets] = None,
        max_submissions: Optional[int] = None,
        journal=None,
        monitor=None,
        snapshot_every_s: Optional[float] = None,
        on_snapshot=None,
    ) -> ServiceReport:
        """Play ``arrivals`` against the installation; return the report.

        The schedule is materialised up front (deterministic in the
        arrival seed), shared inputs are staged once, then one process
        per submission waits for its arrival time and submits. With
        ``config.drain`` the run continues past the horizon until every
        admitted workflow finished; otherwise it cuts off at the horizon
        and in-flight submissions stay unfinished in the report.

        ``journal`` (an :class:`~repro.obs.journal.EventJournal`) gets
        the run's header metadata written and its handler table
        subscribed to the bus for the duration of the run — the caller
        closes it. ``monitor`` (a :class:`~repro.obs.live.LiveMonitor`)
        is subscribed likewise with its epoch set to the run start; with
        ``snapshot_every_s`` and ``on_snapshot``, a sampler process
        hands the callback a rendered snapshot each period.
        """
        schedule = build_schedule(
            arrivals, tenants, horizon_s, max_submissions=max_submissions
        )
        # No epoch (t0) in the header: staging runs the sim clock, so it
        # is not known yet; the fold takes it from the first sample.
        meta = {
            "traffic": arrivals.describe(),
            "setup": self.config.setup_line(),
            "horizon_s": horizon_s,
            "targets": asdict(targets) if targets is not None else None,
            "max_series_points": self.config.max_series_points,
            "schedule": [
                {"index": spec.index, "name": spec.name,
                 "tenant": spec.tenant, "kind": spec.kind, "at": spec.at}
                for spec in schedule
            ],
        }
        subscriptions = []
        try:
            if journal is not None:
                # Subscribed before staging so the journal carries the
                # whole event stream the live registry saw.
                journal.write_header({"service": meta})
                subscriptions.append(self.bus.subscribe(journal.handlers()))
            self._stage({spec.kind for spec in schedule})
            self._t0 = self.env.now
            if monitor is not None:
                monitor.epoch = self._t0
                if monitor.targets is None:
                    monitor.targets = targets
                subscriptions.append(self.bus.subscribe(monitor.handlers()))
                if snapshot_every_s is not None and on_snapshot is not None:
                    self.env.process(self._snapshot_loop(
                        monitor, snapshot_every_s, on_snapshot
                    ))
            self.registry.service_series(self.config.max_series_points)
            events: list[ev.ObsEvent] = []
            subscriptions.append(
                self.bus.subscribe(dict.fromkeys(REPORT_EVENTS, events.append))
            )
            processes = [
                self.env.process(self._drive(spec)) for spec in schedule
            ]
            self.env.process(self._sampler())
            if processes:
                if self.config.drain:
                    self.env.run(until=self.env.all_of(processes))
                else:
                    # A time stop, not `until=self.env.timeout(...)`:
                    # Timeouts are born triggered, which would stop the run
                    # at the first processed event instead of the horizon.
                    self.env.run(until=self._t0 + horizon_s)
            self._sample()
        finally:
            for subscription in subscriptions:
                subscription.cancel()
        if monitor is not None:
            monitor.close()
        return ServiceReport.from_events(meta, events, self.registry)
