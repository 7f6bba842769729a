"""The benchmark's four workloads, built through the public API of ``repro``.

Each workload is a class: the constructor is the set-up (build the
installation, install tools, stage inputs, generate the DAX or the
arrival schedule), ``run()`` is the measured phase, and
``outcome(full)`` reads the simulated results and checks them once the
clock has stopped. ``full`` adds the checks too slow to repeat in every
rep (the journal replay); the benchmark runs them in the first rep of a
workload, and the ``sim_digest``, which must match in every rep, covers
the rest. Inputs are a pure function of the seed.

Sizes are scaled so that one rep takes 1.6-2.8 s on a 2-core box;
``tiny`` sizes keep the smoke tests fast.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics

from repro.cluster import Cluster, ClusterSpec, M3_LARGE, apply_stress, paper_fig9_stress
from repro.core import HeftScheduler, HiWay, HiWayConfig
from repro.core.provenance import TraceFileStore
from repro.experiments.table2 import Table2Config
from repro.hdfs import HdfsClient
from repro.langs import CuneiformSource, DaxSource
from repro.obs.journal import EventJournal, load_service_report
from repro.service import (
    DEFAULT_TENANTS,
    PoissonArrivals,
    ServiceConfig,
    ServiceRunner,
    build_schedule,
)
from repro.sim import Environment
from repro.workloads import (
    MONTAGE_TOOLS,
    SNV_TOOLS,
    montage_dax,
    montage_inputs,
    sample_read_files,
    snv_cuneiform,
)
from repro.yarn import ResourceManager

__all__ = ["SIZES", "WORKLOADS", "Outcome", "CountedPoisson"]

SIZES = {
    "full": {"heft_runs": 20, "snv_workers": 16, "submissions": 90},
    "tiny": {"heft_runs": 2, "snv_workers": 2, "submissions": 8},
}

#: Service arrival rate (submissions per simulated hour).
RATE_PER_H = 120.0
#: Seed of the service's tenant and workflow-kind draws (see CountedPoisson).
MIX_SEED = 0


class Outcome:
    """What one rep produced, read after the measured phase."""

    def __init__(self, sim_s, tasks, attempted, failed, checks, digest_of, counters):
        self.sim_s = float(sim_s)
        self.tasks = int(tasks)
        self.attempted = int(attempted)
        self.failed = int(failed)
        #: check name -> passed
        self.checks = dict(checks)
        self.sim_digest = hashlib.sha256(
            json.dumps(digest_of, sort_keys=True).encode()
        ).hexdigest()[:16]
        self.counters = dict(counters)


def _successful_tasks(registry) -> int:
    return int(registry.value("hiway_task_attempts_total", outcome="success"))


class Fig9Heft:
    """Fig. 9: Montage 0.25 deg on 11 stressed m3.large workers.

    One FCFS run, the provenance store cleared, then consecutive HEFT
    runs over the accumulating trace, the same steps as
    ``repro.experiments.fig9._one_experiment``.
    """

    def __init__(self, seed: int, sizes: dict, workdir: str):
        self.seed = seed
        self.heft_runs = sizes["heft_runs"]
        self.env = Environment()
        cluster = Cluster(
            self.env, ClusterSpec(worker_spec=M3_LARGE, worker_count=11, master_count=1)
        )
        apply_stress(cluster, paper_fig9_stress(cluster.worker_ids))
        self.rm = ResourceManager(self.env, cluster, max_containers_per_node=1)
        self.store = TraceFileStore()
        self.hiway = HiWay(
            cluster,
            hdfs=HdfsClient(cluster, seed=seed),
            rm=self.rm,
            provenance_store=self.store,
            config=HiWayConfig(container_vcores=1, container_memory_mb=1024.0),
        )
        self.hiway.install_everywhere(*MONTAGE_TOOLS)
        self.hiway.stage_inputs(montage_inputs(0.25), seed=seed)
        self.dax = montage_dax(0.25)
        self.results = []

    def run(self) -> None:
        self.started_at = self.env.now
        self.results.append(self.hiway.run(DaxSource(self.dax), scheduler="fcfs"))
        # The FCFS baseline must not seed the HEFT estimates.
        self.store.clear()
        for index in range(self.heft_runs):
            scheduler = HeftScheduler(seed=self.seed * 1000 + index)
            self.results.append(self.hiway.run(DaxSource(self.dax), scheduler=scheduler))

    def runtimes(self) -> list[float]:
        return [result.runtime_seconds for result in self.results]

    def outcome(self, full: bool) -> Outcome:
        runtimes = self.runtimes()
        failed = sum(not result.success for result in self.results)
        fcfs, heft = runtimes[0], runtimes[1:]
        # Runs 11-20 of 20: estimates are complete and HEFT beats FCFS.
        late = heft[len(heft) // 2:]
        return Outcome(
            sim_s=self.env.now - self.started_at,
            tasks=_successful_tasks(self.hiway.registry),
            attempted=len(self.results),
            failed=failed,
            checks={
                "every execution succeeds": failed == 0,
                "late HEFT median beats FCFS": statistics.median(late) < fcfs,
            },
            digest_of=runtimes,
            counters={"yarn.allocations": self.rm.allocations},
        )


class SnvWide:
    """Table 2: one wide SNV-calling workflow, FCFS, S3 inputs.

    The same installation as ``repro.experiments.table2.run_weak_scaling_once``,
    built in the constructor so that only the run is measured.
    """

    def __init__(self, seed: int, sizes: dict, workdir: str):
        self.workers = sizes["snv_workers"]
        self.env = Environment()
        cluster = Cluster(self.env, ClusterSpec(
            worker_spec=M3_LARGE,
            worker_count=self.workers,
            master_count=2,
            backbone_mb_s=10_000.0,
        ))
        self.hiway = HiWay(
            cluster,
            hdfs=HdfsClient(cluster, seed=seed),
            rm=ResourceManager(self.env, cluster, max_containers_per_node=1),
            config=HiWayConfig(
                container_vcores=M3_LARGE.cores,
                container_memory_mb=M3_LARGE.memory_mb * 0.9,
                am_node="master-1",
            ),
        )
        self.hiway.install_everywhere(*SNV_TOOLS)
        config = Table2Config()
        inputs = sample_read_files(
            self.workers,
            files_per_sample=config.files_per_sample,
            mb_per_file=config.mb_per_file,
            from_s3=True,
        )
        self.hiway.stage_inputs(inputs)
        self.source = CuneiformSource(snv_cuneiform(inputs, use_cram=True), name="snv-s3")

    def run(self) -> None:
        self.started_at = self.env.now
        self.result = self.hiway.run(self.source, scheduler="fcfs")

    def outcome(self, full: bool) -> Outcome:
        tasks = _successful_tasks(self.hiway.registry)
        failed = int(not self.result.success)
        return Outcome(
            sim_s=self.env.now - self.started_at,
            tasks=tasks,
            attempted=1,
            failed=failed,
            checks={
                "every execution succeeds": failed == 0,
                "19 successful tasks per worker": tasks == 19 * self.workers,
            },
            digest_of=[self.result.runtime_seconds, tasks],
            counters={"yarn.allocations": self.hiway.rm.allocations},
        )


class CountedPoisson(PoissonArrivals):
    """Poisson arrivals conditioned on exactly ``count`` in the horizon.

    Given the count, the arrival times of a Poisson process are sorted
    uniform draws over the horizon; ``times_seed`` draws them. Fixing
    the count and the horizon keeps the number of workflows and the
    simulated span of one rep the same from seed to seed.

    ``build_schedule`` draws who submits what from ``self.seed``, which
    stays ``MIX_SEED``: every seed serves the same tenants and workflow
    kinds in the same order, at different times. Drawn per seed, the mix
    moved the count of tasks by 4% and the time of a rep with it.
    """

    def __init__(self, count: int, horizon_s: float, times_seed: int):
        super().__init__(count / horizon_s, seed=MIX_SEED)
        self.count = count
        self.times_seed = times_seed

    def times(self, horizon_s: float) -> list[float]:
        rng = random.Random(self.times_seed)
        return sorted(rng.random() * horizon_s for _ in range(self.count))

    def describe(self) -> str:
        return f"{super().describe()}, times seed {self.times_seed}"


class ServicePoisson:
    """The open-loop service: 16 workers x 3 containers, fair RM,
    admission cap 16 (queue), data-aware scheduler; Poisson arrivals at
    120/h from the default three-tenant mix, drained at the end."""

    journal = False

    def __init__(self, seed: int, sizes: dict, workdir: str):
        count = sizes["submissions"]
        self.horizon_s = count / RATE_PER_H * 3600.0
        self.arrivals = CountedPoisson(count, self.horizon_s, seed)
        self.runner = ServiceRunner(ServiceConfig(
            workers=16,
            containers_per_node=3,
            rm_policy="fair",
            max_concurrent_apps=16,
            admission_overflow="queue",
            scheduler="data-aware",
            seed=seed,
        ))
        # Install the tools and stage the shared inputs now, as
        # ServiceRunner.run would on its first call, so that only serving
        # is measured; run() then finds the installation staged.
        schedule = build_schedule(self.arrivals, DEFAULT_TENANTS, self.horizon_s)
        self.runner._stage({spec.kind for spec in schedule})
        self.event_journal = None
        if self.journal:
            self.path = os.path.join(workdir, f"journal-{os.getpid()}.jsonl")
            self.event_journal = EventJournal(self.path)

    def run(self) -> None:
        self.started_at = self.runner.env.now
        self.report = self.runner.run(
            self.arrivals, horizon_s=self.horizon_s, journal=self.event_journal
        )
        if self.event_journal is not None:
            self.event_journal.close()

    def outcome(self, full: bool) -> Outcome:
        report = self.report
        failed = len(report.failed) + len(report.rejected) + len(report.unfinished)
        checks = {
            "every submission completes": len(report.completed) == report.submitted,
            "no submission fails or is rejected": failed == 0,
            "final backlog is 0": report.backlog[-1][1] == 0,
            "p99 latency >= p50": report.latency_percentile(99) >= report.latency_percentile(50),
        }
        rendered = report.render()
        digest_of = [rendered]
        counters = {"yarn.allocations": self.runner.hiway.rm.allocations}
        if self.journal:
            if full:
                checks["journal replay renders the live report"] = (
                    load_service_report(self.path).render() == rendered
                )
            with open(self.path, "rb") as handle:
                digest_of.append(hashlib.sha256(handle.read()).hexdigest())
            counters["obs.journal.bytes"] = os.path.getsize(self.path)
            os.remove(self.path)
        return Outcome(
            sim_s=self.runner.env.now - self.started_at,
            tasks=_successful_tasks(self.runner.registry),
            attempted=report.submitted,
            failed=failed,
            checks=checks,
            digest_of=digest_of,
            counters=counters,
        )


class ServiceJournal(ServicePoisson):
    """The same service run with an ``EventJournal`` writing to a file."""

    journal = True


WORKLOADS = {
    "fig9_heft": Fig9Heft,
    "snv_wide": SnvWide,
    "service_poisson": ServicePoisson,
    "service_journal": ServiceJournal,
}
