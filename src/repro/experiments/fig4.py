"""Figure 4: SNV calling on Hi-WAY vs. Tez, local cluster (Sec. 4.1).

The variant-calling workflow — implemented in Cuneiform for Hi-WAY and
as a vertex DAG for Tez — runs on a 24-node cluster of dual Xeon E5-2620
machines hanging off a single one-gigabit switch, with 72 to 576
one-core containers. Input reads are staged into HDFS beforehand, so at
scale the switch becomes the bottleneck; Hi-WAY's data-aware scheduler
keeps alignment input local and therefore keeps scaling after Tez's
locality-blind placement saturates the network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines.tez import TezApplicationMaster
from repro.cluster import Cluster, ClusterSpec, XEON_E5_2620
from repro.core import HiWay, HiWayConfig
from repro.experiments.common import (
    ExperimentTable,
    jain_index,
    mean,
    minutes,
    percentile,
    std,
)
from repro.obs.events import (
    ContainerAllocated,
    ContainerReleased,
    ContainerRequested,
)
from repro.hdfs import HdfsClient
from repro.langs import CuneiformSource
from repro.perf import run_grid
from repro.sim import Environment
from repro.tools import default_registry
from repro.workloads import SNV_TOOLS, sample_read_files, snv_cuneiform, snv_graph
from repro.yarn import ContainerResource, ResourceManager

__all__ = [
    "Fig4Config",
    "run_fig4",
    "run_fig4_standard",
    "run_fig4_full",
    "Fig4ConcurrentConfig",
    "run_fig4_concurrent",
]


@dataclass(frozen=True)
class Fig4Config:
    """Parameters of the Figure 4 reproduction."""

    node_count: int = 24
    container_counts: tuple[int, ...] = (72, 144, 288, 576)
    samples: int = 96
    files_per_sample: int = 8
    mb_per_file: float = 1024.0
    backbone_mb_s: float = 100.0
    runs: int = 3

    @classmethod
    def quick(cls) -> "Fig4Config":
        """A laptop-sized variant preserving the experiment's shape.

        Twelve nodes keep random placement's accidental locality low
        (3/12 vs the full setup's 3/24) and the backbone is scaled with
        the data volume so the network still saturates at the two
        largest container counts.
        """
        return cls(
            node_count=12,
            container_counts=(12, 24, 48, 96),
            samples=18,
            files_per_sample=8,
            mb_per_file=256.0,
            backbone_mb_s=15.0,
            runs=1,
        )

    @classmethod
    def standard(cls) -> "Fig4Config":
        """The scale of the committed ``results/fig4`` table.

        The paper's 24-node topology with a third of its containers and
        36 samples of 8 x 512 MB, one run per point. The 30 MB/s switch
        makes it the one committed table where the backbone binds.
        """
        return cls(
            node_count=24,
            container_counts=(24, 48, 96, 192),
            samples=36,
            files_per_sample=8,
            mb_per_file=512.0,
            backbone_mb_s=30.0,
            runs=1,
        )


def _cluster_spec(config: Fig4Config) -> ClusterSpec:
    return ClusterSpec(
        worker_spec=XEON_E5_2620,
        worker_count=config.node_count,
        master_count=1,
        backbone_mb_s=config.backbone_mb_s,
    )


def _run_hiway(config: Fig4Config, containers: int, seed: int) -> float:
    env = Environment()
    cluster = Cluster(env, _cluster_spec(config))
    hdfs = HdfsClient(cluster, seed=seed)
    rm = ResourceManager(
        env, cluster, max_containers_per_node=containers // config.node_count
    )
    hiway = HiWay(
        cluster,
        hdfs=hdfs,
        rm=rm,
        config=HiWayConfig(container_vcores=1, container_memory_mb=1024.0),
    )
    hiway.install_everywhere(*SNV_TOOLS)
    inputs = sample_read_files(
        config.samples,
        files_per_sample=config.files_per_sample,
        mb_per_file=config.mb_per_file,
    )
    hiway.stage_inputs(inputs)
    result = hiway.run(
        CuneiformSource(snv_cuneiform(inputs), name="snv"), scheduler="data-aware"
    )
    assert result.success, result.diagnostics
    return result.runtime_seconds


def _run_tez(config: Fig4Config, containers: int, seed: int) -> float:
    env = Environment()
    cluster = Cluster(env, _cluster_spec(config))
    hdfs = HdfsClient(cluster, seed=seed)
    rm = ResourceManager(
        env, cluster, max_containers_per_node=containers // config.node_count
    )
    tools = default_registry()
    for node in cluster.all_nodes():
        node.install(*SNV_TOOLS)
    inputs = sample_read_files(
        config.samples,
        files_per_sample=config.files_per_sample,
        mb_per_file=config.mb_per_file,
    )
    hdfs.stage_many(inputs, seed=seed)
    am = TezApplicationMaster(
        cluster, hdfs, rm, tools, snv_graph(inputs),
        container_resource=ContainerResource(vcores=1, memory_mb=1024.0),
    )
    process = env.process(am.run())
    env.run(until=process)
    result = process.value
    assert result.success, result.diagnostics
    return result.runtime_seconds


def _fig4_unit(system: str, config: Fig4Config, containers: int, seed: int) -> float:
    """One grid point (picklable for the process-pool runner)."""
    runner = _run_hiway if system == "hiway" else _run_tez
    return minutes(runner(config, containers, seed))


def run_fig4(
    config: Fig4Config | None = None,
    quick: bool = False,
    jobs: int | None = 1,
) -> ExperimentTable:
    """Regenerate the Figure 4 series (mean runtime vs containers).

    ``jobs`` spreads the (system x containers x seed) grid over a
    process pool (``None`` = all cores); results merge in grid order,
    so the table is identical to a serial run.
    """
    if config is None:
        config = Fig4Config.quick() if quick else Fig4Config()
    table = ExperimentTable(
        experiment_id="fig4",
        title="SNV calling runtime, Hi-WAY (data-aware) vs Tez",
        columns=[
            "containers",
            "hiway_min", "hiway_std",
            "tez_min", "tez_std",
            "tez/hiway",
        ],
        notes=(
            f"{config.node_count} Xeon nodes, {config.samples} samples x "
            f"{config.files_per_sample} x {config.mb_per_file:.0f} MB, "
            f"{config.backbone_mb_s:.0f} MB/s switch, {config.runs} run(s)"
        ),
    )
    params = [
        (system, config, containers, seed)
        for containers in config.container_counts
        for system in ("hiway", "tez")
        for seed in range(config.runs)
    ]
    results = iter(run_grid(_fig4_unit, params, jobs=jobs))
    for containers in config.container_counts:
        hiway_runs = [next(results) for _ in range(config.runs)]
        tez_runs = [next(results) for _ in range(config.runs)]
        table.add_row(
            containers,
            mean(hiway_runs), std(hiway_runs),
            mean(tez_runs), std(tez_runs),
            mean(tez_runs) / mean(hiway_runs),
        )
    return table


def run_fig4_standard(quick: bool = False, jobs: int | None = 1) -> ExperimentTable:
    """``results/fig4``: Figure 4 at :meth:`Fig4Config.standard` scale."""
    return run_fig4(Fig4Config.quick() if quick else Fig4Config.standard(), jobs=jobs)


def run_fig4_full(quick: bool = False, jobs: int | None = 1) -> ExperimentTable:
    """``results/fig4_full``: the paper's full setup, one run per point."""
    return run_fig4(Fig4Config.quick() if quick else Fig4Config(runs=1), jobs=jobs)


# -- concurrent multi-workflow variant (workflow-as-a-service, Sec. 3.1) ----------


@dataclass(frozen=True)
class Fig4ConcurrentConfig:
    """Parameters of the multi-tenant Figure 4 variant.

    One YARN RM, one HDFS, N Hi-WAY AMs at once — the paper's "many
    independent AMs sharing one installation" deployment, pushed to
    service scale (16..256 tenants). The workload is *heterogeneous* in
    width: every ``wide_every``-th workflow processes ``wide_samples``
    samples, the rest ``narrow_samples`` — the mix where a
    locality-blind, arrival-ordered allocator lets wide tenants starve
    narrow ones, which is exactly what the fair-share/DRF allocation
    policies exist to prevent.
    """

    node_count: int = 24
    containers: int = 96
    wide_samples: int = 8
    narrow_samples: int = 2
    #: Every k-th workflow (k % wide_every == 0) is wide.
    wide_every: int = 4
    files_per_sample: int = 4
    mb_per_file: float = 256.0
    backbone_mb_s: float = 100.0
    workflow_counts: tuple[int, ...] = (16, 64, 256)
    #: RM allocation policies compared at every point.
    policies: tuple[str, ...] = ("fifo", "fair", "drf")
    #: Seconds between successive workflow submissions. Staggered
    #: arrivals are what make allocation policy matter: a workflow
    #: arriving at a busy service queues behind the incumbent tenants'
    #: entire backlog under fifo, while fair/drf hand it the next free
    #: container (it holds nothing yet).
    submit_interval_s: float = 30.0

    @classmethod
    def quick(cls) -> "Fig4ConcurrentConfig":
        return cls(
            node_count=8,
            containers=24,
            wide_samples=4,
            narrow_samples=1,
            files_per_sample=2,
            mb_per_file=64.0,
            backbone_mb_s=15.0,
            workflow_counts=(4, 16),
            submit_interval_s=30.0,
        )

    def samples_of(self, k: int) -> int:
        """Sample count (work width) of workflow ``k``."""
        return self.wide_samples if k % self.wide_every == 0 else self.narrow_samples


def _run_hiway_concurrent(
    config: Fig4ConcurrentConfig, n_workflows: int, policy: str, seed: int
) -> tuple[float, list[float], list[int], list[float], float]:
    """One grid point: N concurrent SNV workflows on one installation.

    Returns ``(makespan_seconds, per-workflow runtimes, per-workflow
    sample counts, container wait samples, fairness)``. ``fairness`` is
    the *time-averaged instantaneous* Jain index: at every allocation
    event, Jain's index is taken over the containers held by each tenant
    with live demand (holding or waiting for containers), weighted by
    how long that distribution persisted, and averaged over the
    contended intervals (two or more such tenants). This measures what
    the allocation policy actually controls — how equally the cluster is
    split among the tenants competing *at each moment* — and is
    insensitive to tenants entering/leaving or wanting different totals.
    Each workflow gets its own input prefix (``/wf-K/...``), source name
    (``snv-K`` → outputs under ``/cf/snv-K/``) and tenant identity
    (``wf-K``), so the N workflows share HDFS and the RM without
    colliding.
    """
    env = Environment()
    cluster = Cluster(
        env,
        ClusterSpec(
            worker_spec=XEON_E5_2620,
            worker_count=config.node_count,
            master_count=1,
            backbone_mb_s=config.backbone_mb_s,
        ),
    )
    hdfs = HdfsClient(cluster, seed=seed)
    rm = ResourceManager(
        env,
        cluster,
        max_containers_per_node=max(1, config.containers // config.node_count),
        policy=policy,
    )
    hiway = HiWay(
        cluster,
        hdfs=hdfs,
        rm=rm,
        config=HiWayConfig(container_vcores=1, container_memory_mb=1024.0),
    )
    hiway.install_everywhere(*SNV_TOOLS)
    waits: list[float] = []
    tenant_of_container: dict[str, str] = {}
    held: dict[str, int] = {}  # tenant -> containers held now
    wanted: dict[str, int] = {}  # tenant -> requests waiting now
    acc = {"t": 0.0, "num": 0.0, "den": 0.0}

    def settle(now: float) -> None:
        """Charge the current distribution for the time it persisted."""
        dt = now - acc["t"]
        acc["t"] = now
        if dt <= 0:
            return
        competing = [
            held.get(tenant, 0)
            for tenant in set(held) | set(wanted)
            if held.get(tenant, 0) > 0 or wanted.get(tenant, 0) > 0
        ]
        if len(competing) >= 2:
            acc["num"] += jain_index(competing) * dt
            acc["den"] += dt

    def on_requested(event):
        settle(event.t)
        wanted[event.tenant] = wanted.get(event.tenant, 0) + 1

    def on_allocated(event):
        settle(event.t)
        waits.append(event.wait_seconds)
        tenant_of_container[event.container_id] = event.tenant
        wanted[event.tenant] = max(0, wanted.get(event.tenant, 0) - 1)
        held[event.tenant] = held.get(event.tenant, 0) + 1

    def on_released(event):
        tenant = tenant_of_container.pop(event.container_id, None)
        if tenant is not None:
            settle(event.t)
            held[tenant] = max(0, held.get(tenant, 0) - 1)

    cluster.bus.subscribe({
        ContainerRequested: on_requested,
        ContainerAllocated: on_allocated,
        ContainerReleased: on_released,
    })
    sources, tenants, works = [], [], []
    for k in range(n_workflows):
        samples = config.samples_of(k)
        base = sample_read_files(
            samples,
            files_per_sample=config.files_per_sample,
            mb_per_file=config.mb_per_file,
        )
        inputs = {f"/wf-{k}{path}": size for path, size in base.items()}
        hiway.stage_inputs(inputs, seed=seed + k)
        sources.append(CuneiformSource(snv_cuneiform(inputs), name=f"snv-{k}"))
        tenants.append(f"wf-{k}")
        works.append(samples)
    started = env.now

    def submit_after(delay, source, tenant):
        if delay > 0:
            yield env.timeout(delay)
        result = yield hiway.submit(source, scheduler="data-aware", tenant=tenant)
        return result

    processes = [
        env.process(submit_after(k * config.submit_interval_s, source, tenant))
        for k, (source, tenant) in enumerate(zip(sources, tenants))
    ]
    env.run(until=env.all_of(processes))
    results = [process.value for process in processes]
    for result in results:
        assert result.success, result.diagnostics
    makespan = max(result.finished_at for result in results) - started
    runtimes = [r.runtime_seconds for r in results]
    settle(env.now)
    fairness = acc["num"] / acc["den"] if acc["den"] > 0 else 1.0
    return makespan, runtimes, works, waits, fairness


def _fig4_concurrent_unit(
    config: Fig4ConcurrentConfig, n_workflows: int, policy: str, seed: int
) -> tuple[float, list[float], list[int], list[float], float]:
    """One grid point (picklable for the process-pool runner)."""
    return _run_hiway_concurrent(config, n_workflows, policy, seed)


def run_fig4_concurrent(
    config: Fig4ConcurrentConfig | None = None,
    quick: bool = False,
    jobs: int | None = 1,
    workflow_counts: tuple[int, ...] | None = None,
    policies: tuple[str, ...] | None = None,
) -> ExperimentTable:
    """Fairness and throughput of N concurrent workflows per RM policy.

    Per point the table reports the makespan, the time-averaged
    instantaneous Jain fairness index over competing tenants' held
    containers (1.0 when, at every contended moment, each tenant with
    live demand held an equal slice — see
    :func:`_run_hiway_concurrent`), the p50/p95 container allocation
    wait, and ``efficiency``: the makespan compared against running the
    same total work back-to-back at the single-workflow rate (1.0 means
    concurrency was free).
    """
    if config is None:
        config = Fig4ConcurrentConfig.quick() if quick else Fig4ConcurrentConfig()
    if workflow_counts is not None:
        config = replace(config, workflow_counts=tuple(workflow_counts))
    if policies is not None:
        config = replace(config, policies=tuple(policies))
    table = ExperimentTable(
        experiment_id="fig4-concurrent",
        title=(
            "Concurrent SNV workflows sharing one RM "
            "(Hi-WAY data-aware; fifo vs fair vs drf allocation)"
        ),
        columns=[
            "workflows", "policy",
            "makespan_min",
            "jain",
            "wait_p50_s", "wait_p95_s",
            "efficiency",
        ],
        notes=(
            f"{config.node_count} Xeon nodes, {config.containers} containers, "
            f"width mix {config.wide_samples}/{config.narrow_samples} samples "
            f"(1 wide per {config.wide_every}) x {config.files_per_sample} x "
            f"{config.mb_per_file:.0f} MB, {config.backbone_mb_s:.0f} MB/s "
            f"switch"
        ),
    )
    # One uncontended single-workflow run anchors the serial baseline all
    # efficiencies are measured against, then the (N x policy) grid.
    params = [(config, 1, "fifo", 0)] + [
        (config, n, policy, 0)
        for n in config.workflow_counts
        for policy in config.policies
    ]
    results = iter(run_grid(_fig4_concurrent_unit, params, jobs=jobs))
    base_makespan, _, base_works, _, _ = next(results)
    serial_rate = base_makespan / sum(base_works)  # seconds per sample
    for n_workflows in config.workflow_counts:
        for policy in config.policies:
            makespan, runtimes, works, waits, fairness = next(results)
            table.add_row(
                n_workflows, policy,
                minutes(makespan),
                fairness,
                percentile(waits, 50.0), percentile(waits, 95.0),
                (sum(works) * serial_rate) / makespan,
            )
    return table
