"""Micro/macro benchmark suite behind ``python -m repro bench``.

Runs kernel, flow solver, HDFS-locality, scheduler and end-to-end
benchmarks and writes the results as ``BENCH_<n>.json`` (schema below),
giving the repository a persistent performance trajectory: every change
lands next to the numbers it produced, and CI compares a fresh run
against the committed baseline.

JSON schema (``hiway-bench/1``)::

    {
      "schema": "hiway-bench/1",
      "python": "3.12.3", "platform": "Linux-...", "quick": false,
      "peak_rss_kb": 123456,            # process high-water mark
      "benchmarks": [
        {"name": "kernel_timeouts",
         "ops": 200000, "wall_seconds": 0.41,
         "ops_per_second": 487000.0, "peak_rss_kb": 120000},
        ...
      ]
    }

The ``calibration`` entry is a fixed pure-Python loop used to normalise
cross-machine comparisons: a machine that runs calibration 2x slower is
allowed to run every other benchmark 2x slower before anything counts
as a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import sys
import time
from typing import Callable

__all__ = [
    "run_benchmarks",
    "compare_results",
    "next_bench_path",
    "add_bench_arguments",
    "run_bench_command",
]

SCHEMA = "hiway-bench/1"


def _peak_rss_kb() -> int:
    """Process peak resident set size in KB (Linux reports KB natively)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        rss //= 1024
    return int(rss)


# -- individual benchmarks ----------------------------------------------------


def _bench_calibration(quick: bool) -> tuple[int, float]:
    """Fixed pure-Python loop; the cross-machine speed yardstick."""
    n = 2_000_000
    started = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * 3 % 7
    assert total > 0
    return n, time.perf_counter() - started


def _bench_kernel_timeouts(quick: bool) -> tuple[int, float]:
    """The dominant kernel pattern: timeout, resume, repeat."""
    from repro.sim import Environment

    n = 30_000 if quick else 200_000

    def ticker(env, count):
        for _ in range(count):
            yield env.timeout(1.0)

    env = Environment()
    env.process(ticker(env, n))
    started = time.perf_counter()
    env.run()
    return n, time.perf_counter() - started


def _bench_kernel_conditions(quick: bool) -> tuple[int, float]:
    """AllOf/AnyOf over wide constituent sets (stage-in barriers)."""
    from repro.sim import Environment

    rounds = 150 if quick else 1_000
    width = 100

    def waiter(env, rounds, width):
        for round_index in range(rounds):
            events = [env.timeout(1.0 + (i % 3)) for i in range(width)]
            if round_index % 2:
                yield env.any_of(events)
                yield env.all_of(events)
            else:
                yield env.all_of(events)

    env = Environment()
    env.process(waiter(env, rounds, width))
    started = time.perf_counter()
    env.run()
    return rounds * width, time.perf_counter() - started


def _bench_flow_rebalance(quick: bool) -> tuple[int, float]:
    """Flow churn against permanent background load (the Fig. 9 shape)."""
    from repro.sim import Environment
    from repro.sim.flows import FlowNetwork

    n = 600 if quick else 4_000
    env = Environment()
    net = FlowNetwork(env)
    cpus = [net.add_resource(f"cpu:{i}", 8.0, kind="cpu") for i in range(16)]
    disks = [net.add_resource(f"disk:{i}", 100.0, kind="disk") for i in range(16)]
    for i in range(16):
        net.start_flow(None, [cpus[i]], cap=2.0, weight=0.4, label="bg-cpu")
        net.start_flow(None, [disks[i]], weight=0.1, label="bg-io")

    def churn(env, net, count):
        for k in range(count):
            compute = net.start_flow(20.0, [cpus[k % 16]], cap=4.0)
            transfer = net.start_flow(50.0, [disks[(k + 5) % 16]])
            yield env.all_of([compute.done, transfer.done])

    env.process(churn(env, net, n))
    started = time.perf_counter()
    env.run()
    return 2 * n, time.perf_counter() - started


def _bench_flow_churn(quick: bool) -> tuple[int, float]:
    """Start/cancel churn against a large permanent background.

    The open-loop service shape: hundreds of long-lived background
    flows spread across many nodes while a rolling window of short
    tasks comes and goes (half of them cancelled, exercising removal).
    A from-scratch solver pays for every background flow on each
    change; the incremental solver re-fills one node's component.
    """
    from repro.sim import Environment
    from repro.sim.flows import FlowNetwork

    n = 400 if quick else 2_500
    env = Environment()
    net = FlowNetwork(env)
    nodes = [net.add_resource(f"node:{i}", 8.0, kind="cpu") for i in range(24)]
    for node in nodes:
        # Cap sum 9.0 > 8.0: every node stays contended throughout, so
        # task churn appends to / leaves an existing component.
        for _ in range(20):
            net.start_flow(None, [node], cap=0.45, weight=0.3, label="bg")

    def churn(env, net, count):
        live = []
        for k in range(count):
            live.append(
                net.start_flow(30.0, [nodes[k % 24]], cap=4.0, label="task")
            )
            if len(live) >= 8:
                live.pop(0).cancel()
            yield env.timeout(0.5)

    env.process(churn(env, net, n))
    started = time.perf_counter()
    env.run()
    return 2 * n, time.perf_counter() - started


def _bench_flow_components(quick: bool) -> tuple[int, float]:
    """Transfer churn across many independent racks.

    Each rack's uplink is its own contention component; sizes are
    staggered so completions land one at a time. Work per completion
    should track the size of the touched component, not the cluster:
    this is where component partitioning separates from a global
    re-solve, which pays for all racks on every event.
    """
    from repro.sim import Environment
    from repro.sim.flows import FlowNetwork

    rounds = 20 if quick else 120
    racks = 32
    env = Environment()
    net = FlowNetwork(env)
    links = [
        net.add_resource(f"uplink:{i}", 100.0, kind="net") for i in range(racks)
    ]
    for link in links:
        net.start_flow(None, [link], weight=0.2, label="bg")

    def churn(env, net, rounds):
        for r in range(rounds):
            transfers = [
                net.start_flow(25.0 + 3.0 * i, [links[i]], label="xfer")
                for i in range(racks)
            ]
            yield env.all_of([t.done for t in transfers])

    env.process(churn(env, net, rounds))
    started = time.perf_counter()
    env.run()
    return rounds * racks, time.perf_counter() - started


def _locality_fixture():
    from repro.cluster import Cluster, ClusterSpec, M3_LARGE
    from repro.hdfs import HdfsClient
    from repro.sim import Environment

    env = Environment()
    cluster = Cluster(
        env,
        ClusterSpec(worker_spec=M3_LARGE, worker_count=16, master_count=1),
    )
    hdfs = HdfsClient(cluster, seed=0)
    files = {f"/in/sample-{i:03d}": 256.0 for i in range(160)}
    hdfs.stage_many(files, seed=0)
    input_lists = [
        [f"/in/sample-{(4 * task + offset) % 160:03d}" for offset in range(4)]
        for task in range(160)
    ]
    return cluster, hdfs, input_lists


def _bench_hdfs_locality_query(quick: bool) -> tuple[int, float]:
    """Single-set locality fractions against the inverted index."""
    repeats = 3 if quick else 20
    cluster, hdfs, input_lists = _locality_fixture()
    namenode = hdfs.namenode
    workers = cluster.worker_ids
    started = time.perf_counter()
    for _ in range(repeats):
        for node_id in workers:
            for paths in input_lists:
                namenode.local_fraction(paths, node_id)
    wall = time.perf_counter() - started
    return repeats * len(workers) * len(input_lists), wall


def _bench_hdfs_batch_scoring(quick: bool) -> tuple[int, float]:
    """Batched all-eligible-tasks scoring (one NameNode call per node)."""
    repeats = 3 if quick else 20
    cluster, hdfs, input_lists = _locality_fixture()
    workers = cluster.worker_ids
    started = time.perf_counter()
    for _ in range(repeats):
        for node_id in workers:
            hdfs.local_fractions(input_lists, node_id)
    wall = time.perf_counter() - started
    return repeats * len(workers) * len(input_lists), wall


def _bench_scheduler_data_aware(quick: bool) -> tuple[int, float]:
    """data-aware select_task over a deep queue (scoring + cache churn)."""
    from repro.core.schedulers import DataAwareScheduler, SchedulerContext
    from repro.workflow import TaskSpec

    rounds = 10 if quick else 60
    cluster, hdfs, input_lists = _locality_fixture()
    workers = cluster.worker_ids
    selections = 0
    started = time.perf_counter()
    for round_index in range(rounds):
        scheduler = DataAwareScheduler()
        scheduler.bind(SchedulerContext(worker_ids=list(workers), hdfs=hdfs))
        for task_index, paths in enumerate(input_lists):
            scheduler.enqueue(TaskSpec(
                tool="align", inputs=list(paths),
                outputs=[f"/out/{round_index}-{task_index}"],
                task_id=f"t{round_index}-{task_index}",
            ))
        node = 0
        while scheduler.pending_count():
            scheduler.select_task(workers[node % len(workers)])
            selections += 1
            node += 1
    return selections, time.perf_counter() - started


def _bench_rm_serve_pending(quick: bool) -> tuple[int, float]:
    """RM allocation churn under a deep multi-tenant backlog (fair policy).

    Many applications keep a deep request backlog while containers churn;
    every release triggers a serve pass. This is the path the per-tenant
    queues keep incremental (the old code re-sorted the whole global
    backlog on each pass).
    """
    from repro.cluster import Cluster, ClusterSpec, M3_LARGE
    from repro.obs.events import ContainerAllocated
    from repro.sim import Environment
    from repro.yarn import ContainerResource, ResourceManager

    apps = 8
    backlog_per_app = 60 if quick else 240
    env = Environment()
    cluster = Cluster(
        env,
        ClusterSpec(worker_spec=M3_LARGE, worker_count=16, master_count=1),
    )
    rm = ResourceManager(env, cluster, policy="fair")
    granted: list = []
    cluster.bus.subscribe(
        ContainerAllocated,
        lambda event: granted.append((event.node_id, event.container_id)),
    )
    resource = ContainerResource(vcores=1, memory_mb=512.0)
    handles = [rm.register_application(f"bench-{i}") for i in range(apps)]
    started = time.perf_counter()
    for round_index in range(backlog_per_app):
        for handle in handles:
            rm.request_container(handle, resource)
    env.run()
    # Churn: release whatever was granted, letting the backlog drain in
    # waves until every request has been served once.
    while rm.pending_request_count() > 0 or granted:
        wave, granted = granted, []
        for node_id, container_id in wave:
            nm = rm.node_managers[node_id]
            rm.release_container(nm.containers[container_id])
        env.run()
    wall = time.perf_counter() - started
    assert rm.allocations == apps * backlog_per_app
    return rm.allocations, wall


def _bench_end_to_end_snv(quick: bool) -> tuple[int, float]:
    """Whole-system run: SNV weak-scaling workflow on a small cluster."""
    from repro.experiments.table2 import Table2Config, run_weak_scaling_once

    workers = 2 if quick else 4
    config = Table2Config()
    started = time.perf_counter()
    _, hiway = run_weak_scaling_once(config, workers, seed=0)
    wall = time.perf_counter() - started
    tasks = int(hiway.registry.value(
        "hiway_task_attempts_total", outcome="success"
    ))
    return max(tasks, 1), wall


def _bench_service_openloop(quick: bool) -> tuple[int, float]:
    """Whole-system run: the open-loop traffic harness at service pace.

    Exercises the long-lived-installation path (one RM + admission
    controller over many arrivals) that none of the single-workflow
    benchmarks touch: AM churn, admission queueing, per-arrival
    staging-free submission, and the sampler's series recording.
    """
    from repro.service import ServiceConfig, ServiceRunner, make_arrivals

    horizon = 1800.0 if quick else 3600.0
    runner = ServiceRunner(ServiceConfig(
        workers=4, max_concurrent_apps=4, sample_period_s=120.0, seed=0,
    ))
    started = time.perf_counter()
    report = runner.run(
        make_arrivals("poisson", 30.0 / 3600.0, seed=0), horizon_s=horizon
    )
    wall = time.perf_counter() - started
    assert report.submitted > 0 and not report.failed
    return report.submitted, wall


def _bench_obs_journal(quick: bool) -> tuple[int, float]:
    """Event-journal overhead: the service run with the journal attached.

    Measures the wall cost of serialising every bus event to JSONL while
    the open-loop harness runs — the knob an operator weighs when
    deciding to leave ``--events-out`` on in production. Ops is the
    number of events journalled, so ops/s is the journal's sustained
    event rate (compare wall against ``service_openloop``, the same run
    detached).
    """
    import io

    from repro.obs.journal import EventJournal
    from repro.service import ServiceConfig, ServiceRunner, make_arrivals

    horizon = 1800.0 if quick else 3600.0
    runner = ServiceRunner(ServiceConfig(
        workers=4, max_concurrent_apps=4, sample_period_s=120.0, seed=0,
    ))
    journal = EventJournal(io.StringIO())
    started = time.perf_counter()
    report = runner.run(
        make_arrivals("poisson", 30.0 / 3600.0, seed=0),
        horizon_s=horizon,
        journal=journal,
    )
    wall = time.perf_counter() - started
    assert report.submitted > 0 and not report.failed
    assert journal.events_written > 0
    return journal.events_written, wall


def _bench_end_to_end_fig9(quick: bool) -> tuple[int, float]:
    """Whole-system run: the Fig. 9 stressed-cluster HEFT harness."""
    from repro.experiments.fig9 import Fig9Config, _one_experiment

    runs = 1 if quick else 3
    config = Fig9Config(consecutive_heft_runs=runs, experiment_repeats=1)
    started = time.perf_counter()
    _one_experiment(config, seed=0)
    wall = time.perf_counter() - started
    return 1 + runs, wall  # workflow executions (FCFS + HEFT runs)


#: name -> benchmark callable returning (ops, wall_seconds).
BENCHMARKS: dict[str, Callable[[bool], tuple[int, float]]] = {
    "calibration": _bench_calibration,
    "kernel_timeouts": _bench_kernel_timeouts,
    "kernel_conditions": _bench_kernel_conditions,
    "flow_rebalance": _bench_flow_rebalance,
    "flow_churn": _bench_flow_churn,
    "flow_components": _bench_flow_components,
    "hdfs_locality_query": _bench_hdfs_locality_query,
    "hdfs_batch_scoring": _bench_hdfs_batch_scoring,
    "scheduler_data_aware": _bench_scheduler_data_aware,
    "rm_serve_pending": _bench_rm_serve_pending,
    "end_to_end_snv": _bench_end_to_end_snv,
    "end_to_end_fig9": _bench_end_to_end_fig9,
    "service_openloop": _bench_service_openloop,
    "obs_journal": _bench_obs_journal,
}


# -- harness ------------------------------------------------------------------


def run_benchmarks(
    quick: bool = False, echo=None, benchmarks=None, repeats: int = 3,
) -> dict:
    """Run the suite; returns the ``hiway-bench/1`` document.

    ``benchmarks`` narrows the run to a ``{name: callable}`` subset
    (default: the full :data:`BENCHMARKS` registry). Each benchmark is
    run ``repeats`` times and the fastest pass is reported — timing
    noise is one-sided (preemption only ever slows a run down), so
    best-of-N is the stable estimator of the code's actual speed. The
    document is stamped with the flow solver's ``solver_version``.
    """
    from repro.sim import SOLVER_VERSION

    results = []
    for name, bench in (BENCHMARKS if benchmarks is None else benchmarks).items():
        ops, wall = bench(quick)
        for _ in range(max(0, repeats - 1)):
            repeat_ops, repeat_wall = bench(quick)
            if repeat_ops / repeat_wall > ops / wall:
                ops, wall = repeat_ops, repeat_wall
        results.append({
            "name": name,
            "ops": ops,
            "wall_seconds": round(wall, 6),
            "ops_per_second": round(ops / wall, 3) if wall > 0 else 0.0,
            "peak_rss_kb": _peak_rss_kb(),
        })
        if echo is not None:
            echo(
                f"  {name:<24} {ops:>9} ops  {wall:>9.3f}s  "
                f"{results[-1]['ops_per_second']:>14,.0f} ops/s"
            )
    document = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "solver_version": SOLVER_VERSION,
        "peak_rss_kb": _peak_rss_kb(),
        "benchmarks": results,
    }
    return document


def next_bench_path(directory: str = ".") -> str:
    """First unused ``BENCH_<n>.json`` path inside ``directory``."""
    taken = set()
    for entry in os.listdir(directory or "."):
        match = re.fullmatch(r"BENCH_(\d+)\.json", entry)
        if match:
            taken.add(int(match.group(1)))
    index = 1
    while index in taken:
        index += 1
    return os.path.join(directory or ".", f"BENCH_{index}.json")


def compare_results(
    current: dict, baseline: dict, tolerance: float = 0.25
) -> list[str]:
    """Regression report: benchmarks slower than baseline beyond tolerance.

    Throughputs are normalised for machine speed before comparing, so a
    uniformly slower machine (e.g. a CI runner vs the laptop that
    produced the baseline) does not count as a regression. The speed
    factor is the *median* current/baseline ratio across all shared
    benchmarks: the tight ``calibration`` loop alone tracks raw
    arithmetic speed but not the generator/attribute-heavy paths the
    real benchmarks exercise, and its residual bias dwarfs a tight
    tolerance. The median absorbs any machine-wide drift while a
    localised regression (fewer than half the benchmarks) still sticks
    out against it.
    """

    def throughputs(document: dict) -> dict[str, float]:
        return {
            entry["name"]: float(entry["ops_per_second"])
            for entry in document.get("benchmarks", [])
            if entry.get("ops_per_second")
        }

    current_tp = throughputs(current)
    baseline_tp = throughputs(baseline)
    ratios = sorted(
        current_tp[name] / ops
        for name, ops in baseline_tp.items()
        if name in current_tp
    )
    # Upper-middle rather than interpolated median: regressions only
    # pull ratios *down*, so rounding the estimate upward keeps a
    # regressed benchmark from dragging the machine-speed scale with it
    # (which matters when few benchmarks are shared).
    scale = ratios[len(ratios) // 2] if ratios else 1.0
    regressions = []
    for name, base_ops in sorted(baseline_tp.items()):
        if name == "calibration" or name not in current_tp:
            continue
        allowed = base_ops * scale * (1.0 - tolerance)
        if current_tp[name] < allowed:
            ratio = current_tp[name] / (base_ops * scale)
            regressions.append(
                f"{name}: {current_tp[name]:,.0f} ops/s is "
                f"{(1 - ratio) * 100:.0f}% below the normalised baseline "
                f"({base_ops * scale:,.0f} ops/s, tolerance "
                f"{tolerance * 100:.0f}%)"
            )
    return regressions


# -- CLI ----------------------------------------------------------------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Mount the ``bench`` subcommand's arguments on ``parser``."""
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts (CI smoke run)")
    parser.add_argument("--out", metavar="PATH",
                        help="output JSON path (default: next BENCH_<n>.json "
                        "in the current directory)")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="compare against a previous BENCH_*.json and "
                        "exit non-zero on regressions")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalised slowdown before --compare "
                        "fails (default: 0.25)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N passes per benchmark (default: 3); "
                        "raise this when gating with a tight --tolerance — "
                        "best-of-N variance shrinks with N")


def run_bench_command(args) -> int:
    """Execute the ``bench`` subcommand; returns the exit code."""
    print(f"running {len(BENCHMARKS)} benchmarks "
          f"({'quick' if args.quick else 'full'} mode)...")
    document = run_benchmarks(
        quick=args.quick, echo=print, repeats=getattr(args, "repeats", 3),
    )
    out_path = args.out or next_bench_path(".")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"results written to {out_path} "
          f"(peak RSS {document['peak_rss_kb'] / 1024:.0f} MB)")
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = compare_results(
            document, baseline, tolerance=args.tolerance
        )
        if regressions:
            print(f"PERFORMANCE REGRESSIONS vs {args.compare}:",
                  file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.compare} "
              f"(tolerance {args.tolerance * 100:.0f}%)")
    return 0
