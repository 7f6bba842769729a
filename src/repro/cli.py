"""The light-weight Hi-WAY client as a command line (Sec. 3.1).

"To submit workflows for execution, Hi-WAY provides a light-weight
client program" — this module is that client for the simulated
installation: it provisions a cluster, installs tools, stages inputs,
submits a workflow file in any supported language, and reports the
outcome (optionally saving the re-executable provenance trace).

Usage::

    python -m repro run workflow.cf --workers 4 \\
        --input /in/data.csv=256 --scheduler data-aware \\
        --trace-out run.trace
    python -m repro run run.trace --workers 2      # re-execute a trace
    python -m repro trace workflow.cf --workers 4 \\
        --input /in/data.csv=256 --out run.json    # Chrome about:tracing
    python -m repro report workflow.cf --workers 4 \\
        --input /in/data.csv=256                   # critical path + metrics
    python -m repro explain workflow.cf join \\
        --input /in/data.csv=256                   # why task 'join' landed there
    python -m repro serve-sim --arrival poisson --rate-per-h 12 \\
        --horizon-s 86400 --seed 42                # a day of service traffic
    python -m repro serve-sim --horizon-s 86400 --live \\
        --events-out day.jsonl                     # live SLO + event journal
    python -m repro report --from-journal day.jsonl   # offline, byte-identical
    python -m repro slo-watch day.jsonl            # burn-rate / straggler scan
    python -m repro explain-submission day.jsonl genomics/snv-0007
    python -m repro report workflow.dax --engine tez \\
        --input /in/data.csv=256                   # same report, Tez engine
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.cluster import C3_2XLARGE, Cluster, ClusterSpec, M3_LARGE, XEON_E5_2620
from repro.core import HiWay, HiWayConfig, SCHEDULER_NAMES
from repro.core.provenance import TraceFileStore
from repro.errors import ReproError
from repro.hdfs import HdfsClient
from repro.langs import parse_workflow
from repro.sim import Environment
from repro.tools import default_registry
from repro.yarn import ContainerResource, ResourceManager

__all__ = ["main", "build_parser"]

NODE_TYPES = {
    "m3.large": M3_LARGE,
    "c3.2xlarge": C3_2XLARGE,
    "xeon": XEON_E5_2620,
}


def _checked(convert, holds, requirement: str):
    """An argparse ``type=`` converting with ``convert`` and exiting
    with a usage error unless ``holds(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {convert.__name__}, got {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value
    return parse


#: Periods, windows, sizes and rates; a zero sample period would never
#: terminate, and a zero-capacity node or link never finishes a task.
_positive_float = _checked(float, lambda value: value > 0, "positive")
#: Workers, containers and vcores: at least one to run anything on.
_positive_int = _checked(int, lambda value: value > 0, "positive")
#: Row caps, admission caps, submission counts (0 is meaningful).
_non_negative_int = _checked(int, lambda value: value >= 0, "non-negative")
#: Offsets, durations and populations that may be zero.
_non_negative_float = _checked(float, lambda value: value >= 0, "non-negative")
#: A diurnal amplitude: the rate swings by at most its mean.
_fraction = _checked(float, lambda value: 0 <= value <= 1, "in [0, 1]")
#: A burst multiplies the base rate, never thins it.
_multiplier = _checked(float, lambda value: value >= 1, "at least 1")
#: Series decimation keeps every second sample, so it needs two.
_series_bound = _checked(int, lambda value: value >= 2, "at least 2")


def _parse_size_spec(spec: str) -> tuple[str, float]:
    """``/path=SIZE_MB`` -> (path, size)."""
    path, separator, size = spec.partition("=")
    if not separator or not path:
        raise argparse.ArgumentTypeError(
            f"expected PATH=SIZE_MB, got {spec!r}"
        )
    try:
        return path, float(size)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size in {spec!r}") from None


def _parse_binding(spec: str) -> tuple[str, str]:
    """``label=/path`` -> (label, path) for Galaxy input steps."""
    label, separator, path = spec.partition("=")
    if not separator or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {spec!r}")
    return label, path


def _parse_tenant_quota(spec: str) -> tuple[str, int, Optional[int]]:
    """``TENANT=MAX_CONTAINERS[:MAX_VCORES]`` -> (tenant, max, vcores)."""
    tenant, separator, caps = spec.partition("=")
    if not separator or not tenant or not caps:
        raise argparse.ArgumentTypeError(
            f"expected TENANT=MAX_CONTAINERS[:MAX_VCORES], got {spec!r}"
        )
    containers, _, vcores = caps.partition(":")
    try:
        return (
            tenant,
            int(containers),
            int(vcores) if vcores else None,
        )
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad quota in {spec!r}") from None


def _parse_tenant_profile(spec: str):
    """``NAME[:WEIGHT][=KIND:SHARE,...]`` -> TenantProfile.

    Examples: ``genomics:2=snv:3,rnaseq:1`` (weight 2, 3:1 SNV to
    RNA-seq), ``astro=montage:1``, ``ops`` (weight 1, uniform mix).
    """
    from repro.service import TenantProfile

    head, separator, mix_text = spec.partition("=")
    name, _, weight_text = head.partition(":")
    if not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME[:WEIGHT][=KIND:SHARE,...], got {spec!r}"
        )
    try:
        weight = float(weight_text) if weight_text else 1.0
        kwargs = {}
        if separator:
            mix = {}
            for part in mix_text.split(","):
                kind, _, share = part.partition(":")
                mix[kind.strip()] = float(share) if share else 1.0
            kwargs["mix"] = mix
        return TenantProfile(name, weight=weight, **kwargs)
    except (ValueError, argparse.ArgumentTypeError):
        raise
    except Exception as error:
        raise argparse.ArgumentTypeError(
            f"bad tenant profile {spec!r}: {error}"
        ) from None


def _add_workflow_arguments(
    parser: argparse.ArgumentParser, workflow_optional: bool = False
) -> None:
    """Arguments shared by every workflow-executing subcommand."""
    if workflow_optional:
        parser.add_argument("workflow", nargs="?",
                            help="workflow file (any supported language); "
                            "optional with --from-journal")
    else:
        parser.add_argument("workflow", help="workflow file (any supported language)")
    parser.add_argument("--language", choices=["cuneiform", "dax", "galaxy", "trace", "cwl"],
                        help="skip auto-detection")
    parser.add_argument("--workers", type=_positive_int, default=4)
    parser.add_argument("--masters", type=int, default=1)
    parser.add_argument("--node-type", choices=sorted(NODE_TYPES), default="m3.large")
    parser.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="data-aware")
    parser.add_argument("--input", dest="inputs", type=_parse_size_spec,
                        action="append", default=[], metavar="PATH=SIZE_MB",
                        help="stage an input file (repeatable)")
    parser.add_argument("--bind", dest="bindings", type=_parse_binding,
                        action="append", default=[], metavar="LABEL=PATH",
                        help="bind a Galaxy input step to a staged file")
    parser.add_argument("--install", dest="tools", action="append", default=[],
                        metavar="TOOL", help="install only these tools "
                        "(default: every built-in profile)")
    parser.add_argument("--container-vcores", type=_positive_int, default=1)
    parser.add_argument("--container-memory-mb", type=_positive_float,
                        default=1024.0)
    parser.add_argument("--containers-per-node", type=_positive_int,
                        default=None)
    parser.add_argument("--backbone-mb-s", type=_positive_float,
                        default=10_000.0)
    parser.add_argument("--rm-policy", choices=["fifo", "fair", "drf"],
                        default="fifo",
                        help="cross-application RM allocation policy "
                        "(default: fifo)")
    parser.add_argument("--tenant", default=None, metavar="NAME",
                        help="YARN queue the workflow submits under "
                        "(default: its own app id)")
    parser.add_argument("--tenant-quota", dest="tenant_quotas",
                        type=_parse_tenant_quota, action="append", default=[],
                        metavar="TENANT=MAX[:VCORES]",
                        help="cap a tenant's concurrently held containers "
                        "(and optionally vcores); repeatable")
    parser.add_argument("--quiet", action="store_true")


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=["hiway", "tez", "cloudman"],
                        default="hiway",
                        help="execution engine to run the workflow on "
                        "(default: hiway); tez/cloudman need a static "
                        "workflow graph (DAX, Galaxy, trace)")


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments of the ``serve-sim`` subcommand."""
    from repro.service import ARRIVAL_NAMES

    traffic = parser.add_argument_group("traffic")
    traffic.add_argument("--arrival", choices=ARRIVAL_NAMES, default="poisson",
                         help="arrival process shape (default: poisson)")
    traffic.add_argument("--rate-per-h", type=float, default=12.0,
                         help="mean arrivals per hour (default: 12)")
    traffic.add_argument("--users", type=_non_negative_float, default=None,
                         help="derive the rate from a simulated user "
                         "population instead of --rate-per-h")
    traffic.add_argument("--requests-per-user-hour",
                         type=_non_negative_float, default=0.5,
                         help="workflows each user submits per hour "
                         "(with --users; default: 0.5)")
    traffic.add_argument("--horizon-s", type=_positive_float, default=3600.0,
                         help="arrival window in simulated seconds "
                         "(default: 3600)")
    traffic.add_argument("--seed", type=int, default=0,
                         help="arrival/tenant-draw seed (default: 0)")
    traffic.add_argument("--amplitude", type=_fraction, default=0.8,
                         help="diurnal: sinusoid amplitude in [0,1] "
                         "(default: 0.8)")
    traffic.add_argument("--period-s", type=_positive_float, default=86_400.0,
                         help="diurnal: cycle length (default: 86400)")
    traffic.add_argument("--burst-multiplier", type=_multiplier, default=8.0,
                         help="burst: rate multiplier inside the window "
                         "(default: 8)")
    traffic.add_argument("--burst-at-s", type=_non_negative_float, default=0.0,
                         help="burst: window start (default: 0)")
    traffic.add_argument("--burst-duration-s", type=_non_negative_float,
                         default=600.0,
                         help="burst: window length (default: 600)")
    traffic.add_argument("--tenant-profile", dest="tenant_profiles",
                         type=_parse_tenant_profile, action="append",
                         default=[], metavar="NAME[:WEIGHT][=KIND:SHARE,...]",
                         help="add a tenant with a traffic weight and "
                         "workload mix, e.g. 'genomics:2=snv:3,rnaseq:1'; "
                         "repeatable (default: the built-in three-tenant "
                         "population)")
    traffic.add_argument("--max-submissions", type=_non_negative_int,
                         default=None,
                         help="truncate the schedule after N submissions")

    deployment = parser.add_argument_group("deployment")
    deployment.add_argument("--workers", type=_positive_int, default=8)
    deployment.add_argument("--containers-per-node", type=_positive_int,
                            default=3)
    deployment.add_argument("--backbone-mb-s", type=_positive_float,
                            default=100.0)
    deployment.add_argument("--rm-policy", choices=["fifo", "fair", "drf"],
                            default="fair",
                            help="cross-application RM allocation policy "
                            "(default: fair)")
    deployment.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                            default="data-aware")
    deployment.add_argument("--max-concurrent-apps", type=_non_negative_int,
                            default=8,
                            help="admission cap on concurrently running "
                            "workflows; 0 = uncapped (default: 8)")
    deployment.add_argument("--admission-overflow",
                            choices=["queue", "reject"], default="queue",
                            help="what happens past the cap (default: queue)")
    deployment.add_argument("--admission-drain",
                            choices=["fifo", "tenant-fair"], default="fifo",
                            help="admission queue drain order "
                            "(default: fifo)")
    deployment.add_argument("--fixed-containers", action="store_true",
                            help="disable adaptive per-tool container "
                            "sizing (1 vcore / 1024 MB for everything)")
    deployment.add_argument("--sample-period-s", type=_positive_float,
                            default=60.0,
                            help="backlog/queue-depth sampling period "
                            "(default: 60)")
    deployment.add_argument("--no-drain", action="store_true",
                            help="cut the run off at the horizon instead "
                            "of draining in-flight workflows")

    slo = parser.add_argument_group("SLO targets (omitted = not graded)")
    slo.add_argument("--slo-p50-s", type=float, default=None)
    slo.add_argument("--slo-p95-s", type=float, default=None)
    slo.add_argument("--slo-p99-s", type=float, default=None)
    slo.add_argument("--slo-max-rejection-pct", type=float, default=None,
                     help="maximum admission rejection rate, in percent")

    telemetry = parser.add_argument_group("telemetry")
    telemetry.add_argument("--events-out", metavar="PATH",
                           help="journal every bus event to this JSONL "
                           "file (replayable with 'report --from-journal' "
                           "and 'slo-watch')")
    telemetry.add_argument("--live", action="store_true",
                           help="print rolling p50/p95/p99, burn-rate "
                           "alerts and stragglers while the run plays")
    telemetry.add_argument("--live-period-s", type=_positive_float,
                           default=300.0,
                           help="seconds of simulated time between live "
                           "snapshots (default: 300)")

    parser.add_argument("--out", metavar="PATH",
                        help="also write the report here")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="also write the metrics registry as JSON here "
                        "(includes the backlog/queue-depth time series)")
    parser.add_argument("--max-series-points", type=_series_bound,
                        default=None,
                        help="bound each service time series to N samples "
                        "via stride decimation (default: unbounded)")
    parser.add_argument("--quiet", action="store_true")


def serve_command(args) -> int:
    """Execute the ``serve-sim`` subcommand; returns the exit code.

    Exit code 1 means the run finished but an SLO target failed —
    mirroring how a CI capacity gate would consume this command.
    """
    from repro.service import (
        DEFAULT_TENANTS,
        ServiceConfig,
        ServiceRunner,
        SloTargets,
        make_arrivals,
        rate_from_users,
    )

    rate_per_s = (
        rate_from_users(args.users, args.requests_per_user_hour)
        if args.users is not None
        else args.rate_per_h / 3600.0
    )
    if rate_per_s <= 0:
        print("error: arrival rate must be positive", file=sys.stderr)
        return 2
    kwargs = {}
    if args.arrival == "diurnal":
        kwargs = {"amplitude": args.amplitude, "period_s": args.period_s}
    elif args.arrival == "burst":
        kwargs = {
            "burst_multiplier": args.burst_multiplier,
            "burst_at_s": args.burst_at_s,
            "burst_duration_s": args.burst_duration_s,
        }
    arrivals = make_arrivals(args.arrival, rate_per_s, seed=args.seed, **kwargs)
    runner = ServiceRunner(ServiceConfig(
        workers=args.workers,
        containers_per_node=args.containers_per_node,
        backbone_mb_s=args.backbone_mb_s,
        rm_policy=args.rm_policy,
        max_concurrent_apps=args.max_concurrent_apps or None,
        admission_overflow=args.admission_overflow,
        admission_drain=args.admission_drain,
        scheduler=args.scheduler,
        adaptive_container_sizing=not args.fixed_containers,
        sample_period_s=args.sample_period_s,
        drain=not args.no_drain,
        max_series_points=args.max_series_points,
        seed=args.seed,
    ))
    targets = SloTargets(
        p50_s=args.slo_p50_s,
        p95_s=args.slo_p95_s,
        p99_s=args.slo_p99_s,
        max_rejection_rate=(
            args.slo_max_rejection_pct / 100.0
            if args.slo_max_rejection_pct is not None else None
        ),
    )
    journal = monitor = None
    if args.events_out:
        from repro.obs.journal import EventJournal

        journal = EventJournal(args.events_out)
    if args.live:
        from repro.obs.live import LiveMonitor

        monitor = LiveMonitor(window_s=args.live_period_s, targets=targets)
    try:
        report = runner.run(
            arrivals,
            tenants=tuple(args.tenant_profiles) or DEFAULT_TENANTS,
            horizon_s=args.horizon_s,
            targets=targets,
            max_submissions=args.max_submissions,
            journal=journal,
            monitor=monitor,
            snapshot_every_s=args.live_period_s if args.live else None,
            on_snapshot=None if args.quiet or not args.live else print,
        )
    finally:
        if journal is not None:
            journal.close()
    if monitor is not None and not args.quiet:
        print(monitor.summary())
        print()
    text = report.render()
    if not args.quiet:
        print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        if not args.quiet:
            print(f"report saved to {args.out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(runner.registry.to_json() + "\n")
        if not args.quiet:
            print(f"metrics (JSON) saved to {args.metrics_out}")
    if args.events_out and not args.quiet:
        print(f"event journal saved to {args.events_out} "
              f"({journal.events_written} events)")
    return 0 if report.passed() else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the client CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Submit a workflow to a simulated Hi-WAY installation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    run = subparsers.add_parser("run", help="execute a workflow file")
    _add_workflow_arguments(run)
    run.add_argument("--trace-out", help="save the provenance trace here")
    run.add_argument("--timeline", action="store_true",
                     help="print an ASCII Gantt chart of the run")
    trace = subparsers.add_parser(
        "trace",
        help="execute a workflow and export its Chrome trace_event JSON "
        "(chrome://tracing / Perfetto)",
    )
    _add_workflow_arguments(trace)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace JSON output path (default: trace.json)")
    trace.add_argument("--no-hdfs-events", action="store_true",
                       help="skip per-file HDFS read/write spans")
    report = subparsers.add_parser(
        "report",
        help="execute a workflow and print the critical-path / bottleneck "
        "report (per-task slack, wait vs stage-in vs compute, locality)",
    )
    _add_workflow_arguments(report, workflow_optional=True)
    _add_engine_argument(report)
    report.add_argument("--from-journal", metavar="FILE",
                        help="rebuild the report offline from an event "
                        "journal (written by 'serve-sim --events-out') "
                        "instead of running a workflow")
    report.add_argument("--metrics-out", metavar="PATH",
                        help="also write the metrics registry as JSON here")
    report.add_argument("--prometheus-out", metavar="PATH",
                        help="also write the metrics registry in Prometheus "
                        "text exposition format here")
    report.add_argument("--max-tasks", type=_non_negative_int, default=20,
                        help="rows in the per-task slack table (default: 20)")
    explain = subparsers.add_parser(
        "explain",
        help="execute a workflow with the decision audit on and explain "
        "why one task was placed where it was",
    )
    _add_workflow_arguments(explain)
    _add_engine_argument(explain)
    explain.add_argument("task_id", help="task to explain (e.g. 'join')")
    slo_watch = subparsers.add_parser(
        "slo-watch",
        help="replay an event journal through the streaming SLO monitor "
        "and print per-window stats, burn-rate alerts and stragglers",
    )
    slo_watch.add_argument("journal", help="journal file from "
                           "'serve-sim --events-out'")
    slo_watch.add_argument("--window-s", type=_positive_float, default=300.0,
                           help="tumbling window width (default: 300)")
    slo_watch.add_argument("--straggler-factor", type=float, default=3.0,
                           help="flag attempts slower than FACTOR x the "
                           "median of their tool (default: 3)")
    slo_watch.add_argument("--quiet", action="store_true",
                           help="only print the summary line")
    explain_submission = subparsers.add_parser(
        "explain-submission",
        help="render per-submission span trees (admission wait, task "
        "attempts, retries) from an event journal, grouped by tenant",
    )
    explain_submission.add_argument("journal", help="journal file from "
                                    "'serve-sim --events-out'")
    explain_submission.add_argument("submission", nargs="?",
                                    help="submission name (e.g. "
                                    "'genomics/snv-0007'); omitted = list "
                                    "all submissions")
    explain_submission.add_argument("--tenant", default=None,
                                    help="restrict the listing to one tenant")
    explain_submission.add_argument("--trace-out", metavar="PATH",
                                    help="export every span tree as a Chrome "
                                    "trace_event JSON grouped by tenant")
    explain_submission.add_argument("--max-attempts", type=_non_negative_int,
                                    default=30,
                                    help="attempt rows per tree (default: 30)")
    serve = subparsers.add_parser(
        "serve-sim",
        help="run the installation as a long-lived service under an "
        "open-loop arrival process and print the SLO report "
        "(p50/p95/p99 latency, throughput, backlog, admission)",
    )
    _add_serve_arguments(serve)
    experiments = subparsers.add_parser(
        "experiments",
        add_help=False,
        help="regenerate the paper's tables/figures (forwards to "
        "python -m repro.experiments; e.g. 'experiments fig4 --quick' "
        "or 'experiments all --outdir results')",
    )
    experiments.add_argument("experiment_args", nargs=argparse.REMAINDER)
    return parser


def _execute_workflow(args, event_types=(), provenance_store=None):
    """Parse, provision, stage and run on ``args.engine``.

    Returns ``(cluster, result, events)`` or an int exit code.
    ``events`` lists, in emission order, every event of ``event_types``
    from before tools are installed or inputs staged: the one record
    every subcommand folds into its view, on every engine. Subscribing
    only the types a view declares keeps audit-only work (candidate
    scoring for ``SchedulingDecision``) off the other subcommands. The
    metrics registry is ``cluster.metrics.registry``. Tez and CloudMan
    need a static workflow graph, so dynamic sources (Cuneiform) only
    run on Hi-WAY.
    """
    engine = getattr(args, "engine", "hiway")
    with open(args.workflow, "r", encoding="utf-8") as handle:
        text = handle.read()
    kwargs = {}
    if args.bindings:
        kwargs["input_bindings"] = dict(args.bindings)
    try:
        source = parse_workflow(text, language=args.language, **kwargs)
    except ReproError as error:
        print(f"error: cannot parse workflow: {error}", file=sys.stderr)
        return 2
    graph = getattr(source, "graph", None)
    if engine != "hiway" and graph is None:
        print(f"error: the {engine} engine needs a static workflow "
              "graph (DAX, Galaxy or trace); dynamic Cuneiform workflows "
              "only run on hiway", file=sys.stderr)
        return 2

    env = Environment()
    cluster = Cluster(env, ClusterSpec(
        worker_spec=NODE_TYPES[args.node_type],
        worker_count=args.workers,
        master_count=args.masters,
        backbone_mb_s=args.backbone_mb_s,
    ))
    if engine != "hiway":
        # A HiWay installation subscribes the recorder's registry itself;
        # the recorder's resource integrals need no subscription.
        cluster.bus.subscribe(cluster.metrics.registry.handlers())
    events: list = []
    cluster.bus.subscribe(dict.fromkeys(event_types, events.append))
    tools = default_registry()
    for node in cluster.all_nodes():
        node.install(*(args.tools or tools.names()))
    inputs = dict(args.inputs)
    if engine == "hiway":
        hiway = HiWay(
            cluster,
            tools=tools,
            provenance_store=provenance_store,
            max_containers_per_node=args.containers_per_node,
            config=HiWayConfig(
                container_vcores=args.container_vcores,
                container_memory_mb=args.container_memory_mb,
                scheduler=args.scheduler,
                rm_policy=args.rm_policy,
            ),
        )
        for tenant, max_containers, max_vcores in args.tenant_quotas:
            hiway.rm.configure_tenant(
                tenant, max_containers=max_containers, max_vcores=max_vcores
            )
        if inputs:
            hiway.stage_inputs(inputs)
        result = hiway.run(source, scheduler=args.scheduler, tenant=args.tenant)
    elif engine == "tez":
        from repro.baselines.tez import TezApplicationMaster

        hdfs = HdfsClient(cluster, seed=0)
        rm = ResourceManager(
            env, cluster, max_containers_per_node=args.containers_per_node or 3
        )
        if inputs:
            hdfs.stage_many(inputs, seed=0)
        am = TezApplicationMaster(
            cluster, hdfs, rm, tools, graph,
            container_resource=ContainerResource(
                vcores=args.container_vcores,
                memory_mb=args.container_memory_mb,
            ),
        )
        process = env.process(am.run())
        env.run(until=process)
        result = process.value
    else:
        from repro.baselines.cloudman import GalaxyCloudMan

        cloudman = GalaxyCloudMan(
            cluster, tools, slots_per_node=args.containers_per_node or 3
        )
        if inputs:
            cloudman.stage_inputs(inputs)
        result = cloudman.run(graph)
    if not args.quiet:
        status = "SUCCEEDED" if result.success else "FAILED"
        label = result.scheduler if engine == "hiway" else engine
        print(f"workflow {result.name!r} {status} "
              f"[{label}, {args.workers} x {args.node_type}]")
        print(f"  simulated runtime: {result.runtime_seconds:.1f}s "
              f"({result.runtime_seconds / 60:.1f} min)")
        print(f"  tasks completed:   {result.tasks_completed} "
              f"(failures: {result.task_failures})")
        if engine == "hiway":
            for path, size_mb in sorted(result.output_files.items()):
                print(f"  output: {path} ({size_mb:.1f} MB)")
        for diagnostic in result.diagnostics:
            print(f"  diagnostic: {diagnostic}")
    return cluster, result, events


def run_command(args) -> int:
    """Execute the ``run`` subcommand; returns the exit code."""
    from repro.obs.timeline import TIMELINE_EVENTS, render_timeline

    store = TraceFileStore()
    outcome = _execute_workflow(
        args, TIMELINE_EVENTS if args.timeline else (), provenance_store=store
    )
    if isinstance(outcome, int):
        return outcome
    _, result, events = outcome
    if args.timeline:
        print()
        print(render_timeline(events, workflow_id=result.workflow_id))
    if args.trace_out:
        store.save(args.trace_out)
        if not args.quiet:
            print(f"  trace saved to {args.trace_out}")
    return 0 if result.success else 1


def trace_command(args) -> int:
    """Execute the ``trace`` subcommand; returns the exit code."""
    from repro.obs.tracer import TRACE_EVENTS, dump_chrome_trace, trace_records

    outcome = _execute_workflow(args, TRACE_EVENTS)
    if isinstance(outcome, int):
        return outcome
    cluster, result, events = outcome
    records = trace_records(events, cluster.env.now,
                            include_hdfs=not args.no_hdfs_events)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dump_chrome_trace(records) + "\n")
    if not args.quiet:
        registry = cluster.metrics.registry
        allocate_wait = registry.get("hiway_container_allocate_wait_seconds")
        print(f"  chrome trace saved to {args.out} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
        closed = sum(1 for record in records if record["ph"] == "X"
                     and "incomplete" not in record.get("args", ()))
        print(f"  spans: {closed}")
        for outcome_label in ("success", "failure"):
            attempts = registry.value(
                "hiway_task_attempts_total", outcome=outcome_label
            )
            print(f"  task attempts ({outcome_label}): {attempts:.0f}")
        print(f"  containers launched: "
              f"{registry.value('hiway_containers_launched_total'):.0f}")
        print(f"  allocate wait mean: {allocate_wait.mean():.3f}s")
        print(f"  hdfs read locality: {registry.read_locality():.3f}")
    return 0 if result.success else 1


def _write_metrics(args, registry) -> None:
    """``report``'s ``--metrics-out`` (JSON) and ``--prometheus-out``."""
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.to_json() + "\n")
        if not args.quiet:
            print(f"\nmetrics (JSON) saved to {args.metrics_out}")
    if args.prometheus_out:
        with open(args.prometheus_out, "w", encoding="utf-8") as handle:
            handle.write(registry.to_prometheus())
        if not args.quiet:
            print(f"metrics (Prometheus) saved to {args.prometheus_out}")


def _print_workflow_report(args, events, registry) -> bool:
    """Print the critical-path report of the latest finished workflow in
    ``events``: one fold and one selection, live or replayed. False
    (with an error on stderr) when ``events`` hold no workflow."""
    from repro.obs.analysis import analyze, latest_finished, render_report

    try:
        analysis = latest_finished(analyze(events))
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return False
    print(render_report(analysis, registry=registry, max_tasks=args.max_tasks))
    return True


def _report_from_journal(args) -> int:
    """``report --from-journal``: rebuild reports offline from a journal."""
    from repro.obs.journal import JournalError, read_journal, replay_registry

    try:
        meta, events = read_journal(args.from_journal)
    except (OSError, JournalError) as error:
        print(f"error: cannot read journal: {error}", file=sys.stderr)
        return 2
    registry = replay_registry(meta, events)
    if "service" in meta:
        # A serve-sim journal: the live run's own fold, byte-for-byte.
        from repro.service import ServiceReport

        report = ServiceReport.from_events(meta["service"], events, registry)
        print(report.render(), end="")
        exit_code = 0 if report.passed() else 1
    elif _print_workflow_report(args, events, registry):
        exit_code = 0
    else:
        return 2
    _write_metrics(args, registry)
    return exit_code


def report_command(args) -> int:
    """Execute the ``report`` subcommand; returns the exit code."""
    from repro.obs.analysis import ANALYSIS_EVENTS

    if args.from_journal:
        return _report_from_journal(args)
    if not args.workflow:
        print("error: a workflow file (or --from-journal) is required",
              file=sys.stderr)
        return 2

    outcome = _execute_workflow(args, ANALYSIS_EVENTS)
    if isinstance(outcome, int):
        return outcome
    cluster, result, events = outcome
    registry = cluster.metrics.registry
    print()
    if not _print_workflow_report(args, events, registry):
        return 1
    _write_metrics(args, registry)
    return 0 if result.success else 1


def explain_command(args) -> int:
    """Execute the ``explain`` subcommand; returns the exit code."""
    from repro.obs.decisions import DECISION_EVENTS, explain, task_ids

    outcome = _execute_workflow(args, DECISION_EVENTS)
    if isinstance(outcome, int):
        return outcome
    _, result, decisions = outcome
    print()
    try:
        print(explain(decisions, args.task_id))
    except KeyError:
        print(f"error: no scheduling decisions recorded for task "
              f"{args.task_id!r}", file=sys.stderr)
        known = task_ids(decisions)
        if known:
            print("known task ids: " + ", ".join(known), file=sys.stderr)
        return 1
    return 0 if result.success else 1


def slo_watch_command(args) -> int:
    """Execute the ``slo-watch`` subcommand; returns the exit code.

    Exit code 1 means at least one burn-rate alert fired during the
    replay — the command doubles as a post-hoc SLO gate over a journal.
    """
    from repro.obs.journal import JournalError, read_journal
    from repro.obs.live import LiveMonitor
    from repro.service.slo import run_epoch, slo_targets

    try:
        meta, events = read_journal(args.journal)
    except (OSError, JournalError) as error:
        print(f"error: cannot read journal: {error}", file=sys.stderr)
        return 2
    monitor = LiveMonitor(
        window_s=args.window_s,
        targets=slo_targets(meta.get("service", {})),
        straggler_factor=args.straggler_factor,
        epoch=run_epoch(events),
    )
    handlers = monitor.handlers()
    for event in events:
        handler = handlers.get(type(event))
        if handler is not None:
            handler(event)
    monitor.close()
    if not args.quiet:
        for window in monitor.all_windows():
            print(window.line())
        if monitor.all_windows():
            print()
    print(monitor.summary())
    return 1 if monitor.alerts else 0


def explain_submission_command(args) -> int:
    """Execute the ``explain-submission`` subcommand; returns the exit code."""
    from repro.obs.journal import JournalError, read_journal
    from repro.obs.spans import (
        build_submission_spans,
        render_submission,
        to_chrome_trace,
    )

    try:
        _, events = read_journal(args.journal)
    except (OSError, JournalError) as error:
        print(f"error: cannot read journal: {error}", file=sys.stderr)
        return 2
    spans = build_submission_spans(events)
    if args.tenant:
        spans = [span for span in spans if span.tenant == args.tenant]
    if not spans:
        print("no submissions found in the journal", file=sys.stderr)
        return 1
    if args.submission:
        matches = [span for span in spans if span.name == args.submission]
        if not matches:
            print(f"error: no submission named {args.submission!r}",
                  file=sys.stderr)
            print("known submissions: "
                  + ", ".join(span.name for span in spans), file=sys.stderr)
            return 1
        for span in matches:
            print(render_submission(span, max_attempts=args.max_attempts))
    else:
        def seconds(value: Optional[float]) -> str:
            # A truncated journal leaves submissions unadmitted/unfinished.
            return f"{value:8.1f}s" if value is not None else f"{'-':>9s}"

        tenant: object = object()  # sentinel: even a None tenant prints
        ordered = sorted(
            spans, key=lambda s: (s.tenant or "", s.submitted_at or 0.0)
        )
        for span in ordered:
            if span.tenant != tenant:
                tenant = span.tenant
                print(f"tenant {tenant or 'untenanted'}:")
            print(f"  {span.name:<28s} {span.outcome:<9s} "
                  f"queue {seconds(span.queue_wait_s)}  "
                  f"latency {seconds(span.latency_s)}  "
                  f"attempts {len(span.attempts)}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(to_chrome_trace(spans))
        print(f"chrome trace saved to {args.trace_out} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_command(args)
    if args.command == "trace":
        return trace_command(args)
    if args.command == "report":
        return report_command(args)
    if args.command == "explain":
        return explain_command(args)
    if args.command == "serve-sim":
        return serve_command(args)
    if args.command == "slo-watch":
        return slo_watch_command(args)
    if args.command == "explain-submission":
        return explain_submission_command(args)
    if args.command == "experiments":
        from repro.experiments.__main__ import main as experiments_main

        return experiments_main(args.experiment_args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
