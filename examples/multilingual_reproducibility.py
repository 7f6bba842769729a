#!/usr/bin/env python3
"""Multi-language execution and reproducible experiments (Secs. 3.2-3.6).

One installation runs the TRAPLINE RNA-seq pipeline from its Galaxy
export and a Montage mosaic from Pegasus DAX; the Montage run's
provenance trace is then re-executed as a workflow of its own (Hi-WAY's
fourth language). Finally, a Karamel-style recipe provisions a complete
execution-ready environment in one call.

Run with::

    python examples/multilingual_reproducibility.py
"""

from repro import Cluster, ClusterSpec, Environment, M3_LARGE
from repro.cluster import C3_2XLARGE
from repro.core import HiWay, HiWayConfig
from repro.langs import CuneiformSource, DaxSource, GalaxySource, detect_language
from repro.langs.tracelang import TraceSource
from repro.recipes import ClusterDefinition, Karamel, builtin_recipe_book
from repro.workloads import (
    MONTAGE_TOOLS,
    RNASEQ_TOOLS,
    kmeans_cuneiform,
    montage_dax,
    montage_inputs,
    trapline_galaxy_json,
    trapline_input_bindings,
    trapline_inputs,
)


def run_galaxy_workflow() -> None:
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=C3_2XLARGE, worker_count=3))
    hiway = HiWay(cluster, max_containers_per_node=1, config=HiWayConfig(
        container_vcores=8, container_memory_mb=14_000.0,
    ))
    hiway.install_everywhere(*RNASEQ_TOOLS)
    hiway.stage_inputs(trapline_inputs(mb_per_replicate=200.0))
    text = trapline_galaxy_json()
    print(f"TRAPLINE export detected as: {detect_language(text)!r}")
    source = GalaxySource(text, input_bindings=trapline_input_bindings())
    result = hiway.run(source)
    assert result.success, result.diagnostics
    print(f"  Galaxy workflow: {result.tasks_completed} tasks, "
          f"{result.runtime_seconds / 60:.1f} min\n")


def run_dax_and_replay_trace() -> None:
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE, worker_count=6))
    hiway = HiWay(cluster, config=HiWayConfig(
        container_vcores=1, container_memory_mb=1024.0,
    ))
    hiway.install_everywhere(*MONTAGE_TOOLS)
    hiway.stage_inputs(montage_inputs(0.25))
    dax = montage_dax(0.25)
    print(f"Montage DAX detected as: {detect_language(dax)!r}")
    original = hiway.run(DaxSource(dax), scheduler="round-robin")
    assert original.success, original.diagnostics
    print(f"  DAX workflow: {original.tasks_completed} tasks, "
          f"{original.runtime_seconds / 60:.1f} min")

    # The trace of that run is itself a workflow (Sec. 3.5). Re-running
    # it reproduces the exact task set with the recorded file sizes —
    # though not necessarily on the same compute nodes.
    trace = hiway.provenance.trace_jsonl()
    print(f"  trace detected as: {detect_language(trace)!r} "
          f"({len(trace.splitlines())} events)")
    replay = hiway.run(TraceSource(trace), scheduler="fcfs")
    assert replay.success, replay.diagnostics
    assert replay.tasks_completed == original.tasks_completed
    print(f"  trace replay: {replay.tasks_completed} tasks, "
          f"{replay.runtime_seconds / 60:.1f} min\n")


def provision_with_karamel() -> None:
    book = builtin_recipe_book(kmeans_partitions=4)
    karamel = Karamel(book)
    definition = ClusterDefinition(
        name="kmeans-on-demand",
        spec=ClusterSpec(worker_spec=M3_LARGE, worker_count=4),
        recipes=["kmeans"],
    )
    hiway = karamel.launch(definition)
    print("Karamel provisioned cluster 'kmeans-on-demand':")
    print(f"  nodes: {len(hiway.cluster.workers)} workers, "
          f"{len(hiway.cluster.masters)} master(s)")
    print(f"  staged files: {len(hiway.hdfs.namenode.list_paths())}")
    result = hiway.run(CuneiformSource(
        kmeans_cuneiform(partitions=4, iterations_until_convergence=2),
        name="kmeans",
    ))
    assert result.success, result.diagnostics
    print(f"  verification run: {result.tasks_completed} tasks OK")


def main() -> None:
    run_galaxy_workflow()
    run_dax_and_replay_trace()
    provision_with_karamel()


if __name__ == "__main__":
    main()
