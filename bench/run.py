"""The benchmark of record: four workloads, end to end and per layer.

    python3 bench/run.py --seed 0 --out result.json

runs every workload (``fig9_heft``, ``snv_wide``, ``service_poisson``,
``service_journal``) against the ``repro`` package under ``src/`` and
prints every metric by name with its unit. Each rep is a fresh process
(``rep.py``), so set-up includes interpreter start-up and imports and
peak RSS belongs to one workload. Timed reps run untraced, one at a
time, interleaved round-robin across workloads; then come the traced
reps, which attribute wall time to the repository's layers
(``layers.py``). Every timing is corrected to full core speed by a
probe timed inside the rep (``pace.py``). The simulated outputs are
checked after every rep; the exit code is 1 if a check fails.

With one ``--workload``, the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). ``--seconds`` sets a floor on the measured time: reps
continue past the seven per workload until it has passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import layer_metrics, per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The keys of ``workloads.WORKLOADS``; this process never imports ``repro``.
WORKLOAD_NAMES = ("fig9_heft", "snv_wide", "service_poisson", "service_journal")

#: End-to-end metric -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "sim_speedup": ("sim_s/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Timed reps per workload, at least (one with ``--tiny``).
MIN_REPS = 7
#: Traced reps per workload, after the timed ones.
TRACED_REPS = 3
#: A rep that takes longer than this is stopped and counts as broken.
REP_TIMEOUT_S = 60


class RepError(Exception):
    """A rep process failed; the benchmark prints no result."""


def _rep(workload: str, seed: int, size: str, traced: bool, full: bool, workdir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Same string hashes in every rep: the same dict layouts, the same work.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        workload, str(seed), size, str(int(traced)), str(int(full)), workdir,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RepError(f"{workload}: rep took longer than {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RepError(f"{workload}: rep exited {proc.returncode}\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    # Timings are corrected to full core speed (see pace.py).
    rep["setup_s"] = (rep.pop("setup_end") - started - rep.pop("setup_probe_s")) * rep.pop(
        "setup_pace"
    )
    rep["wall_s"] = rep["raw_wall_s"] * rep["pace"]
    return rep


def collect(workloads, seed: int, size: str, min_reps: int, seconds: float,
            trace: bool, workdir: str, echo=None) -> dict:
    """Run the reps; ``{workload: {"timed": [...], "traced": [...]}}``."""
    reps = {name: {"timed": [], "traced": []} for name in workloads}
    started = time.monotonic()
    rounds = 0
    while rounds < min_reps or time.monotonic() - started < seconds:
        for name in workloads:
            full = rounds == 0
            reps[name]["timed"].append(_rep(name, seed, size, False, full, workdir))
        rounds += 1
        if echo:
            echo(f"timed round {rounds} done")
    for round_index in range(TRACED_REPS if trace else 0):
        for name in workloads:
            reps[name]["traced"].append(_rep(name, seed, size, True, False, workdir))
        if echo:
            echo(f"traced round {round_index + 1} done")
    return reps


def _distribution(values: list[float]) -> dict:
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {
        "value": statistics.median(values),
        "p25": p25,
        "p75": p75,
        "n": len(values),
        "samples": values,
    }


def _layers(timed: list[dict], traced: list[dict], checks: dict) -> dict:
    """Per-layer medians over the traced reps, plus ``trace_overhead``.

    Self times are corrected to full core speed like ``wall_s``.
    """
    per_rep = [
        layer_metrics(
            {key: [self_s * rep["pace"], calls] for key, (self_s, calls) in rep["spans"].items()},
            rep["counters"],
        )
        for rep in traced
    ]
    counts = [
        {k: v for k, v in metrics.items() if not k.endswith((".self_s", ".share"))}
        for metrics in per_rep
    ]
    checks["traced reps count identical calls"] = all(c == counts[0] for c in counts)
    units = per_layer_units()
    per_layer = {
        name: {"value": statistics.median(m[name] for m in per_rep), "unit": units[name]}
        for name in per_rep[0]
    }
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    untraced_wall = statistics.median(rep["wall_s"] for rep in timed)
    per_layer["trace_overhead"] = {
        "value": traced_wall / untraced_wall - 1.0, "unit": units["trace_overhead"],
    }
    return per_layer


def summarise(timed: list[dict], traced: list[dict]) -> dict:
    """Medians, quartiles, checks and per-layer numbers of one workload."""
    samples = {
        "wall_s": [rep["wall_s"] for rep in timed],
        "tasks_per_s": [rep["tasks"] / rep["wall_s"] for rep in timed],
        "sim_speedup": [rep["sim_s"] / rep["wall_s"] for rep in timed],
        "setup_s": [rep["setup_s"] for rep in timed],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in timed],
    }
    everything = timed + traced
    checks: dict[str, bool] = {}
    for rep in everything:
        for check, passed in rep["checks"].items():
            checks[check] = checks.get(check, True) and passed
    digests = sorted({rep["sim_digest"] for rep in everything})
    checks["sim_digest identical in every rep, traced or not"] = len(digests) == 1
    per_layer = _layers(timed, traced, checks) if traced else None
    attempted = sum(rep["attempted"] for rep in everything)
    # A rep whose output fails a check counts as one more failure.
    failed = sum(rep["failed"] + (not all(rep["checks"].values())) for rep in everything)
    return {
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "checks": checks,
        "end_to_end": {
            name: dict(_distribution(samples[name]), unit=END_TO_END[name][0])
            for name in END_TO_END
        },
        # The measured phase as the clock read it, and the pace that
        # corrected it: pace = wall_s / raw_wall_s.
        "raw": {
            "raw_wall_s": dict(_distribution([rep["raw_wall_s"] for rep in timed]), unit="s"),
            "pace": dict(_distribution([rep["pace"] for rep in timed]), unit="ratio"),
        },
        "per_layer": per_layer,
        "untraced_entry_points": sorted(
            {point for rep in traced for point in rep["untraced_entry_points"]}
        ),
    }


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def render(name: str, summary: dict) -> str:
    e2e = summary["end_to_end"]
    lines = [
        f"== {name}: {e2e['wall_s']['n']} timed reps, "
        f"{'correct' if summary['correct'] else 'CHECK FAILED'}, "
        f"sim_digest {summary['sim_digest']}",
    ]
    for metric, stats in e2e.items():
        lines.append(
            f"  {metric:<14} {_fmt(stats['value']):>12} {stats['unit']:<8} "
            f"p25 {_fmt(stats['p25'])}  p75 {_fmt(stats['p75'])}  "
            f"n {stats['n']}  ({END_TO_END[metric][1]} is better)"
        )
    for metric, stats in summary["raw"].items():
        lines.append(
            f"  {metric:<14} {_fmt(stats['value']):>12} {stats['unit']:<8} "
            f"p25 {_fmt(stats['p25'])}  p75 {_fmt(stats['p75'])}"
        )
    lines.append(
        f"  {'failed_share':<14} {_fmt(summary['failed_share']):>12} "
        f"{'fraction':<8} {summary['failed']} of {summary['attempted']} attempted"
    )
    for check, passed in summary["checks"].items():
        lines.append(f"  check: {'ok  ' if passed else 'FAIL'} {check}")
    if summary["per_layer"]:
        lines.append("  per layer (median of the traced reps):")
        for metric, stats in summary["per_layer"].items():
            lines.append(f"    {metric:<36} {_fmt(stats['value']):>14} {stats['unit']}")
    if summary["untraced_entry_points"]:
        lines.append(f"  untraced entry points: {summary['untraced_entry_points']}")
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding timed rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="run the traced reps after the timed ones (default: 1)")
    parser.add_argument("--out", metavar="PATH", help="write every number as JSON")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (numbers are not comparable)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = list(dict.fromkeys(args.workload or WORKLOAD_NAMES))
    workdir = os.path.join(ROOT, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    try:
        reps = collect(
            workloads, args.seed, "tiny" if args.tiny else "full",
            1 if args.tiny else MIN_REPS, args.seconds, bool(args.trace), workdir,
            echo=lambda line: print(line, file=sys.stderr, flush=True),
        )
    except RepError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(workdir)
        except OSError:
            pass
    summaries = {name: summarise(**reps[name]) for name in workloads}
    for name, summary in summaries.items():
        print(render(name, summary))
    if args.out:
        document = {
            "schema": "hiway-benchmark/1",
            "seed": args.seed,
            "tiny": args.tiny,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "workloads": summaries,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    correct = all(summary["correct"] for summary in summaries.values())
    if len(workloads) == 1:
        summary = summaries[workloads[0]]
        section = summary["per_layer"] if args.trace else summary["end_to_end"]
        print(json.dumps({
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": stats["value"], "unit": stats["unit"]}
                for name, stats in section.items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
