"""One rep of one workload, in a fresh process (started by ``run.py``).

Usage: ``rep.py WORKLOAD SEED SIZE TRACE FULL WORKDIR``. Prints one JSON
line: the monotonic clock at the end of set-up (the parent knows when
it started the process, so set-up covers interpreter start-up and
imports), the probe time and pace of set-up and of the measured phase
(see ``pace.py``), the measured wall time, the peak RSS of this
process, the simulated outcome and, with TRACE=1, the per-layer span
totals. FULL=1 adds the slow output checks (see ``workloads.py``).
"""

from __future__ import annotations

import json
import resource
import sys

from pace import Pace


def main(argv: list[str]) -> int:
    name, seed, size, trace, full, workdir = argv
    pace = Pace()
    setup_begin = pace.start()
    try:
        tracer = None
        if trace == "1":
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        from workloads import SIZES, WORKLOADS

        workload = WORKLOADS[name](int(seed), SIZES[size], workdir)
        if tracer is not None:
            tracer.reset()
        setup_end, started = pace.mark()
        workload.run()
        ended, _ = pace.mark()
    finally:
        pace.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_probe_s, setup_pace = pace.phase(setup_begin, setup_end)
    run_probe_s, run_pace = pace.phase(started, ended)
    spans = None
    if tracer is not None:
        spans = tracer.snapshot()
        tracer.uninstall()
    outcome = workload.outcome(full == "1")
    print(json.dumps({
        "setup_end": setup_end,
        "setup_probe_s": setup_probe_s,
        "setup_pace": setup_pace,
        "raw_wall_s": ended - started - run_probe_s,
        "pace": run_pace,
        "peak_rss_mb": peak_rss_mb,
        "sim_s": outcome.sim_s,
        "tasks": outcome.tasks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "sim_digest": outcome.sim_digest,
        "counters": outcome.counters,
        "spans": spans,
        "untraced_entry_points": tracer.missing if tracer is not None else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
