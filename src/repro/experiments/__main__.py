"""Command-line entry point: regenerate any of the paper's results.

Each experiment is named after its ``results/`` file, and its stdout is
that committed table byte for byte. ``--outdir DIR`` also writes
``NAME.txt`` and ``NAME.md`` for every experiment run, so one command
rewrites (or, with ``diff -r``, checks) the whole ``results/`` tree.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig4 --quick
    python -m repro.experiments table2 --jobs 4
    python -m repro.experiments fig4_concurrent --quick --concurrent 16 --rm-policy drf
    python -m repro.experiments all --outdir results --jobs 2
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import EXPERIMENTS, runner

#: The one experiment that takes ``--concurrent`` / ``--rm-policy``.
_CONCURRENT = "fig4_concurrent"


def _positive_int(text: str) -> int:
    """argparse ``type=`` for ``--jobs`` and ``--concurrent``: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the Hi-WAY paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which results/ table to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the laptop-sized variant (same shape, smaller scale)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="spread the run grid over N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--outdir",
        metavar="DIR",
        help="also write NAME.txt and NAME.md for each experiment into DIR "
        "(created if missing)",
    )
    parser.add_argument(
        "--concurrent",
        nargs="+",
        type=_positive_int,
        metavar="N",
        help=f"{_CONCURRENT} only: the concurrent workflow counts to run, "
        "e.g. '--concurrent 64' for a single 64-tenant point",
    )
    parser.add_argument(
        "--rm-policy",
        choices=["fifo", "fair", "drf"],
        help=f"{_CONCURRENT} only: run one RM allocation policy "
        "(default: compare all three)",
    )
    args = parser.parse_args(argv)
    kwargs = {}
    if args.concurrent:
        kwargs["workflow_counts"] = tuple(args.concurrent)
    if args.rm_policy:
        kwargs["policies"] = (args.rm_policy,)
    if kwargs and args.experiment != _CONCURRENT:
        parser.error(f"--concurrent and --rm-policy apply to {_CONCURRENT} only")
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
    for index, name in enumerate(names):
        if index:
            print()
        started = time.time()
        table = runner(name)(quick=args.quick, jobs=args.jobs, **kwargs)
        text = table.format() + "\n"
        sys.stdout.write(text)
        if args.outdir:
            for suffix, body in ((".txt", text),
                                 (".md", table.to_markdown() + "\n")):
                with open(os.path.join(args.outdir, name + suffix), "w") as fh:
                    fh.write(body)
        # Timing goes to stderr: stdout is the table alone, byte for byte
        # what results/ commits.
        print(f"({name} regenerated in {time.time() - started:.1f}s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
