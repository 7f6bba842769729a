"""Command-line entry point: regenerate any of the paper's results.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig4 --quick
    python -m repro.experiments all --quick
    python -m repro.experiments fig9 --parallel
    python -m repro.experiments table2 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import CONCURRENT_EXPERIMENTS, EXPERIMENTS


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
        help="which table/figure to regenerate",
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
        "--parallel",
        action="store_true",
        help="shorthand for --jobs <all cores>",
    )
    parser.add_argument(
        "--concurrent",
        nargs="*",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "run the multi-workflow variant (N concurrent AMs sharing one "
            "RM); optional N values override the workflow counts, e.g. "
            "'--concurrent 64' for a single 64-tenant point; available "
            f"for: {', '.join(sorted(CONCURRENT_EXPERIMENTS))}"
        ),
    )
    parser.add_argument(
        "--rm-policy",
        choices=["fifo", "fair", "drf", "all"],
        default="all",
        help=(
            "RM allocation policy for the --concurrent variant "
            "(default: compare all three)"
        ),
    )
    args = parser.parse_args(argv)
    jobs = None if args.parallel else args.jobs
    concurrent = args.concurrent is not None
    registry = CONCURRENT_EXPERIMENTS if concurrent else EXPERIMENTS
    names = sorted(registry) if args.experiment == "all" else [args.experiment]
    missing = [name for name in names if name not in registry]
    if missing:
        parser.error(
            f"no --concurrent variant for: {', '.join(missing)} "
            f"(have: {', '.join(sorted(CONCURRENT_EXPERIMENTS))})"
        )
    kwargs = {}
    if concurrent:
        if args.concurrent:  # bare --concurrent keeps the config default
            kwargs["workflow_counts"] = tuple(args.concurrent)
        if args.rm_policy != "all":
            kwargs["policies"] = (args.rm_policy,)
    for index, name in enumerate(names):
        if index:
            print()
        started = time.time()
        table = registry[name](quick=args.quick, jobs=jobs, **kwargs)
        print(table.format())
        # Timing goes to stderr: stdout is the table alone, byte for byte
        # what results/ commits.
        print(f"({name} regenerated in {time.time() - started:.1f}s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
